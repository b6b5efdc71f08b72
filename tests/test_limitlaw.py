import cmath
import math
import re
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from youngspec.combinatorics import catalan, dh_moment, limit_moment
from youngspec.errors import (
    InsufficientPointsError,
    NoConvergenceError,
    OutsideDomainError,
    OutsideSupportError,
    ToleranceNotMetError,
)
from youngspec import limitlaw
from youngspec.limitlaw import (
    beta_product_moment,
    beta_product_samples,
    cdf_grid,
    contour_moment,
    density,
    density_grid,
    density_mp,
    density_r2,
    density_with_error,
    dh_cdf,
    dh_density,
    edge_exponent_fit,
    stieltjes,
    support_edge,
)
from youngspec.spectra import StepCDF, ks_distance
from youngspec.streams import substream

from _closed_forms import dh_density_param, mp_cdf, stieltjes_hyp, stieltjes_mp
from _oracle import limit_cdf, limit_density, triangular_density


def test_support_edge_values():
    assert support_edge(1) == 4
    assert support_edge(2) == Fraction(27, 4)
    assert support_edge(3) == Fraction(256, 27)
    edges = [float(support_edge(r)) for r in range(1, 9)]
    assert all(a < b for a, b in zip(edges, edges[1:]))
    assert float(support_edge(2)) == 6.75


def test_support_edge_is_exact_and_fast_at_large_order():
    for r in (*range(1, 9), 1000):
        edge = support_edge(r)
        assert (edge.numerator, edge.denominator) == ((r + 1) ** (r + 1), r**r), r
    # no gcd of two integers of 5 * 10^5 digits: about 0.2 s, against 5 s for one
    start = time.perf_counter()
    support_edge(10**5)
    assert time.perf_counter() - start < 2.0


# -- Stieltjes ----------------------------------------------------------


def test_stieltjes_square_case_closed_form():
    got = stieltjes(1, 5.0, tol=1e-14)
    want = (1.0 - math.sqrt(0.2)) / 2.0
    assert abs(got - want) < 1e-10
    assert abs(stieltjes_mp(5.0) - want) < 1e-14


def test_stieltjes_large_z_normalization():
    for r in range(1, 5):
        z = 1e6 * float(support_edge(r))
        assert abs(z * stieltjes(r, z) - 1.0) < 1e-5


def test_stieltjes_two_summation_routes_agree():
    for r, z in ((2, 10.0), (3, 12.0), (1, 4.5), (4, 20.0 + 3.0j)):
        a = stieltjes(r, z, tol=1e-13)
        b = stieltjes_hyp(r, z, tol=1e-13)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_stieltjes_outside_domain():
    with pytest.raises(OutsideDomainError):
        stieltjes(2, 6.75)
    with pytest.raises(OutsideDomainError):
        stieltjes(2, 3.0 + 0.1j)


def test_stieltjes_herglotz_sign():
    g = stieltjes(2, 8.0 + 1.0j)
    assert g.imag < 0


# -- density ------------------------------------------------------------


def test_density_square_case_matches_closed_form():
    assert density(1, 2.0, tol=1e-9) == pytest.approx(1 / (2 * math.pi), abs=1e-10)
    for x in np.linspace(0.12, 3.96, 20):
        assert density(1, float(x), tol=1e-9) == pytest.approx(density_mp(float(x)), abs=1e-8)


def test_density_order2_matches_closed_form():
    edge = 6.75
    for x in np.linspace(0.2, edge - 0.2, 10):
        assert density(2, float(x), tol=1e-8) == pytest.approx(density_r2(float(x)), abs=1e-6)


def test_density_matches_meijer_g_oracle_within_error_bar():
    # seeded points over [1e-4 L, 0.99 L] plus x = 0.505 L in the bulk;
    # the reported error must cover the true error
    for r in range(2, 11):
        edge = float(support_edge(r))
        rng = np.random.default_rng(4000 + r)
        ts = np.concatenate([10.0 ** rng.uniform(-4.0, math.log10(0.99), 30), [0.505]])
        for x in edge * ts:
            f, err = density_with_error(r, float(x))
            ref = limit_density(r, float(x))
            assert abs(f - ref) <= 1e-8 * ref, (r, x, f, ref)
            assert abs(f - ref) <= err, (r, x, f, ref, err)


def test_density_beyond_float_range_raises():
    # f ~ x^(-r/(r+1)) overflows at the smallest subnormal for r = 120
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, err = density_with_error(120, 1e-300)
        assert math.isfinite(f) and math.isfinite(err)
        with pytest.raises(OutsideDomainError):
            density_with_error(120, 5e-324)
        with pytest.raises(OutsideDomainError, match="at x = 5e-324 "):
            density_with_error(120, np.array([1e-300, 5e-324, 1.0]))


def test_grid_cdf_and_integral_match_meijer_g_cdf_oracle():
    # the CDF knots below, at and above the first grid abscissa x[0] = 1e-7 L
    # and in the bulk, and the total mass, against the G-function CDF
    for r in range(4, 11):
        grid = density_grid(r)
        cdf = grid.cdf()
        edge = grid.edge
        knots = [1, 10, 11, int(np.searchsorted(cdf.xs, 0.151 * edge)),
                 int(np.searchsorted(cdf.xs, 0.6 * edge))]
        assert cdf.xs[knots[2]] == grid.x[0]
        for i in knots:
            x = float(cdf.xs[i])
            ref = limit_cdf(r, x)
            assert abs(cdf.fs[i] - ref) <= 1e-12, (r, x, cdf.fs[i], ref)
        assert abs(grid.integral() - 1.0) <= 1e-12, (r, grid.integral())


def test_grid_cdf_reuses_the_grid_evaluation(monkeypatch):
    # density_grid evaluates f and F at the CDF knots in one pass; cdf() only assembles them
    def refuse(r, x):
        raise AssertionError("DensityGrid.cdf() evaluated the law again")

    for r, n in ((1, 64), (2, 512), (4, 768)):
        grid = density_grid(r, n)
        knots = np.concatenate([grid.x[0] * 10.0 ** np.arange(-5.0, -0.4, 0.5), grid.x])
        f, err, F = limitlaw._law(r, knots)
        with monkeypatch.context() as patch:
            patch.setattr(limitlaw, "_law", refuse)
            cdf = grid.cdf()
        assert np.array_equal(cdf.xs, np.concatenate([[0.0], knots, [grid.edge]])), r
        assert np.array_equal(cdf.fs[1:-1], F) and cdf.fs[0] == 0.0 and cdf.fs[-1] == 1.0, r
        assert np.array_equal(grid.f, f[10:]) and np.array_equal(grid.err, err[10:]), r


def test_density_grid_equals_pointwise_density_bit_for_bit():
    # the grid, the array call and the single-point call share one batched
    # evaluator, so a point's value must not depend on the batch it is in
    for r in (1, 2, 3, 4):
        grid = density_grid(r, 64)
        pairs = [density_with_error(r, float(x)) for x in grid.x]
        assert all(type(f) is float and type(e) is float for f, e in pairs)
        assert np.array_equal(grid.f, [f for f, _ in pairs]), r
        assert np.array_equal(grid.err, [e for _, e in pairs]), r
        f, err = density_with_error(r, grid.x.reshape(-1, 4))
        assert f.shape == err.shape == (len(grid.x) // 4, 4)
        assert np.array_equal(f.ravel(), grid.f) and np.array_equal(err.ravel(), grid.err), r


def test_density_grid_abscissae_strictly_increase():
    # head < 0.2 L <= mid < 0.9 L <= tail, so the grid needs no sort or dedup
    for r in (1, 2, 5, 12, 100, 1000):
        for n in (16, 17, 31, 100, 767, 2999, 8192):
            x = density_grid(r, n).x
            assert x.size == n and np.all(np.diff(x) > 0), (r, n)


def test_density_grid_tol_names_first_offending_abscissa():
    grid = density_grid(3, 64)
    scaled = grid.err / np.maximum(1.0, np.abs(grid.f))
    tol = 0.5 * float(scaled.max())  # some abscissae, not all, exceed it
    first = int(np.flatnonzero(scaled > tol)[0])
    with pytest.raises(ToleranceNotMetError, match=re.escape(f"at x={grid.x[first]:.6g} ")):
        density_grid(3, 64, tol=tol)


def test_density_large_order_approaches_triangular_law():
    # X/r tends to the triangular law on [0, e]: r f(r y) -> dh_density(y),
    # with a relative gap below 1.5/r that shrinks from r = 50 to r = 100
    ys = (0.05, 0.2, 0.5, 1.0, 1.5, 2.0)
    gaps = {}
    for r in (50, 100):
        for y in ys:
            f, _ = density_with_error(r, r * y)
            ref = dh_density(y) / r
            assert abs(f - ref) <= (1.5 / r) * ref, (r, y, f, ref)
            gaps[r, y] = abs(f - ref) / ref
    for y in ys:
        assert gaps[100, y] < gaps[50, y], (y, gaps[50, y], gaps[100, y])


def test_density_outside_support():
    with pytest.raises(OutsideSupportError):
        density(1, -0.5)
    with pytest.raises(OutsideSupportError):
        density(1, 4.0)
    with pytest.raises(OutsideSupportError):
        density(2, 100.0)
    with pytest.raises(OutsideSupportError, match="x = 4.0 outside"):
        density_with_error(1, np.array([1.0, 4.0, 5.0]))


def test_density_tolerance_not_met():
    with pytest.raises(ToleranceNotMetError):
        density(3, 1.0, tol=1e-18)


def test_density_mp_trivials():
    assert density_mp(2.0) == pytest.approx(1 / (2 * math.pi))
    assert density_mp(4.0) == 0.0
    assert density_mp(5.0) == 0.0
    assert density_mp(-1.0) == 0.0


def test_density_r2_quadrature_oracle():
    edge = 6.75
    total, _ = quad(density_r2, 0, edge, points=[0.0, edge], limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)
    first, _ = quad(lambda x: x * density_r2(x), 0, edge, points=[0.0, edge], limit=300)
    assert first == pytest.approx(1.5, abs=1e-6)
    assert density_r2(edge) == 0.0
    assert density_r2(7.0) == 0.0


def test_density_normalization_general_order():
    grid = density_grid(3)
    assert grid.integral() == pytest.approx(1.0, abs=1e-4)


# -- CDF grid ------------------------------------------------------------


def test_cdf_grid_monotone_and_normalized():
    g = cdf_grid(2, grid_size=512)
    assert np.all(np.diff(g.fs) >= -1e-15)
    assert g.knots()[1][-1] == pytest.approx(1.0, abs=1e-3)
    assert g.eval(0.0) == 0.0


def test_cdf_grid_square_case_closed_form():
    g = cdf_grid(1, grid_size=1024)
    assert float(g.eval(2.0)) == pytest.approx(mp_cdf(2.0), abs=1e-6)
    assert mp_cdf(2.0) == pytest.approx(0.5 + 1 / math.pi)
    for x in (0.5, 1.0, 3.0, 3.9):
        assert float(g.eval(x)) == pytest.approx(mp_cdf(x), abs=1e-5)


def test_mp_cdf_accurate_at_soft_edge():
    # asin(sqrt(x)/2) near 1 loses digits as x -> 4; the atan2 form does not
    def ref(x):
        x = mpmath.mpf(x)
        return 2 / mpmath.pi * (mpmath.asin(mpmath.sqrt(x) / 2) + mpmath.sqrt(x * (4 - x)) / 4)

    with mpmath.workdps(40):
        for x in (3.997, 3.9999, 4.0 - 1e-8):
            assert abs(mp_cdf(x) - float(ref(x))) <= 4.5e-16, x


def test_cdf_grid_validates_size():
    with pytest.raises(ValueError):
        cdf_grid(1, grid_size=8)


# -- Beta product ---------------------------------------------------------


def test_beta_product_moment_examples():
    assert beta_product_moment(2, 2) == 5
    assert beta_product_moment(1, 3) == 5 == catalan(3)
    for r in range(1, 6):
        assert beta_product_moment(r, 0) == 1


def test_beta_product_moment_telescopes_to_binomial():
    for r in range(1, 6):
        for k in range(9):
            assert beta_product_moment(r, k) == limit_moment(r, k)


def _beta_product_moment_factor_by_factor(r: int, k: int) -> Fraction:
    """L^k/(k+1) times, for each Beta(a_j, b_j) factor, prod_{i<k} (a_j + i)/(a_j + b_j + i)."""
    val = support_edge(r) ** k / (k + 1)
    for j in range(1, r + 1):
        aj, cj = Fraction(j, r + 1), Fraction(j, r)
        for i in range(k):
            val *= (aj + i) / (cj + i)
    return val


def test_beta_product_moment_equals_the_factor_by_factor_product():
    # ascending orders carry the running product on; a lower order or another r starts over
    calls = [(r, k) for r in range(1, 9) for k in range(41)]
    calls += [(8, 40), (8, 3), (3, 17), (8, 0), (2, 40), (2, 39), (5, 40), (5, 40)]
    for r, k in calls:
        assert beta_product_moment(r, k) == _beta_product_moment_factor_by_factor(r, k), (r, k)


def test_beta_product_moment_to_high_order_at_large_r():
    # law --r 30 --kmax 159 checks every order up to 159; one rebuilt product an order
    # took seconds there, the running product takes milliseconds
    for k in range(160):
        assert beta_product_moment(30, k) == limit_moment(30, k)


def test_beta_product_parameters_positive():
    for r in range(1, 8):
        for j in range(1, r + 1):
            assert j / (r + 1) > 0 and j / (r * (r + 1)) > 0


def test_beta_product_sampler_bounds_and_moments():
    rng = substream(2024, 0)
    edge1 = float(support_edge(1))
    s1 = beta_product_samples(1, 10**6, rng)
    assert s1.min() >= 0.0 and s1.max() <= edge1
    se = s1.std() / math.sqrt(len(s1))
    assert abs(s1.mean() - 1.0) < 4 * se

    s2 = beta_product_samples(2, 10**6, substream(2024, 1))
    sq = s2**2
    se2 = sq.std() / math.sqrt(len(sq))
    assert abs(sq.mean() - 5.0) < 4 * se2
    s3 = beta_product_samples(3, 1, substream(2024, 2))
    assert s3.shape == (1,) and 0.0 <= s3[0] <= float(support_edge(3))


def test_beta_product_monte_carlo_matches_exact_moments():
    # fourth of the four moment routes: MC within 4 s.e. for r<=4, k<=6
    n = 10**6
    for r in range(1, 5):
        s = beta_product_samples(r, n, substream(606, r))
        for k in range(1, 7):
            powered = s**k
            exact = float(limit_moment(r, k))
            se = powered.std() / math.sqrt(n)
            assert abs(powered.mean() - exact) < 4 * se, (r, k)


def test_beta_product_degenerates_to_square_case():
    # r=1 is U(0,4) * arcsine; its sample CDF must sit on the closed-form CDF
    rng = substream(7, 0)
    s = np.sort(beta_product_samples(1, 10**6, rng))
    n = len(s)
    ref = np.array([mp_cdf(float(x)) for x in s])
    upper = np.abs(np.arange(1, n + 1) / n - ref).max()
    lower = np.abs(np.arange(0, n) / n - ref).max()
    assert max(upper, lower) < 0.005


def test_grid_cdf_matches_sampler_at_higher_orders():
    # end-to-end: closed-form CDF grid vs the independent sampling route
    for r in (3, 4):
        s = beta_product_samples(r, 10**6, substream(909, r))
        ks = ks_distance(StepCDF(s), cdf_grid(r))
        assert ks < 0.005, (r, ks)


# -- contour moments --------------------------------------------------------


def test_contour_moment_examples():
    assert contour_moment(1, 2) == pytest.approx(2.0, abs=1e-8)
    assert contour_moment(2, 3) == pytest.approx(21.0, abs=1e-8)
    for r in range(1, 5):
        assert contour_moment(r, 0) == pytest.approx(1.0, abs=1e-12)


def test_contour_moment_large_orders():
    # on the unit circle these orders cancel from 2^((r+1)k) down to about L^k
    for r, k in ((8, 6), (12, 6), (20, 2), (20, 6), (50, 6), (200, 6), (1000, 3)):
        exact = float(limit_moment(r, k))
        assert contour_moment(r, k) == pytest.approx(exact, rel=1e-12), (r, k)


def test_moment_sums_past_the_float_range_name_their_order():
    # at r = 30 the exact m_160 is finite (it overflows at k = 163), but the contour rule's
    # 8,192 terms of modulus up to L^160 sum past the float range, and so do the grid's
    # nodes at k = 161: each raises OutsideDomainError naming k, with no numpy warning
    assert math.isfinite(contour_moment(30, 159))
    with pytest.raises(OutsideDomainError, match="contour moment k = 160 of the r = 30 law"):
        contour_moment(30, 160)
    grid = density_grid(30, n=40)
    assert math.isfinite(grid.moment(160))
    with pytest.raises(OutsideDomainError, match="grid moment k = 161 of the r = 30 law"):
        grid.moment(161)


def test_density_grid_takes_a_tolerance_up_to_the_float_max():
    # tol * max(1, |f|) overflows to inf, which no error exceeds
    assert density_grid(2, n=100, tol=1.7e308).x.size == 100


def test_contour_moment_imag_diagnostic(monkeypatch):
    # the rule's complex mean, whose imaginary part contour_moment drops, is real to rounding
    means, mean = [], np.mean
    monkeypatch.setattr(np, "mean", lambda *args, **kw: means.append(mean(*args, **kw)) or means[-1])
    for r, k in ((2, 4), (3, 5), (4, 6)):
        value = contour_moment(r, k)
        imag_residual = abs(means[-1].imag) / (k + 1)
        assert imag_residual < 1e-8 * max(1.0, value)


# -- triangular limit law -----------------------------------------------------


def test_dh_param_examples():
    x, f = dh_density_param(math.pi / 2)
    assert x == pytest.approx(2 / math.pi)
    assert f == pytest.approx(1 / math.pi)
    x_small, _ = dh_density_param(1e-6)
    assert x_small == pytest.approx(math.e, rel=1e-9)
    with pytest.raises(OutsideDomainError):
        dh_density_param(0.0)
    with pytest.raises(OutsideDomainError):
        dh_density_param(math.pi)


def test_dh_param_monotone():
    vs = np.linspace(1e-3, math.pi - 1e-3, 400)
    xs = np.array([dh_density_param(float(v))[0] for v in vs])
    assert np.all(np.diff(xs) < 0)


def test_dh_density_outside_support():
    assert dh_density(-0.1) == 0.0
    assert dh_density(math.e + 0.1) == 0.0


def test_dh_density_past_the_float_range_is_inf_without_warning():
    # at a subnormal x the true density (about 1.8e314 at 1e-320) exceeds the
    # float range; tier-1 turns a RuntimeWarning into an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = dh_density(np.array([1e-320, 1.0]))
        assert dh_density(1e-320) == math.inf and dh_density(5e-324) == math.inf
    assert got[0] == math.inf and got[1] == dh_density(1.0) and 0.0 < got[1] < 1.0
    assert math.isfinite(dh_density(1e-312))


def test_dh_first_moment_quadrature():
    val, _ = quad(lambda t: t * dh_density(t), 0, math.e, limit=300)
    assert val == pytest.approx(float(dh_moment(1)), abs=1e-6)


def test_dh_moments_via_parametrization():
    # mass element in the angle variable: (1 - sin(2v)/v + sin(v)^2/v^2)/pi dv
    def mass(v):
        return (1.0 - math.sin(2 * v) / v + (math.sin(v) / v) ** 2) / math.pi

    for k in range(4):
        val, _ = quad(lambda v: dh_density_param(v)[0] ** k * mass(v),
                      1e-12, math.pi - 1e-12, limit=200)
        assert val == pytest.approx(float(dh_moment(k)), abs=1e-6)


def test_dh_cdf_endpoints_and_monotone():
    assert dh_cdf(0.0) == 0.0
    assert dh_cdf(math.e) == 1.0
    assert dh_cdf(math.e - 1e-9) == pytest.approx(1.0, abs=1e-6)
    fs = dh_cdf(np.linspace(0.05, 2.6, 60))
    assert np.all(np.diff(fs) >= -1e-12)


def _dh_rel_err(xs):
    ref = np.array([triangular_density(float(x)) for x in xs])
    return float(np.max(np.abs(dh_density(xs) - ref) / ref))


def test_dh_density_at_histogram_midpoints_matches_oracle():
    # the triangular benchmark's 91 in-support midpoints of 96 bins over
    # [0, 1.05 e]; the bound is what a scalar per-point bisection reached there
    edges = np.linspace(0.0, 1.05 * math.e, 97)
    mids = 0.5 * (edges[:-1] + edges[1:])
    mids = mids[mids < math.e]
    assert mids.size == 91
    assert _dh_rel_err(mids) < 1.956e-15


def test_dh_density_near_soft_edge_matches_oracle():
    # the gap 1 - log x keeps full relative accuracy as x -> e
    xs = np.random.default_rng(20261018).uniform(2.5, math.e, 60)
    assert _dh_rel_err(xs) < 5e-15


def test_dh_array_call_equals_scalar_calls_bit_for_bit():
    xs = np.concatenate([np.linspace(-0.5, 3.0, 71),
                         [0.0, 1e-300, math.e, np.nextafter(math.e, 0.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dens, cdf = dh_density(xs), dh_cdf(xs)
    assert dens.shape == cdf.shape == xs.shape
    for x, f, big_f in zip(xs, dens, cdf):
        assert dh_density(float(x)) == f and dh_cdf(float(x)) == big_f, x
    assert isinstance(dh_density(1.0), float) and isinstance(dh_cdf(1.0), float)
    outside = np.array([-1.0, 0.0, math.e, 3.0])
    assert dh_density(outside).tolist() == [0.0] * 4
    assert dh_cdf(outside).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_dh_density_near_hard_edge_matches_oracle():
    # the hard piece solves w = pi - v, so sin v = sin w keeps full relative
    # accuracy as v -> pi; the spacing of v itself cost up to 8.4e-14 there
    assert _dh_rel_err(10.0 ** -np.arange(1.0, 272.0, 30.0)) < 2e-15


def _bisect_all_steps(increasing_fn, target, lo, hi, steps):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = increasing_fn(mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo, hi


def _dh_gap_both_branches(v, w):
    poly = np.polynomial.polynomial.polyval
    q = (v / math.pi) ** 2
    sin, cos = np.sin(np.minimum(v, w)), np.cos(v)
    small = v < 1.0
    series, slope = poly(q, limitlaw._GAP_COEFS)
    g = np.where(small, series, (1.0 - v * cos / sin) - np.log(sin / v))
    dg = np.where(small, slope * (2.0 * v / math.pi**2), 1.0 / v + v / sin**2 - 2.0 * cos / sin)
    return g, dg


def test_split_gap_is_bit_identical_to_both_branches(monkeypatch):
    # the gap evaluates each branch only where it is used; both branches
    # everywhere, with the tables rebuilt from them, give the same bytes
    rng = substream(31, 0)
    e_ulp = np.nextafter(math.e, 0.0)
    xs = np.concatenate([np.geomspace(1e-300, 1e-3, 40), rng.uniform(0.0, math.e, 200),
                         e_ulp - np.geomspace(4e-16, 1e-2, 40), [1.0, e_ulp]])
    vs = np.linspace(1e-3, 3.14, 301)

    def run():
        limitlaw._dh_pieces.cache_clear()
        return [dh_cdf(xs), dh_density(xs), dh_cdf(float(xs[50])), *limitlaw._dh_gap(vs, math.pi - vs)]

    got = run()
    monkeypatch.setattr(limitlaw, "_dh_gap", _dh_gap_both_branches)
    want = run()
    limitlaw._dh_pieces.cache_clear()
    assert [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in want]


def _staircase_points(r):
    """Every table node's abscissa and its two float neighbours, and the extreme points."""
    hard, soft, _, edge, _ = limitlaw._staircase_pieces(r)
    nodes = np.concatenate([np.exp(hard.ys), edge * np.exp(-np.exp(soft.ys))])
    xs = np.concatenate([nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, math.inf),
                         [1e-200 * edge, edge * (1.0 - 1e-15), np.nextafter(edge, 0.0)]])
    return xs[(xs > 0.0) & (xs < edge)]  # at large r the first nodes' x underflow


def _root_shift(r, t, s, log_x):
    """The bound of _law's error bar on the distance of t from the root of log x(t) = log_x."""
    sin = limitlaw._sines(r, t, s)
    a, b, c = sin
    rounding = 4.0 * limitlaw._EPS * ((r + 1) * (1.0 + np.abs(np.log(a / c))) + 2.0 + np.abs(log_x))
    shift = 2.0 * (np.abs(limitlaw._log_x(r, sin) - log_x) + rounding) / limitlaw._dlogx_dt(r, s, sin)
    return shift, np.abs(limitlaw._log_x(r, sin) - log_x) <= rounding


def _mp_soft_root(r, x):
    """s with x(1 - s) = x, by bisection in log s at 40 digits, and the density there."""
    with mpmath.workdps(40):
        target = mpmath.log(mpmath.mpf(x))

        def sines(s):
            return (mpmath.sin(mpmath.pi * s), mpmath.sin(mpmath.pi * s / (r + 1)),
                    mpmath.sin(mpmath.pi * r * s / (r + 1)))

        lo, hi = mpmath.log(mpmath.mpf(10) ** -20), mpmath.log(mpmath.mpf(1) / 3)
        for _ in range(140):
            mid = (lo + hi) / 2
            a, b, c = sines(mpmath.exp(mid))
            if (r + 1) * mpmath.log(a) - r * mpmath.log(c) - mpmath.log(b) > target:
                lo = mid  # x falls as s rises
            else:
                hi = mid
        s = mpmath.exp((lo + hi) / 2)
        a, _, c = sines(s)
        return float(s), float(c ** (r + 1) / (r * mpmath.pi * a**r))


@pytest.mark.parametrize("r", [1, 2, 5, 10, 100, 1000])
def test_angle_solve_converges_at_every_table_node(r):
    # Newton from the table start converges at every node, its float
    # neighbours and both extremes: the residual is at the rounding of log x,
    # and t lies within the two roots' bars of a 70-step bisection in log t
    # (a few ulp at small r; the rounding noise of log x grows with r)
    xs = _staircase_points(r)
    log_x = np.log(xs)
    t, s = limitlaw._angles(r, xs, log_x)
    with np.errstate(over="ignore"):  # at r = 1000 the density near 1e-306 is past the float range
        f, err, cdf = limitlaw._law(r, xs)
    assert np.all(np.isfinite(t) & np.isfinite(s) & np.isfinite(cdf) & ~np.isnan(f) & ~np.isnan(err))
    assert np.all((f >= 0.0) & (cdf >= 0.0) & (cdf <= 1.0))
    shift, at_rounding = _root_shift(r, t, s, log_x)
    assert np.all(at_rounding), xs[~at_rounding]
    lo, hi = _bisect_all_steps(lambda u: limitlaw._log_x(r, limitlaw._sines(r, np.exp(u), 1.0 - np.exp(u))),
                               log_x, np.full_like(log_x, -800.0), np.zeros_like(log_x), 70)
    t_bis = np.exp(0.5 * (lo + hi))
    far = s > 0.01
    shift_bis, _ = _root_shift(r, t_bis, 1.0 - t_bis, log_x)
    assert np.all(np.abs(t - t_bis)[far] <= (shift + shift_bis + 2.0 * np.spacing(t))[far])
    if r <= 10:  # over the hard piece's table
        table = (t >= 1.0 / 4096.0) & (t <= 0.75)
        assert np.max(np.abs(t - t_bis)[table] / np.spacing(t[table])) <= 16
    # near the soft edge s is exact to 1e-12 relative, and the density's error within its bar
    edge = float(support_edge(r))
    near = np.concatenate([edge * (1.0 - (np.arange(1, 33, 4) / 4096.0) ** 2 * 3.0),
                           [edge * (1.0 - 1e-15), np.nextafter(edge, 0.0)]])
    t, s = limitlaw._angles(r, near, np.log(near))
    f, err, _ = limitlaw._law(r, near)
    for x, s_i, f_i, err_i in zip(near, s, f, err):
        s_ref, f_ref = _mp_soft_root(r, float(x))
        assert abs(s_i - s_ref) <= 1e-12 * s_ref, (r, x, s_i, s_ref)
        assert abs(f_i - f_ref) <= err_i, (r, x, f_i, f_ref, err_i)


def test_soft_gap_at_or_past_the_float_edge_takes_the_edge_angle():
    # float L lies 1.03e-14 above L at r = 100, so x = float L has a gap <= 0
    edge = float(support_edge(100))
    assert Fraction(edge) > support_edge(100)
    t, s = limitlaw._angles(100, np.array([edge]), np.log([edge]))
    f, err, cdf = limitlaw._law(100, np.array([edge]))
    assert s[0] <= 2.0 * limitlaw._S_MIN and t[0] == 1.0 - s[0]
    assert np.isfinite(f[0]) and np.isfinite(err[0]) and 0.0 <= f[0] < 1e-14 and cdf[0] == 1.0


@pytest.mark.parametrize("r", [1, 2, 4, 10])
def test_soft_edge_bar_covers_the_error_from_the_gap_residual(r):
    # on the soft piece the bar comes from log G's residual and rounding, not from the
    # rounding of log x: it covers the error against a 40-digit root everywhere and against the
    # Meijer G oracle where that is cheap (every point at r <= 2; at r >= 4 it takes seconds to
    # a minute a point inside 1 - x/L = 1e-3), and it stays below 1e-12 of f, law-r4's last
    # grid points (1 - x/L ~ 5e-7) included
    edge = float(support_edge(r))
    gaps = np.array([1e-2, 1e-3, 1e-4, 5e-7] + [10.0 ** -k for k in range(6, 16)])
    xs = edge * (1.0 - gaps)
    assert np.all(np.log(xs) > limitlaw._staircase_pieces(r)[0].ys[-1])  # all on the soft piece
    f, err, _ = limitlaw._law(r, xs)
    for gap, x, f_i, err_i in zip(gaps, xs, f, err):
        _, f_ref = _mp_soft_root(r, float(x))
        assert abs(f_i - f_ref) <= err_i, (r, gap, f_i, f_ref, err_i)
        if gap >= 1e-2 or r <= 2:
            ref = limit_density(r, float(x))
            assert abs(f_i - ref) <= err_i, (r, gap, f_i, ref, err_i)
    assert np.all(err <= 1e-12 * f), (r, np.max(err / f))


def test_triangular_angle_solve_converges_at_every_table_node():
    soft, hard = limitlaw._dh_pieces()
    e_ulp = np.nextafter(math.e, 0.0)
    with np.errstate(under="ignore"):
        nodes = np.exp(1.0 - np.concatenate([np.exp(soft.ys), np.exp(-hard.ys)]))
    nodes = nodes[nodes > 0.0]
    xs = np.concatenate([nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, math.inf),
                         [math.e * (1.0 - 1e-15), e_ulp, 1e-300, 5e-324]])
    xs = xs[(xs > 0.0) & (xs < math.e)]
    v = limitlaw._dh_law(xs, lambda v, w, x: v, 0.0)
    w = limitlaw._dh_law(xs, lambda v, w, x: w, 0.0)
    assert np.all(np.isfinite(v) & np.isfinite(w) & (v > 0.0) & (w > 0.0))
    near_e = -np.log1p(((np.maximum(xs, 1.0) - math.e) - limitlaw._E_LO) / math.e)
    gap = np.where(xs > 1.0, near_e, 1.0 - np.log(xs))
    assert np.max(np.abs(limitlaw._dh_gap(v, w)[0] - gap) / gap) <= 16 * limitlaw._EPS
    lo, hi = _bisect_all_steps(lambda v: limitlaw._dh_gap(v, math.pi - v)[0], gap,
                               np.zeros_like(xs), np.full_like(xs, math.pi), 80)
    assert np.max(np.abs(v - 0.5 * (lo + hi)) / np.spacing(v)) <= 8
    f, cdf = dh_density(xs), dh_cdf(xs)
    assert np.all((f > 0.0) & (cdf >= 0.0) & (cdf <= 1.0))


def test_density_grid_matches_meijer_g_oracle_past_the_bisection_noise():
    # the soft piece solves the gap log(L/x), which does not cancel: the
    # bisection on log x had stopped 8-28 ulps of t from the root near L,
    # 2.28e-14, 5.63e-14 and 1.01e-13 from the oracle on these grids
    for r, n in ((2, 1024), (4, 768), (10, 768)):
        grid = density_grid(r, n)
        sel = (grid.x >= 1e-4 * grid.edge) & (grid.x <= 0.99 * grid.edge)
        ref = np.array([limit_density(r, float(x)) for x in grid.x[sel]])
        assert np.max(np.abs(grid.f[sel] - ref) / ref) <= 1.5e-14, r


# -- edge exponents ------------------------------------------------------------


def test_edge_exponents_square_case():
    grid = density_grid(1)
    assert edge_exponent_fit(grid, "lower") == pytest.approx(-0.5, abs=0.05)
    assert edge_exponent_fit(grid, "upper") == pytest.approx(0.5, abs=0.05)


def test_edge_exponents_order2():
    grid = density_grid(2)
    assert edge_exponent_fit(grid, "lower") == pytest.approx(-2 / 3, abs=0.05)
    assert edge_exponent_fit(grid, "upper") == pytest.approx(0.5, abs=0.05)


def test_hard_edge_fit_removes_subleading_bias():
    # the exact r=2 density: a plain log-log slope over the window reads -0.638
    grid = density_grid(2)
    exact = type(grid)(r=2, edge=grid.edge, x=grid.x,
                       f=np.array([density_r2(float(x)) for x in grid.x]), err=grid.err,
                       cdf_values=grid.cdf_values)
    assert edge_exponent_fit(exact, "lower") == pytest.approx(-2 / 3, abs=5e-3)
    assert edge_exponent_fit(density_grid(4), "lower") == pytest.approx(-0.8, abs=0.01)


def test_edge_fit_insufficient_points():
    grid = density_grid(1, n=16)
    small = type(grid)(r=1, edge=grid.edge, x=grid.x[:4], f=grid.f[:4], err=grid.err[:4],
                       cdf_values=grid.cdf_values[:14])
    with pytest.raises(InsufficientPointsError):
        edge_exponent_fit(small, "lower")


# -- Stieltjes inversion consistency (closed forms only) ----------------------


def _inversion_estimate(transform, x: float, eps1: float = 1e-3, eps2: float = 1e-4) -> float:
    v1 = -transform(complex(x, eps1)).imag / math.pi
    v2 = -transform(complex(x, eps2)).imag / math.pi
    return (eps1 * v2 - eps2 * v1) / (eps1 - eps2)


def test_inversion_recovers_square_density():
    for x in (0.5, 1.0, 2.0, 3.0):
        est = _inversion_estimate(stieltjes_mp, x)
        assert est == pytest.approx(density_mp(x), abs=1e-3)


def test_inversion_recovers_order2_density():
    # boundary transform built by quadrature against the parametric density,
    # inverted and compared with the independent closed form
    grid = density_grid(2, n=896)
    spline = CubicSpline(grid.x, grid.f)
    lo_x, hi_x = grid.x[0], grid.x[-1]
    edge = grid.edge

    def dens(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = (t >= lo_x) & (t <= hi_x)
        out[inside] = spline(t[inside])
        return out

    def transform(z):
        x, eps = z.real, z.imag
        fx = float(dens(np.array([x]))[0])
        ts = np.unique(np.concatenate([grid.x, x + eps * np.linspace(-60, 60, 4001)]))
        ts = ts[(ts > 0) & (ts < edge)]
        num = (dens(ts) - fx) / (z - ts)
        regular = np.trapezoid(num, ts)
        pole = fx * (cmath.log(z) - cmath.log(z - edge))
        return regular + pole

    for x in (2.0, 4.0):
        est = _inversion_estimate(transform, x)
        assert est == pytest.approx(density_r2(x), abs=1e-3)
