"""The limiting spectral law of block-shaped ensembles.

The law of order r is supported on [0, L] with L = (r+1)^(r+1)/r^r and
equals in distribution U(0, L) * prod_{j=1..r} Beta(j/(r+1), j/(r(r+1))).
Four independent evaluation routes live here and cross-validate each
other: exact rational moments of the Beta product, a truncated Stieltjes
series valid for |z| > L, the closed-form parametric density and CDF, and
Monte Carlo sampling of the product representation. The tests add a
second summation of the transform (a hypergeometric term recurrence) and
the square-case transform and CDF, kept beside them in
tests/_closed_forms.py.

Parametric density
------------------
The Stieltjes transform is algebraic: G(z) = (1 - B^-r)/r with
B^(r+1) - z B + z = 0. On the cut the root B is the apex of the triangle
(0, 1, B) whose angles are theta at 0, r theta at B and pi - (r+1) theta
at 1, so the law of sines gives |B| and |B - 1| with no solver. With
phi = pi/(r+1) - theta in (0, pi/(r+1)), the angle from the hard edge,
    x(phi) = sin((r+1)phi)^(r+1) / (sin theta sin(r theta)^r),
    f      = sin(r theta)^(r+1) / (r pi sin((r+1)phi)^r),
    F      = (r+1)phi/pi + sin((r+1)phi) sin(r theta) / (r pi sin theta),
and x sweeps (0, L) monotonically. Everything is evaluated in logs, so
large r cannot overflow, and each sine argument is reduced by its nearer
edge, so neither edge cancels. The angle of an abscissa is found by one
vectorised bisection on log x(phi) and a Newton polish, for a whole grid
at once (a single point is a batch of one, so both give the same bits);
the error bar is the a-posteriori root residual plus rounding, carried
into f. Moments are Gauss-Legendre sums in phi. The closed-form densities at
r = 1, 2 and the Meijer G-function form of the law are the independent
checks.

The triangular-matrix (Dykema-Haagerup) law on (0, e) is the r -> infinity
member of the family, the limit of x/r. dh_density and dh_cdf take a scalar
or an array and invert its angle with the same vectorised bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    InsufficientPointsError,
    InvalidOrderError,
    NoConvergenceError,
    OutsideDomainError,
    OutsideSupportError,
    ToleranceNotMetError,
)
from .spectra import GridCDF, sorted_unique

__all__ = [
    "support_edge",
    "stieltjes",
    "density",
    "density_with_error",
    "DensityGrid",
    "density_grid",
    "cdf_grid",
    "density_mp",
    "density_r2",
    "beta_product_moment",
    "beta_product_samples",
    "ContourMoment",
    "contour_moment",
    "dh_density",
    "dh_cdf",
    "edge_exponent_fit",
    "HARD_EDGE_WINDOW",
    "SOFT_EDGE_WINDOW",
]

# fit windows for the edge-exponent diagnostics, as fractions of L(r)
HARD_EDGE_WINDOW = (1e-5, 1e-2)
SOFT_EDGE_WINDOW = (1e-4, 1e-1)


def support_edge(r: int) -> Fraction:
    """Upper support edge L(r) = (r+1)^(r+1) / r^r, exactly."""
    if r < 1:
        raise InvalidOrderError(f"r = {r} < 1")
    # the power of a reduced Fraction is not reduced again, and the product takes
    # gcds only against r: no gcd of two integers of r log10 r digits is taken
    return Fraction(r + 1, r) ** (r + 1) * r


# -- the parametric law ----------------------------------------------------
#
# The working variable is t = (r+1) phi / pi in (0, 1) and s = 1 - t,
# which is exact for t >= 1/2. The angles (r+1)phi = pi t, theta =
# pi s/(r+1) and r theta are each reduced by their nearer end of [0, pi]
# before the sine is taken, so every sine keeps full relative accuracy at
# both edges. With a, b, c the sines of (r+1)phi, theta, r theta, the
# derivatives are written without differences of large terms, so nothing
# cancels at the soft edge, where a, b, c all vanish:
#   d log x/dt = pi/(r+1) * N / (a b c),  N = (c - r b)^2 + 4 r b c h^2,
#   d log f/dt = -pi r b / (a c),         h = sin((r+1)theta/2),
# and dF/dt = f x d log x/dt with f x = a c / (r pi b).

_EPS = float(np.finfo(float).eps)
_T_MAX = 1.0 - _EPS / 2.0  # largest float below 1, so s > 0
_BISECTIONS = 60
_NEWTON_STEPS = 3
_MOMENT_NODES = 64


def _sines(r: int, t: np.ndarray) -> np.ndarray:
    """Rows a, b, c = sin((r+1)phi), sin(theta), sin(r theta) at t."""
    s = 1.0 - t
    r_theta = np.where(r * s <= 0.5 * (r + 1), r * s, 1.0 + r * t)  # in units of pi/(r+1)
    return np.sin(np.pi * np.stack([np.minimum(t, s), s / (r + 1), r_theta / (r + 1)]))


def _log_x(r: int, sin: np.ndarray) -> np.ndarray:
    # both ratios stay O(1) at the soft edge
    return (r + 1) * np.log(sin[0] / sin[2]) + np.log(sin[2] / sin[1])


def _dlogx_dt(r: int, t: np.ndarray, sin: np.ndarray) -> np.ndarray:
    a, b, c = sin
    h = np.sin(0.5 * np.pi * (1.0 - t))
    return np.pi / (r + 1) * ((c - r * b) ** 2 + 4.0 * r * b * c * h * h) / (a * b * c)


def _bisect(increasing_fn, target: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            steps: int = _BISECTIONS) -> tuple[np.ndarray, np.ndarray]:
    """Brackets [lo, hi] of the roots of increasing_fn = target, halved ``steps`` times.

    A step that moves no bracket would repeat itself, so the loop stops there.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = increasing_fn(mid) < target
        new_lo, new_hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return lo, hi


def _invert(r: int, log_x: np.ndarray) -> np.ndarray:
    """t with log x(t) = log_x: bisection on the monotone log x, then Newton in log t."""
    lo, hi = _bisect(lambda t: _log_x(r, _sines(r, t)), log_x,
                     np.zeros_like(log_x), np.full_like(log_x, _T_MAX))
    t = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        sin = _sines(r, t)
        step = (log_x - _log_x(r, sin)) / (t * _dlogx_dt(r, t, sin))
        t = np.clip(t * np.exp(step), lo, hi)
    return t


def _law(r: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density, its absolute error bar and the CDF at every abscissa of x in (0, L).

    The error bar is a-posteriori: the root's log-residual plus a rounding
    bound of log x(t) moves t by at most twice their sum over d log x/dt
    (the factor 2 covers the curvature on the flank of the double root at
    the soft edge, while the shift stays below s), which moves log f by
    |d log f/dt| times that; the rounding of log f itself is added.
    """
    log_x = np.log(x)
    t = _invert(r, log_x)
    sin = _sines(r, t)
    a, b, c = sin
    log_ac = np.log(a / c)
    log_c = np.log(c)
    log_f = log_c - r * log_ac - math.log(r * math.pi)
    f = np.exp(log_f)
    cdf = t + a * c / (r * math.pi * b)

    round_x = 4.0 * _EPS * ((r + 1) * (1.0 + np.abs(log_ac)) + 2.0 + np.abs(log_x))
    round_f = 4.0 * _EPS * (r * (1.0 + np.abs(log_ac)) + 1.0 + np.abs(log_c) + np.abs(log_f))
    shift = 2.0 * (np.abs(_log_x(r, sin) - log_x) + round_x) / _dlogx_dt(r, t, sin)
    err = f * (np.pi * r * b / (a * c) * shift + round_f)
    return f, err, cdf


@lru_cache(maxsize=None)
def _mass_nodes(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes of t on (0, 1): log x there and the weighted mass dF.

    x^k dF/dt is smooth at both edges, so the rule converges geometrically.
    """
    xi, w = leggauss(_MOMENT_NODES)
    t = 0.5 * (1.0 + xi)
    sin = _sines(r, t)
    a, b, c = sin
    mass = 0.5 * w * a * c / (r * math.pi * b) * _dlogx_dt(r, t, sin)
    return _log_x(r, sin), mass


# -- density ---------------------------------------------------------------


def density_with_error(r: int, x):
    """Density of the order-r law at x (a scalar or an array) with an absolute error estimate.

    The same batched evaluation as density_grid: a scalar gives two floats,
    an array two arrays of its shape, equal bit for bit to scalar calls.
    A point outside (0, L) raises OutsideSupportError. Near the hard edge f
    grows like x^(-r/(r+1)); where f or its error bar exceeds the float
    range, OutsideDomainError is raised instead of returning inf.
    """
    edge = float(support_edge(r))
    xs = np.asarray(x, dtype=float)
    bad = np.flatnonzero(~((xs > 0.0) & (xs < edge)))
    if bad.size:
        raise OutsideSupportError(f"x = {xs.flat[bad[0]]} outside (0, {edge})")
    with np.errstate(over="ignore"):
        f, err, _ = _law(r, xs.reshape(-1))
    bad = np.flatnonzero(~(np.isfinite(f) & np.isfinite(err)))
    if bad.size:
        raise OutsideDomainError(
            f"density of order {r} at x = {xs.flat[bad[0]]} exceeds the float range")
    if xs.ndim == 0:
        return float(f[0]), float(err[0])
    return f.reshape(xs.shape), err.reshape(xs.shape)


def density(r: int, x: float, tol: float = 1e-6) -> float:
    """Density value with reported absolute error at most ``tol``."""
    f, err = density_with_error(r, x)
    if err > tol:
        raise ToleranceNotMetError(f"density error estimate {err:.3e} exceeds tol {tol:.1e}")
    return f


# -- closed forms ----------------------------------------------------------


def density_mp(x: float) -> float:
    """Square-case density sqrt((4-x)/x)/(2 pi) on [0, 4]."""
    if x <= 0.0 or x >= 4.0:
        return 0.0
    return math.sqrt((4.0 - x) / x) / (2.0 * math.pi)


def density_r2(w: float) -> float:
    """Closed-form density of the order-2 law on [0, 27/4]."""
    edge = 27.0 / 4.0
    if w <= 0.0 or w >= edge:
        return 0.0
    s = math.sqrt(edge - w)
    rt3 = math.sqrt(3.0)
    bracket = (rt3 + 2.0 * s) * (3.0 * rt3 - 2.0 * s) ** (1.0 / 3.0) \
        - (rt3 - 2.0 * s) * (3.0 * rt3 + 2.0 * s) ** (1.0 / 3.0)
    return bracket / (2.0 ** (10.0 / 3.0) * rt3 * math.pi * w ** (2.0 / 3.0))


# -- density grid ----------------------------------------------------------


def _cdf_knots(x: np.ndarray) -> np.ndarray:
    """The grid x preceded by the CDF's head extension x[0] * 10^(-5..-0.5)."""
    return np.concatenate([x[0] * 10.0 ** np.arange(-5.0, -0.4, 0.5), x])


@dataclass(frozen=True)
class DensityGrid:
    """Density samples on a graded grid over (0, L) with per-point errors; F at _cdf_knots(x)."""

    r: int
    edge: float
    x: np.ndarray
    f: np.ndarray
    err: np.ndarray
    cdf_values: np.ndarray

    def moment(self, k: int) -> float:
        """k-th moment of the law, a Gauss-Legendre sum in the edge angle."""
        log_x, mass = _mass_nodes(self.r)
        return float(np.sum(mass * np.exp(k * log_x)))

    def integral(self) -> float:
        return self.moment(0)

    def cdf(self) -> GridCDF:
        """Piecewise-linear interpolant of the law's CDF with knots 0, the CDF knots and L."""
        return GridCDF(np.concatenate([[0.0], _cdf_knots(self.x), [self.edge]]),
                       np.concatenate([[0.0], self.cdf_values, [1.0]]))


def density_grid(r: int, n: int = 768, tol: float | None = None) -> DensityGrid:
    """Sample the density on a graded grid (log head, linear middle, log tail).

    All CDF knots go through one batched evaluation, which gives f and F;
    with ``tol`` the first abscissa in grid order whose error exceeds
    tol * max(1, |f|) is named in the ToleranceNotMetError.
    """
    if n < 16:
        raise ValueError(f"grid size {n} < 16")
    edge = float(support_edge(r))
    n_head = int(0.45 * n)
    n_mid = int(0.35 * n)
    n_tail = n - n_head - n_mid
    head = edge * 10.0 ** np.linspace(-7.0, math.log10(0.2), n_head, endpoint=False)
    mid = np.linspace(0.2 * edge, 0.9 * edge, n_mid, endpoint=False)
    tail = edge - edge * 10.0 ** np.linspace(-1.0, -6.0, n_tail)
    xs = sorted_unique(np.concatenate([head, mid, tail]))
    fs, errs, cdf = _law(r, _cdf_knots(xs))
    fs, errs = fs[-xs.size:], errs[-xs.size:]
    if tol is not None:
        over = np.flatnonzero(errs > tol * np.maximum(1.0, np.abs(fs)))
        if over.size:
            i = over[0]
            raise ToleranceNotMetError(
                f"density error {errs[i]:.3e} at x={xs[i]:.6g} exceeds tol {tol:.1e}")
    return DensityGrid(r=r, edge=edge, x=xs, f=fs, err=errs, cdf_values=cdf)


def cdf_grid(r: int, grid_size: int = 1024) -> GridCDF:
    """Piecewise-linear CDF of the order-r law on [0, L(r)], from a grid held to tol 1e-3."""
    return density_grid(r, n=grid_size, tol=1e-3).cdf()


# -- Stieltjes transform ----------------------------------------------------

_MAX_TERMS = 500_000


def _moment_ratio(r: int, k: int) -> float:
    """m_{k+1}/m_k computed stably in floats."""
    num = 1.0
    for i in range(1, r + 2):
        num *= (r + 1.0) * k + i
    den = k + 2.0
    for i in range(1, r + 1):
        den *= r * k + i
    return num / den


def stieltjes(r: int, z: complex, tol: float = 1e-12) -> complex:
    """Moment series sum_k m_k z^(-k-1), truncated by its geometric tail bound.

    Converges only for |z| > L(r); points at or inside the circle, or
    within a relative 1e-9 of it, raise.
    """
    edge = float(support_edge(r))
    z = complex(z)
    if abs(z) <= edge * (1.0 + 1e-9):
        raise OutsideDomainError(f"|z| = {abs(z):.6g} not above L(r) = {edge:.6g}")
    qq = edge / abs(z)
    total = 0.0 + 0.0j
    term = 1.0 / z
    k = 0
    while k < _MAX_TERMS:
        total += term
        bound = abs(term) * qq / (1.0 - qq)
        if bound < tol:
            return total
        term = term * _moment_ratio(r, k) / z
        k += 1
    raise NoConvergenceError(f"series tail above {tol} after {_MAX_TERMS} terms")


# -- Beta-product representation -------------------------------------------


def beta_product_moment(r: int, k: int) -> Fraction:
    """Exact k-th moment of U(0, L) * prod Beta(j/(r+1), j/(r(r+1)))."""
    if k < 0:
        raise InvalidOrderError(f"order {k} < 0")
    val = support_edge(r) ** k / (k + 1)
    for j in range(1, r + 1):
        aj = Fraction(j, r + 1)
        cj = Fraction(j, r)  # = a_j + b_j
        for i in range(k):
            val *= (aj + i) / (cj + i)
    return val


def beta_product_samples(r: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws of U(0, L) times r Beta factors with the law's parameters."""
    out = rng.uniform(0.0, float(support_edge(r)), size=n)
    for j in range(1, r + 1):
        out *= rng.beta(j / (r + 1), j / (r * (r + 1)), size=n)
    return out


# -- contour (projection) moments -------------------------------------------


@dataclass(frozen=True)
class ContourMoment:
    value: float
    imag_residual: float


def contour_moment(r: int, k: int) -> ContourMoment:
    """m_k as the coefficient of z^k in (1+z)^((r+1)k) / (k+1).

    The coefficient integral is taken by the periodic trapezoid rule on the
    saddle circle |z| = 1/r, where the integrand's modulus peaks at L^k
    instead of 2^((r+1)k) on the unit circle, so no digits cancel. The
    integrand is a Laurent polynomial of degree (r+1)k, so one pass at the
    first power of two above that degree is exact up to rounding.
    """
    if r < 1 or k < 0:
        raise InvalidOrderError(f"bad orders r={r}, k={k}")
    n = 1 << ((r + 1) * k).bit_length()
    ph = np.exp(2j * np.pi * np.arange(n) / n) / r
    g = (ph ** (-1) * (1.0 + ph) ** (r + 1)) ** k
    val = complex(np.mean(g) / (k + 1))
    return ContourMoment(value=val.real, imag_residual=abs(val.imag))


# -- triangular-limit (staircase) law ----------------------------------------
#
# The r -> infinity member of the family above: with t = 1 - v/pi, x/r, f and
# F tend to (sin v / v) exp(v cot v), sin(v)^2 / (pi v x) and t + sin(v)^2 /
# (pi v) for v in (0, pi). An abscissa's angle is bisected on the gap
# g = 1 - log x, rising from 0 at v = 0, with full relative accuracy on both
# sides: from x through log1p near e; from v as (1 - v cot v) - log(sin v / v)
# above v = 1 and below as sum_{n>=1} (2n+1)/n zeta(2n) (v/pi)^(2n), all of
# whose terms are positive (coefficients n = 1..17; the tail is < 1e-17 g).
_GAP_SERIES = (
    0.0, 4.934802200544679, 2.7058080842778454, 2.3738004779637145, 2.259174051445375,
    2.2021880652811996, 2.167199854198834, 2.14298838886084, 2.1250324748012432, 2.1111191698413374,
    2.100002003320271, 2.090909589487415, 2.0833334575170603, 2.07692310787246, 2.071428579145335,
    2.06666666859141, 2.0625000004802145, 2.058823529531604)
_E_LO = 1.4456468917292502e-16  # e - math.e
# halvings of (0, pi) to below one ulp of v = 2e-8, the angle of the largest float below e
_DH_BISECTIONS = 80


def _dh_gap(v: np.ndarray) -> np.ndarray:
    """g(v) = 1 - log x(v) for v in (0, pi)."""
    small, out = v < 1.0, np.empty_like(v)
    out[small] = np.polynomial.polynomial.polyval((v[small] / math.pi) ** 2, _GAP_SERIES)
    w = v[~small]
    out[~small] = (1.0 - w / np.tan(w)) - np.log(np.sin(w) / w)
    return out


def _dh_law(x, law, above: float):
    """law(v, x) at the angle v of every x in (0, e); 0 at x <= 0 and ``above`` at x >= e.

    A scalar x gives a float, an array an array of its shape.
    """
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < math.e)
    out = np.where(x >= math.e, above, 0.0)
    xi = x[inside]
    # x - math.e is exact above 1
    near_e = -np.log1p(((np.maximum(xi, 1.0) - math.e) - _E_LO) / math.e)
    gap = np.where(xi > 1.0, near_e, 1.0 - np.log(xi))
    lo, hi = _bisect(_dh_gap, gap, np.zeros_like(xi), np.full_like(xi, math.pi), _DH_BISECTIONS)
    out[inside] = law(0.5 * (lo + hi), xi)
    return out if out.ndim else float(out)


def dh_density(x):
    """Triangular-limit density at x (a scalar or an array), zero outside (0, e)."""
    return _dh_law(x, lambda v, x: np.sin(v) ** 2 / (math.pi * v * x), 0.0)


def dh_cdf(x):
    """CDF of the triangular limit law at x (a scalar or an array).

    In the angle variable the mass element is
    (1 - sin(2v)/v + sin(v)^2/v^2) / pi = d(v - sin(v)^2/v) / pi, and
    x(v) falls as v rises, so F(x(v)) = integral over (v, pi) of it,
    which is 1 - v/pi + sin(v)^2/(pi v).
    """
    return _dh_law(x, lambda v, x: 1.0 - v / math.pi + np.sin(v) ** 2 / (math.pi * v), 1.0)


# -- edge exponents ----------------------------------------------------------


def edge_exponent_fit(grid: DensityGrid, edge: str) -> float:
    """Fitted exponent of the density at a support edge.

    edge "lower": near 0 the law has f = x^a G(x^s) with s = 1/(r+1) and
    G a power series, G(0) > 0; log f is regressed on
    [log x, 1, x^s, x^(2s)] by linear least squares over distances
    x in [1e-5, 1e-2] * L, and the coefficient of log x is returned.
    Against -r/(r+1) this is within 2e-3 for r <= 3, 5e-3 at r = 4 and
    about 0.03 at r = 10; a plain log-log slope over the same window
    is biased by the x^s term (-0.689 at r = 3).
    edge "upper": least-squares slope of log f against log(L - x) over
    distances L - x in [1e-4, 1e-1] * L, where the next term is a whole
    power of L - x.
    """
    if edge == "lower":
        lo, hi = HARD_EDGE_WINDOW
        dist = grid.x
    elif edge == "upper":
        lo, hi = SOFT_EDGE_WINDOW
        dist = grid.edge - grid.x
    else:
        raise ValueError(f"edge must be 'lower' or 'upper', got {edge!r}")
    sel = (dist >= lo * grid.edge) & (dist <= hi * grid.edge) & (grid.f > 0)
    if int(np.sum(sel)) < 8:
        raise InsufficientPointsError(f"only {int(np.sum(sel))} grid points in the fit window")
    if edge == "upper":
        return float(np.polyfit(np.log(dist[sel]), np.log(grid.f[sel]), 1)[0])
    t = dist[sel] / grid.edge
    s = 1.0 / (grid.r + 1.0)
    design = np.column_stack([np.log(t), np.ones_like(t), t**s, t ** (2.0 * s)])
    return float(np.linalg.lstsq(design, np.log(grid.f[sel]), rcond=None)[0][0])
