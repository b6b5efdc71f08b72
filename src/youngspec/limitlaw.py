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
edge, so neither edge cancels. The angle of an abscissa is bracketed in a
table cached per order, started by interpolation and finished by a fixed
number of Newton steps, on log x(phi) towards the hard edge and on the
soft-edge gap log(L/x), which does not cancel, towards the soft one; every
step is elementwise, so a single point and a grid point get the same bits.
The error bar is the a-posteriori root residual plus rounding, carried
into f. Moments are Gauss-Legendre sums in phi. The closed-form densities at
r = 1, 2 and the Meijer G-function form of the law are the independent
checks.

The triangular-matrix (Dykema-Haagerup) law on (0, e) is the r -> infinity
member of the family, the limit of x/r. dh_density and dh_cdf take a scalar
or an array and find its angle with the same table-and-Newton solve.
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
from .spectra import GridCDF

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
_S_MIN = _EPS / 2.0  # s at the largest float t below 1: the edge angle
_TABLE_NODES = 4096  # the angle tables' spacing is 1/_TABLE_NODES of the angle's range
_NEWTON_STEPS = 3
_MOMENT_NODES = 64


def _sines(r: int, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows a, b, c = sin((r+1)phi), sin(theta), sin(r theta) at t, with s = 1 - t."""
    r_theta = np.where(r * s <= 0.5 * (r + 1), r * s, 1.0 + r * t)  # in units of pi/(r+1)
    return np.sin(np.pi * np.stack([np.minimum(t, s), s / (r + 1), r_theta / (r + 1)]))


def _log_x(r: int, sin: np.ndarray) -> np.ndarray:
    # both ratios stay O(1) at the soft edge
    return (r + 1) * np.log(sin[0] / sin[2]) + np.log(sin[2] / sin[1])


def _dlogx_dt(r: int, s: np.ndarray, sin: np.ndarray) -> np.ndarray:
    a, b, c = sin
    h = np.sin(0.5 * np.pi * s)
    return np.pi / (r + 1) * ((c - r * b) ** 2 + 4.0 * r * b * c * h * h) / (a * b * c)


# -- the angle solve ---------------------------------------------------------
#
# Both laws find an abscissa's angle the same way. The angle range is split
# at one node into two pieces, each reaching one edge of the law. On each, u
# is the log of the angle's distance from that edge and y an increasing
# function of u that is close to linear there: y ~ slope * u + intercept. A piece is
# tabulated once at the angles k/_TABLE_NODES of the range; a target y is
# bracketed by searchsorted, started by linear interpolation in its bracket
# (by the edge asymptote before the first node) and moved by _NEWTON_STEPS
# Newton steps, each clipped to the bracket. Every operation is elementwise,
# so an array call equals scalar calls bit for bit.


@dataclass(frozen=True)
class _Piece:
    us: np.ndarray  # log distances of the table's angles from the edge, increasing
    ys: np.ndarray  # y there
    slope: float
    intercept: float
    floor: float  # the least u a root may take


def _start(piece: _Piece, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first u of each target y and its bracket [lo, hi]."""
    k = np.searchsorted(piece.ys, y)
    past = k == 0
    j = np.clip(k, 1, piece.ys.size - 1)
    u0, y0 = piece.us[j - 1], piece.ys[j - 1]
    u = np.where(past, (y - piece.intercept) / piece.slope,
                 u0 + (piece.us[j] - u0) * (y - y0) / (piece.ys[j] - y0))
    lo, hi = np.where(past, piece.floor, u0), np.where(past, u0, piece.us[j])
    return np.clip(u, lo, hi), lo, hi


def _solve(piece: _Piece, y: np.ndarray, value) -> np.ndarray:
    """u with y(u) = y for each target; ``value(u)`` returns y(u) and dy/du."""
    if not y.size:
        return y
    u, lo, hi = _start(piece, y)
    for _ in range(_NEWTON_STEPS):
        at, slope = value(u)
        u = np.clip(u - (at - y) / slope, lo, hi)
    return u


def _table_angles(count: int) -> np.ndarray:
    """The first ``count`` table angles from an edge, k/_TABLE_NODES for k = 1..count."""
    return np.arange(1, count + 1) / _TABLE_NODES


# -- the staircase law's two pieces ------------------------------------------
#
# The hard piece, t <= 3/4, solves log x(t) in u = log t, with the power rule
# log x ~ (r+1) log t + (r+1) log(pi / sin(pi/(r+1))) at t -> 0. The soft
# piece, s <= 1/4, solves the soft-edge gap without cancellation:
#   G(s) = log(L/x) = sum_n (zeta(2n)/n) c_n s^(2n),
#   c_n = (r+1) - (1 + r^(2n+1))/(r+1)^(2n) > 0, c_1 = 3r/(r+1),
# as log G = 2 log s + log P(s^2) in u = log s, P's coefficients g_n being
# the series'. It keeps s to full relative accuracy where t = 1 - s rounds.


# (2n+1)/n zeta(2n) for n = 0..17; past n = 17 the tail is below 1e-17 of the sum at s <= 1/4
_GAP_SERIES = (
    0.0, 4.934802200544679, 2.7058080842778454, 2.3738004779637145, 2.259174051445375,
    2.2021880652811996, 2.167199854198834, 2.14298838886084, 2.1250324748012432, 2.1111191698413374,
    2.100002003320271, 2.090909589487415, 2.0833334575170603, 2.07692310787246, 2.071428579145335,
    2.06666666859141, 2.0625000004802145, 2.058823529531604)


@lru_cache(maxsize=None)
def _staircase_pieces(r: int) -> tuple[_Piece, _Piece, np.ndarray, float, float]:
    """The hard and soft pieces at order r, the columns g_n and n g_n (n = 1..17) of P and
    its derivative, and L = L_hi + L_lo."""
    # zeta(2n)/n = _GAP_SERIES[n]/(2n+1); c_n is exact as a Fraction and rounded once
    gaps = np.array([_GAP_SERIES[n] / (2 * n + 1)
                     * float(r + 1 - Fraction(1 + r ** (2 * n + 1), (r + 1) ** (2 * n)))
                     for n in range(1, len(_GAP_SERIES))])
    coefs = np.column_stack([gaps, np.arange(1, gaps.size + 1) * gaps])
    t = _table_angles(3 * _TABLE_NODES // 4)
    hard = _Piece(np.log(t), _log_x(r, _sines(r, t, 1.0 - t)), r + 1.0,
                  (r + 1) * math.log(math.pi / math.sin(math.pi / (r + 1))), -math.inf)
    s = _table_angles(_TABLE_NODES // 4)
    soft = _Piece(np.log(s), _soft_gap(coefs, np.log(s))[0], 2.0, math.log(gaps[0]),
                  math.log(_S_MIN))
    edge = support_edge(r)
    edge_hi = float(edge)
    return hard, soft, coefs, edge_hi, float(edge - Fraction(edge_hi))


def _soft_gap(coefs: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log G at s = e^u and its derivative in u."""
    p, dp = np.polynomial.polynomial.polyval(np.exp(2.0 * u), coefs)
    return 2.0 * u + np.log(p), 2.0 * dp / p


def _log_gap(x: np.ndarray, edge_hi: float, edge_lo: float) -> np.ndarray:
    """log G, the log of the soft-edge gap log(L/x), that x's angle solves for.

    x - edge_hi is exact near the edge; an x in [L, float L) has gap <= 0 and takes the edge.
    """
    gap = -np.log1p(((x - edge_hi) - edge_lo) / edge_hi)
    return np.log(np.maximum(gap, np.finfo(float).tiny))


def _angles(r: int, x: np.ndarray, log_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t and s = 1 - t with x(t) = x, each exact on its side of t = 3/4."""
    hard, soft, coefs, edge_hi, edge_lo = _staircase_pieces(r)
    on_soft = log_x > hard.ys[-1]
    t, s = np.empty_like(x), np.empty_like(x)

    def hard_value(u):
        t = np.exp(u)
        s = 1.0 - t
        sin = _sines(r, t, s)
        return _log_x(r, sin), t * _dlogx_dt(r, s, sin)

    t_hard = np.exp(_solve(hard, log_x[~on_soft], hard_value))
    t[~on_soft], s[~on_soft] = t_hard, 1.0 - t_hard
    s_soft = np.exp(_solve(soft, _log_gap(x[on_soft], edge_hi, edge_lo), lambda u: _soft_gap(coefs, u)))
    t[on_soft], s[on_soft] = 1.0 - s_soft, s_soft
    return t, s


def _law(r: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density, its absolute error bar and the CDF at every abscissa of x in (0, L).

    The error bar is a-posteriori: the root's log-residual plus a rounding
    bound of log x(t) moves t by at most twice their sum over d log x/dt
    (the factor 2 covers the curvature on the flank of the double root at
    the soft edge, while the shift stays below s), which moves log f by
    |d log f/dt| times that; the rounding of log f itself is added. The soft
    piece, which solves log G and never evaluates log x, takes the residual
    of log G at u = log s plus the rounding of the target and of log G, over
    d log G/du: that moves u by du, and s by s(e^du - 1) <= 2 s du.
    """
    log_x = np.log(x)
    t, s = _angles(r, x, log_x)
    sin = _sines(r, t, s)
    a, b, c = sin
    log_ac = np.log(a / c)
    log_c = np.log(c)
    log_f = log_c - r * log_ac - math.log(r * math.pi)
    f = np.exp(log_f)
    cdf = t + a * c / (r * math.pi * b)

    round_x = 4.0 * _EPS * ((r + 1) * (1.0 + np.abs(log_ac)) + 2.0 + np.abs(log_x))
    round_f = 4.0 * _EPS * (r * (1.0 + np.abs(log_ac)) + 1.0 + np.abs(log_c) + np.abs(log_f))
    shift = 2.0 * (np.abs(_log_x(r, sin) - log_x) + round_x) / _dlogx_dt(r, s, sin)
    hard, _, coefs, edge_hi, edge_lo = _staircase_pieces(r)
    soft = log_x > hard.ys[-1]
    target, u = _log_gap(x[soft], edge_hi, edge_lo), np.log(s[soft])
    log_g, slope = _soft_gap(coefs, u)
    # a few ulp of the target's log1p and log, of u = log s, exp(2u), P and its coefficients
    round_g = 4.0 * _EPS * (4.0 + 2.0 * np.abs(target) + 2.0 * np.abs(u))
    shift[soft] = 2.0 * s[soft] * (np.abs(log_g - target) + round_g) / slope
    err = f * (np.pi * r * b / (a * c) * shift + round_f)
    return f, err, cdf


@lru_cache(maxsize=None)
def _mass_nodes(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes of t on (0, 1): log x there and the weighted mass dF.

    x^k dF/dt is smooth at both edges, so the rule converges geometrically.
    """
    xi, w = leggauss(_MOMENT_NODES)
    t = 0.5 * (1.0 + xi)
    s = 1.0 - t
    sin = _sines(r, t, s)
    a, b, c = sin
    mass = 0.5 * w * a * c / (r * math.pi * b) * _dlogx_dt(r, s, sin)
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
        """k-th moment of the law, a Gauss-Legendre sum in the edge angle; OutsideDomainError
        names k where the sum leaves the float range."""
        log_x, mass = _mass_nodes(self.r)
        with np.errstate(over="ignore"):
            value = float(np.sum(mass * np.exp(k * log_x)))
        if not math.isfinite(value):
            raise OutsideDomainError(f"grid moment k = {k} of the r = {self.r} law exceeds the "
                                     "float range")
        return value

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
    xs = np.concatenate([head, mid, tail])  # strictly increasing
    fs, errs, cdf = _law(r, _cdf_knots(xs))
    fs, errs = fs[-xs.size:], errs[-xs.size:]
    if tol is not None:
        with np.errstate(over="ignore"):  # a bound past the float range is inf, which no error exceeds
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


# (r, k, prod_j prod_{i<k} (a_j + i)/(c_j + i)) of the last beta_product_moment call: a
# memo of exact values, so no call's result depends on the calls before it
_beta_run = (1, 0, Fraction(1))


def beta_product_moment(r: int, k: int) -> Fraction:
    """Exact k-th moment of U(0, L) * prod Beta(j/(r+1), j/(r(r+1))).

    E[Beta(a, b)^k] = prod_{i<k} (a + i)/(a + b + i). The product over the
    r factors is carried on from the last call's order when r is the same
    and k no lower, so ascending orders cost r integer products each.
    """
    global _beta_run
    if k < 0:
        raise InvalidOrderError(f"order {k} < 0")
    run_r, done, prod = _beta_run
    if run_r != r or done > k:
        done, prod = 0, Fraction(1)
    for i in range(done, k):
        num = den = 1
        for j in range(1, r + 1):  # a_j + i = (j + (r+1) i)/(r+1), c_j + i = (j + r i)/r
            num *= j + (r + 1) * i
            den *= j + r * i
        prod *= Fraction(num * r**r, den * (r + 1) ** r)
    _beta_run = (r, k, prod)
    return support_edge(r) ** k / (k + 1) * prod


def beta_product_samples(r: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws of U(0, L) times r Beta factors with the law's parameters."""
    out = rng.uniform(0.0, float(support_edge(r)), size=n)
    for j in range(1, r + 1):
        out *= rng.beta(j / (r + 1), j / (r * (r + 1)), size=n)
    return out


# -- contour (projection) moments -------------------------------------------


def contour_moment(r: int, k: int) -> float:
    """m_k as the coefficient of z^k in (1+z)^((r+1)k) / (k+1).

    The coefficient integral is taken by the periodic trapezoid rule on the
    saddle circle |z| = 1/r, where the integrand's modulus peaks at L^k
    instead of 2^((r+1)k) on the unit circle, so no digits cancel. The
    integrand is a Laurent polynomial of degree (r+1)k, so one pass at the
    first power of two above that degree is exact up to rounding. A sum of
    its terms past the float range raises OutsideDomainError naming k.
    """
    if r < 1 or k < 0:
        raise InvalidOrderError(f"bad orders r={r}, k={k}")
    n = 1 << ((r + 1) * k).bit_length()
    ph = np.exp(2j * np.pi * np.arange(n) / n) / r
    with np.errstate(over="ignore", invalid="ignore"):
        g = (ph ** (-1) * (1.0 + ph) ** (r + 1)) ** k
        val = complex(np.mean(g) / (k + 1))
    if not np.isfinite(val):
        raise OutsideDomainError(f"contour moment k = {k} of the r = {r} law exceeds the float range")
    return val.real


# -- triangular-limit (staircase) law ----------------------------------------
#
# The r -> infinity member of the family above: with t = 1 - v/pi, x/r, f and
# F tend to (sin v / v) exp(v cot v), sin(v)^2 / (pi v x) and t + sin(v)^2 /
# (pi v) for v in (0, pi). An abscissa's angle solves the gap g = 1 - log x,
# rising from 0 at v = 0, with full relative accuracy on both sides: from x
# through log1p near e; from v as (1 - v cot v) - log(sin v / v) above v = 1
# and below as sum_{n>=1} (2n+1)/n zeta(2n) (v/pi)^(2n) (_GAP_SERIES), all of
# whose terms are positive. The soft piece, v <= pi/2, solves log g in log v;
# the hard piece solves -log g in log w, w = pi - v, which keeps sin v = sin w
# and t = w/pi exact as v -> pi; there g ~ pi/w.
_E_LO = 1.4456468917292502e-16  # e - math.e
# the columns of g and of (dg/dv)(pi^2/2v), both in powers of (v/pi)^2
_GAP_COEFS = np.column_stack([_GAP_SERIES, np.arange(1, len(_GAP_SERIES) + 1)
                              * np.append(_GAP_SERIES[1:], 0.0)])


def _dh_gap(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g(v) = 1 - log x(v) and dg/dv for v in (0, pi), with w = pi - v exact above pi/2."""
    small, g, dg = v < 1.0, np.empty_like(v), np.empty_like(v)
    vs = v[small]
    q = (vs / math.pi) ** 2
    g[small], dg[small] = np.polynomial.polynomial.polyval(q, _GAP_COEFS)
    dg[small] *= 2.0 * vs / math.pi**2
    vb = v[~small]
    sin = np.sin(np.minimum(vb, w[~small]))
    cos = np.cos(vb)
    g[~small] = (1.0 - vb * cos / sin) - np.log(sin / vb)
    dg[~small] = 1.0 / vb + vb / sin**2 - 2.0 * cos / sin
    return g, dg


def _dh_soft_value(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = np.exp(u)
    g, dg = _dh_gap(v, math.pi - v)
    return np.log(g), v * dg / g


def _dh_hard_value(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = np.exp(u)
    g, dg = _dh_gap(math.pi - w, w)
    return -np.log(g), w * dg / g


@lru_cache(maxsize=None)
def _dh_pieces() -> tuple[_Piece, _Piece]:
    """The soft piece in v and the hard piece in w, each over (0, pi/2]."""
    u = np.log(math.pi * _table_angles(_TABLE_NODES // 2))
    # g ~ v^2/2 as v -> 0 and g ~ pi/w as w -> 0
    soft = _Piece(u, _dh_soft_value(u)[0], 2.0, -math.log(2.0), -math.inf)
    hard = _Piece(u, _dh_hard_value(u)[0], 1.0, -math.log(math.pi), -math.inf)
    return soft, hard


def _dh_law(x, law, above: float):
    """law(v, w, x) at the angles v and w = pi - v of every x in (0, e); 0 at x <= 0 and
    ``above`` at x >= e.

    A scalar x gives a float, an array an array of its shape.
    """
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < math.e)
    out = np.where(x >= math.e, above, 0.0)
    xi = x[inside]
    # x - math.e is exact above 1
    log_gap = np.log(np.where(xi > 1.0, -np.log1p(((np.maximum(xi, 1.0) - math.e) - _E_LO) / math.e),
                              1.0 - np.log(xi)))
    soft, hard = _dh_pieces()
    on_hard = log_gap > soft.ys[-1]
    v_soft = np.exp(_solve(soft, log_gap[~on_hard], _dh_soft_value))
    w_hard = np.exp(_solve(hard, -log_gap[on_hard], _dh_hard_value))
    v, w = np.empty_like(xi), np.empty_like(xi)
    v[~on_hard], w[~on_hard] = v_soft, math.pi - v_soft
    v[on_hard], w[on_hard] = math.pi - w_hard, w_hard
    out[inside] = law(v, w, xi)
    return out if out.ndim else float(out)


def dh_density(x):
    """Triangular-limit density at x (a scalar or an array), zero outside (0, e).

    Below x of about 1.08e-314 the density is past the float range and reads inf.
    """
    with np.errstate(over="ignore"):
        return _dh_law(x, lambda v, w, x: np.sin(np.minimum(v, w)) ** 2 / (math.pi * v * x), 0.0)


def dh_cdf(x):
    """CDF of the triangular limit law at x (a scalar or an array).

    In the angle variable the mass element is
    (1 - sin(2v)/v + sin(v)^2/v^2) / pi = d(v - sin(v)^2/v) / pi, and
    x(v) falls as v rises, so F(x(v)) = integral over (v, pi) of it,
    which is w/pi + sin(v)^2/(pi v) with w = pi - v.
    """
    return _dh_law(x, lambda v, w, x: w / math.pi + np.sin(np.minimum(v, w)) ** 2 / (math.pi * v),
                   1.0)


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
