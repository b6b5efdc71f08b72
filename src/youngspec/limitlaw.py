"""The limiting spectral law of block-shaped ensembles.

The law of order r is supported on [0, L] with L = (r+1)^(r+1)/r^r and
equals in distribution U(0, L) * prod_{j=1..r} Beta(j/(r+1), j/(r(r+1))).
Four independent evaluation routes live here and cross-validate each
other: exact rational moments of the Beta product, a truncated Stieltjes
series valid for |z| > L, the density as an iterated multiplicative
convolution of the factor densities, and Monte Carlo sampling of the
product representation.

Density machinery
-----------------
Writing P for the Beta product and t = x/L, the density is
    f(x) = const * h_r(t),   h_m(t) = E[ 1{B_1..B_m >= t} / (B_1..B_m) ]
up to normalization, and h_m satisfies the one-dimensional recursion
    h_m(t) = integral_t^1 B^(a_m - 2) (1-B)^(b_m - 1) h_{m-1}(t/B) dB.
Every level is a univariate function with known endpoint exponents:
h_m(t) ~ t^(a_1 - 1) at 0 and ~ (1-t)^(sigma_m) at 1, sigma_m = sum of
the first m Beta tail exponents. Each integral is evaluated piecewise
with Gauss-Jacobi rules that absorb the endpoint power laws exactly,
bridged by dyadic Gauss-Legendre panels, for a whole array of points at
once: one numpy pass per panel over a (points x nodes) array. The inner
levels 1..r-1 are tabulated once per order, each as one spline in the
logit log u - log(1-u) with the endpoint powers factored out, all nodes
of a level in one batched call; the error of the tables is validated
off-node against finer quadrature, and a level that overflows raises
NoConvergenceError. The density is the outer integral over the last
tabulated level, batched over every abscissa of a grid (a single point
is a batch of one, so both give the same bits); the closed forms at
r = 1, 2 and the Meijer G-function form of the law are the independent
checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import roots_jacobi, roots_legendre

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
    "LimitLaw",
    "support_edge",
    "stieltjes",
    "stieltjes_hyp",
    "stieltjes_mp",
    "density",
    "density_with_error",
    "DensityGrid",
    "density_grid",
    "cdf_grid",
    "density_mp",
    "mp_cdf",
    "density_r2",
    "beta_product_moment",
    "beta_product_sample",
    "beta_product_samples",
    "ContourMoment",
    "contour_moment",
    "dh_density_param",
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
    return Fraction((r + 1) ** (r + 1), r**r)


@dataclass(frozen=True)
class LimitLaw:
    """Order parameter and support edge of the limiting law."""

    r: int
    edge_exact: Fraction
    edge: float

    @classmethod
    def for_order(cls, r: int) -> "LimitLaw":
        ex = support_edge(r)
        return cls(r=r, edge_exact=ex, edge=float(ex))


# -- shared per-order parameters -----------------------------------------


@dataclass(frozen=True)
class _Params:
    r: int
    edge: float
    a: tuple[float, ...]      # Beta first parameters j/(r+1)
    b: tuple[float, ...]      # Beta second parameters j/(r(r+1))
    sigma: tuple[float, ...]  # cumulative sums of b, sigma[m] for m = 0..r
    norm: float               # 1 / (L * prod Beta(a_j, b_j))


@lru_cache(maxsize=None)
def _params(r: int) -> _Params:
    if r < 1:
        raise InvalidOrderError(f"r = {r} < 1")
    a = tuple(j / (r + 1) for j in range(1, r + 1))
    b = tuple(j / (r * (r + 1)) for j in range(1, r + 1))
    sigma = [0.0]
    for bj in b:
        sigma.append(sigma[-1] + bj)
    log_norm = -math.log(float(support_edge(r)))
    for aj, bj in zip(a, b):
        log_norm -= math.lgamma(aj) + math.lgamma(bj) - math.lgamma(aj + bj)
    return _Params(r=r, edge=float(support_edge(r)), a=a, b=b,
                   sigma=tuple(sigma), norm=math.exp(log_norm))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    return roots_legendre(n)


@lru_cache(maxsize=None)
def _gauss_jacobi(n: int, alpha: float, beta: float):
    if alpha == 0.0 and beta == 0.0:
        return roots_legendre(n)
    return roots_jacobi(n, alpha, beta)


# -- the one-dimensional masked Beta integral ------------------------------
#
# _h_values computes  integral_ell^1  B^p (1-B)^q g(ell/B) dB  at every
# point of the arrays ell, oml, where g is the previous level. Work in the
# offset o = B - ell in [0, oml], oml = 1 - ell, so both endpoint
# distances stay exact in floating point:
#   * o near 0:  g(ell/B) has a (1 - ell/B)^sigma = (o/B)^sigma corner,
#     absorbed by a Gauss-Jacobi rule with left weight o^sigma on
#     [0, delta], delta = min(ell, oml/2);
#   * in between: plain Gauss-Legendre panels whose right ends double from
#     delta up to oml/2, then one panel up to 7/8 oml;
#   * o near oml: the (1-B)^q = (oml-o)^q endpoint, absorbed by a
#     Gauss-Jacobi rule with right weight on [7/8 oml, oml].
# Each panel is one (points x n) array pass; the doubling loop runs over
# the panel index and takes only the points still below oml/2, so the
# memory held at once is one panel, not the whole panel set. Rows are
# reduced with numpy sums, not BLAS, so the result of a point does not
# depend on the batch it is evaluated in or on the BLAS thread count.


def _h_values(ell: np.ndarray, oml: np.ndarray, p: float, q: float, prev,
              n: int) -> np.ndarray:
    sig = prev.sigma
    half = 0.5 * oml
    delta = np.minimum(ell, half)

    # corner panel o in [0, delta]
    xi, wts = _gauss_jacobi(n, 0.0, sig)
    o = delta[:, None] * (1.0 + xi) / 2.0
    bb = ell[:, None] + o
    omb = oml[:, None] - o
    vals = bb ** (p - sig) * omb**q * prev.g_reduced(ell[:, None] / bb, o / bb)
    total = (delta / 2.0) ** (sig + 1.0) * (vals * wts).sum(axis=1)

    xi_gl, w_gl = _gauss_legendre(n)

    def legendre(idx, lo, hi):
        o = ((lo + hi) / 2.0)[:, None] + ((hi - lo) / 2.0)[:, None] * xi_gl
        bb = ell[idx, None] + o
        omb = oml[idx, None] - o
        vals = bb**p * omb**q * prev.g_full(ell[idx, None] / bb, o / bb)
        total[idx] += (hi - lo) / 2.0 * (vals * w_gl).sum(axis=1)

    # dyadic interior panels: right ends double until they reach oml/2
    lo = delta.copy()
    idx = np.flatnonzero(lo < half * (1.0 - 1e-14))
    while idx.size:
        hi = np.minimum(2.0 * lo[idx], half[idx])
        legendre(idx, lo[idx], hi)
        lo[idx] = hi
        idx = idx[hi < half[idx] * (1.0 - 1e-14)]
    legendre(slice(None), lo, 0.875 * oml)

    # right panel o in [7/8 oml, oml] with the (oml - o)^q weight
    h = oml / 8.0
    xi, wts = _gauss_jacobi(n, q, 0.0)
    omb = h[:, None] * (1.0 - xi) / 2.0
    o = oml[:, None] - omb
    bb = ell[:, None] + o
    vals = bb**p * prev.g_full(ell[:, None] / bb, o / bb)
    total += (h / 2.0) ** (q + 1.0) * (vals * wts).sum(axis=1)

    return total


# -- level functions -------------------------------------------------------


class _BaseLevel:
    """Empty product: h_0 = 1."""

    sigma = 0.0

    @staticmethod
    def g_full(u, omu):
        return np.ones_like(np.asarray(u, dtype=float))

    @staticmethod
    def g_reduced(u, omu):
        return np.ones_like(np.asarray(u, dtype=float))


class _LinExtSpline:
    """Cubic spline with linear continuation outside the sample range."""

    def __init__(self, t: np.ndarray, y: np.ndarray):
        self._spl = CubicSpline(t, y)
        self.t0, self.t1 = float(t[0]), float(t[-1])
        self.y0, self.y1 = float(y[0]), float(y[-1])
        self.d0 = float(self._spl(self.t0, 1))
        self.d1 = float(self._spl(self.t1, 1))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(self._spl(np.clip(t, self.t0, self.t1)), dtype=float)
        lo = t < self.t0
        hi = t > self.t1
        if np.any(lo):
            out = np.where(lo, self.y0 + self.d0 * (t - self.t0), out)
        if np.any(hi):
            out = np.where(hi, self.y1 + self.d1 * (t - self.t1), out)
        return out


class _SplineLevel:
    """Tabulated h_m with the endpoint power laws factored out.

    Stores E(u) = h_m(u) * u^(1 - a_1) * (1-u)^(-sigma_m) as one spline of
    log E in the logit s = log u - log(1-u), which is nearly linear at both
    ends and smooth across the bulk, so no branch switch is needed.
    """

    def __init__(self, sigma: float, a1m1: float, spline: _LinExtSpline):
        self.sigma = sigma
        self.a1m1 = a1m1
        self._spline = spline

    def _core(self, u, omu):
        return np.exp(self._spline(np.log(u) - np.log(omu)))

    def g_reduced(self, u, omu):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return u**self.a1m1 * self._core(u, omu)

    def g_full(self, u, omu):
        omu = np.atleast_1d(np.asarray(omu, dtype=float))
        return omu**self.sigma * self.g_reduced(u, omu)


# table nodes: equally spaced in s = logit(u) over |s| <= 9.5 ln 10
_TABLE_PTS_PER_DECADE = 45
_TABLE_LOG10_MAX = 9.5


@dataclass
class _Tables:
    levels: list
    rel_err: float


@lru_cache(maxsize=None)
def _tables(r: int) -> _Tables:
    """Build splined level functions for order r and bound their error.

    Each level is sampled at all logit nodes in one batched call, where
    u = 1/(1+e^-s) and 1-u = 1/(1+e^s) keep both endpoint distances exact.
    The error bound is the worst relative deviation from a finer quadrature
    at 12 node interval midpoints, where the spline error peaks, summed over
    levels. A level whose log E is not finite at some node (at large r the
    deepest levels overflow near u -> 0) raises NoConvergenceError.
    """
    par = _params(r)
    a1m1 = par.a[0] - 1.0
    levels: list = [_BaseLevel()]
    rel_err = 0.0

    n_s = int(2 * _TABLE_LOG10_MAX * _TABLE_PTS_PER_DECADE)
    s_max = _TABLE_LOG10_MAX * math.log(10.0)
    s_nodes = np.linspace(-s_max, s_max, n_s)

    def endpoints(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return 1.0 / (1.0 + np.exp(-s)), 1.0 / (1.0 + np.exp(s))

    ell, oml = endpoints(s_nodes)
    check_rng = np.random.Generator(np.random.Philox(key=np.array([11, r], dtype=np.uint64)))

    for m in range(1, r):
        p = par.a[m - 1] - 2.0
        q = par.b[m - 1] - 1.0
        prev = levels[-1]
        sig_m = par.sigma[m]

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            h = _h_values(ell, oml, p, q, prev, 24)
            log_e = np.log(h) - a1m1 * np.log(ell) - sig_m * np.log(oml)
        bad = ~np.isfinite(log_e)
        if np.any(bad):
            raise NoConvergenceError(
                f"order r={r}: level {m} of the density tables is not finite at "
                f"{int(np.sum(bad))} of {n_s} nodes (first at logit s={s_nodes[bad][0]:.4g})")
        level = _SplineLevel(sig_m, a1m1, _LinExtSpline(s_nodes, log_e))

        i = check_rng.integers(0, n_s - 1, size=12)
        c_ell, c_oml = endpoints(0.5 * (s_nodes[i] + s_nodes[i + 1]))
        ref = _h_values(c_ell, c_oml, p, q, prev, 36)
        got = level.g_full(c_ell, c_oml)
        rel_err += float(np.max(np.abs(got - ref) / np.abs(ref)))
        levels.append(level)

    return _Tables(levels=levels, rel_err=rel_err)


# -- density ---------------------------------------------------------------


# Gauss rule sizes of the outer integral; their difference is its error
_RULE_PAIR = (20, 28)


def _density_values(r: int, x: np.ndarray,
                    n_pair: tuple[int, int] = _RULE_PAIR) -> tuple[np.ndarray, np.ndarray]:
    """Density and absolute error at every abscissa of x, all inside (0, L).

    The outer integral over the tabulated level r-1 is evaluated at the
    two rule sizes in n_pair; the error is their difference plus the
    tables' validated relative error times |f|.
    """
    par = _params(r)
    t = x / par.edge
    omt = (par.edge - x) / par.edge
    tables = _tables(r)
    p = par.a[r - 1] - 2.0
    q = par.b[r - 1] - 1.0
    prev = tables.levels[r - 1]
    lo = _h_values(t, omt, p, q, prev, n_pair[0])
    hi = _h_values(t, omt, p, q, prev, n_pair[1])
    f = par.norm * hi
    err = par.norm * np.abs(hi - lo) + tables.rel_err * np.abs(f)
    return f, err


def density_with_error(r: int, x: float,
                       n_pair: tuple[int, int] = _RULE_PAIR) -> tuple[float, float]:
    """Density of the order-r law at x with an absolute error estimate.

    The same batched evaluation as density_grid, on one abscissa. The
    first call for an order builds its tables (r = 1 needs none).
    """
    par = _params(r)
    if not 0.0 < x < par.edge:
        raise OutsideSupportError(f"x = {x} outside (0, {par.edge})")
    f, err = _density_values(r, np.array([float(x)]), n_pair)
    return float(f[0]), float(err[0])


def density(r: int, x: float, tol: float = 1e-6) -> float:
    """Density value with reported absolute error at most ``tol``."""
    f, err = density_with_error(r, x)
    if err > tol:
        f, err = density_with_error(r, x, n_pair=(40, 56))
    if err > tol:
        raise ToleranceNotMetError(f"density error estimate {err:.3e} exceeds tol {tol:.1e}")
    return f


# -- closed forms ----------------------------------------------------------


def density_mp(x: float) -> float:
    """Square-case density sqrt((4-x)/x)/(2 pi) on [0, 4]."""
    if x <= 0.0 or x >= 4.0:
        return 0.0
    return math.sqrt((4.0 - x) / x) / (2.0 * math.pi)


def mp_cdf(x: float) -> float:
    """Analytic antiderivative of the square-case density."""
    if x <= 0.0:
        return 0.0
    if x >= 4.0:
        return 1.0
    return (2.0 / math.pi) * (math.asin(math.sqrt(x) / 2.0) + math.sqrt(x * (4.0 - x)) / 4.0)


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


@dataclass(frozen=True)
class DensityGrid:
    """Density samples on a graded grid over (0, L) with per-point errors."""

    r: int
    edge: float
    x: np.ndarray
    f: np.ndarray
    err: np.ndarray

    def _head_fit(self) -> tuple[np.ndarray, float, float]:
        """Three-term expansion f = x^(-p) (c0 + c1 x^s + c2 x^(2s)) near 0.

        The exponents are fixed by the law (p = r/(r+1), s = 1/(r+1));
        the coefficients are matched at three spread grid points.
        """
        p = self.r / (self.r + 1.0)
        s = 1.0 / (self.r + 1.0)
        i1 = int(np.searchsorted(self.x, 4.0 * self.x[0]))
        i2 = int(np.searchsorted(self.x, 16.0 * self.x[0]))
        i1 = min(max(i1, 1), len(self.x) - 2)
        i2 = min(max(i2, i1 + 1), len(self.x) - 1)
        pts = self.x[[0, i1, i2]]
        vals = self.f[[0, i1, i2]]
        mat = np.array([[xx ** (-p) * xx ** (i * s) for i in range(3)] for xx in pts])
        try:
            coef = np.linalg.solve(mat, vals)
        except np.linalg.LinAlgError:
            coef = np.array([np.nan, 0.0, 0.0])
        if not np.isfinite(coef[0]) or coef[0] <= 0:
            coef = np.array([vals[0] * pts[0] ** p, 0.0, 0.0])
        return coef, p, s

    def _head_moment(self, k: int, upto: float) -> float:
        coef, p, s = self._head_fit()
        return float(sum(c * upto ** (k + 1.0 - p + i * s) / (k + 1.0 - p + i * s)
                         for i, c in enumerate(coef)))

    def _tail_moment(self, k: int) -> float:
        gap = self.edge - self.x[-1]
        d = self.f[-1] / math.sqrt(gap)
        return self.edge**k * d * (2.0 / 3.0) * gap**1.5

    def _segment_integrals(self, k: int) -> np.ndarray:
        """Per-segment integrals of x^k f reconstructed in log coordinates.

        log(x^k f) is splined against log x away from the upper edge
        (linear there for the singular head) and against log(L - x) near
        it (linear for the square-root vanishing); each segment is then
        integrated by a fixed Gauss-Legendre rule. No density values
        beyond the stored grid are used.
        """
        g = self.x**k * self.f
        if np.any(g <= 0):
            return 0.5 * (g[:-1] + g[1:]) * np.diff(self.x)
        d = self.edge - self.x
        split = int(np.searchsorted(self.x, 0.85 * self.edge))
        split = min(max(split, 2), len(self.x) - 2)
        nodes, wts = _gauss_legendre(7)
        out = np.empty(len(self.x) - 1)

        s = np.log(self.x[: split + 1])
        spl = CubicSpline(s, np.log(g[: split + 1]))
        a, b = s[:-1], s[1:]
        mid = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * nodes[None, :]
        vals = np.exp(spl(mid) + mid)
        out[:split] = 0.5 * (b - a) * (vals @ wts)

        t = np.log(d[split:])[::-1]  # ascending in log-distance
        spl_e = CubicSpline(t, np.log(g[split:])[::-1])
        a, b = t[:-1], t[1:]
        mid = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * nodes[None, :]
        vals = np.exp(spl_e(mid) + mid)
        out[split:] = (0.5 * (b - a) * (vals @ wts))[::-1]
        return out

    def moment(self, k: int) -> float:
        """integral of x^k against the gridded density, edge-corrected."""
        inner = float(np.sum(self._segment_integrals(k)))
        return self._head_moment(k, self.x[0]) + inner + self._tail_moment(k)

    def integral(self) -> float:
        return self.moment(0)

    def cdf(self) -> GridCDF:
        """Piecewise-linear CDF, extended analytically below the first abscissa."""
        coef, p, s = self._head_fit()

        def head_cdf(xx: float) -> float:
            return float(sum(c * xx ** (1.0 - p + i * s) / (1.0 - p + i * s)
                             for i, c in enumerate(coef)))

        ext = self.x[0] * 10.0 ** np.arange(-5.0, -0.4, 0.5)
        xs = [0.0] + [float(e) for e in ext] + [float(v) for v in self.x]
        fs = [0.0] + [head_cdf(e) for e in ext]
        acc = head_cdf(self.x[0])
        fs.append(acc)
        segs = self._segment_integrals(0)
        for sgm in segs:
            acc += float(sgm)
            fs.append(acc)
        xs.append(self.edge)
        fs.append(acc + self._tail_moment(0))
        return GridCDF(np.array(xs), np.array(fs))


def density_grid(r: int, n: int = 768, tol: float | None = None) -> DensityGrid:
    """Sample the density on a graded grid (log head, linear middle, log tail).

    All abscissae go through one batched evaluation; with ``tol`` the first
    abscissa in grid order whose error exceeds tol * max(1, |f|) is named
    in the ToleranceNotMetError.
    """
    if n < 16:
        raise ValueError(f"grid size {n} < 16")
    par = _params(r)
    edge = par.edge
    n_head = int(0.45 * n)
    n_mid = int(0.35 * n)
    n_tail = n - n_head - n_mid
    head = edge * 10.0 ** np.linspace(-7.0, math.log10(0.2), n_head, endpoint=False)
    mid = np.linspace(0.2 * edge, 0.9 * edge, n_mid, endpoint=False)
    tail = edge - edge * 10.0 ** np.linspace(-1.0, -6.0, n_tail)
    xs = np.unique(np.concatenate([head, mid, tail]))
    fs, errs = _density_values(r, xs)
    if tol is not None:
        over = np.flatnonzero(errs > tol * np.maximum(1.0, np.abs(fs)))
        if over.size:
            i = over[0]
            raise ToleranceNotMetError(
                f"density error {errs[i]:.3e} at x={xs[i]:.6g} exceeds tol {tol:.1e}")
    return DensityGrid(r=r, edge=edge, x=xs, f=fs, err=errs)


def cdf_grid(r: int, grid_size: int = 1024, tol: float = 1e-3) -> GridCDF:
    """Piecewise-linear CDF of the order-r law on [0, L(r)]."""
    if grid_size < 16:
        raise ValueError(f"grid size {grid_size} < 16")
    return density_grid(r, n=grid_size, tol=tol).cdf()


# -- Stieltjes transform ----------------------------------------------------


def _moment_ratio(r: int, k: int) -> float:
    """m_{k+1}/m_k computed stably in floats."""
    num = 1.0
    for i in range(1, r + 2):
        num *= (r + 1.0) * k + i
    den = k + 2.0
    for i in range(1, r + 1):
        den *= r * k + i
    return num / den


def stieltjes(r: int, z: complex, tol: float = 1e-12, margin: float = 1e-9,
              max_terms: int = 500_000) -> complex:
    """Moment series sum_k m_k z^(-k-1), truncated by its geometric tail bound.

    Converges only for |z| > L(r); points at or inside the circle raise.
    """
    par = _params(r)
    z = complex(z)
    if abs(z) <= par.edge * (1.0 + margin):
        raise OutsideDomainError(f"|z| = {abs(z):.6g} not above L(r) = {par.edge:.6g}")
    qq = par.edge / abs(z)
    total = 0.0 + 0.0j
    term = 1.0 / z
    k = 0
    while k < max_terms:
        total += term
        bound = abs(term) * qq / (1.0 - qq)
        if bound < tol:
            return total
        term = term * _moment_ratio(r, k) / z
        k += 1
    raise NoConvergenceError(f"series tail above {tol} after {max_terms} terms")


def stieltjes_hyp(r: int, z: complex, tol: float = 1e-12,
                  max_terms: int = 500_000) -> complex:
    """Same transform through the hypergeometric term recurrence.

    G = (1 - F(L/z)) / (r+1) with F of type (r, r-1); the numerator
    parameters are -j/(r+1), the denominator ones -j/r.
    """
    par = _params(r)
    z = complex(z)
    if abs(z) <= par.edge:
        raise OutsideDomainError(f"|z| = {abs(z):.6g} not above L(r) = {par.edge:.6g}")
    alphas = [-j / (r + 1.0) for j in range(1, r + 1)]
    betas = [-j / float(r) for j in range(1, r)]
    w = par.edge / z
    qq = par.edge / abs(z)
    term = 1.0 + 0.0j
    total = 0.0 + 0.0j
    k = 0
    while k < max_terms:
        total += term
        num = 1.0
        for al in alphas:
            num *= al + k
        den = k + 1.0
        for be in betas:
            den *= be + k
        term = term * num / den * w
        if abs(term) * qq / (1.0 - qq) < tol and k > r:
            total += term
            break
        k += 1
    else:
        raise NoConvergenceError(f"recurrence tail above {tol} after {max_terms} terms")
    return (1.0 - total) / (r + 1.0)


def stieltjes_mp(z: complex) -> complex:
    """Closed-form square-case transform (1 - sqrt(1 - 4/z))/2, Herglotz branch."""
    return (1.0 - cmath.sqrt(1.0 - 4.0 / z)) / 2.0


# -- Beta-product representation -------------------------------------------


def beta_product_moment(r: int, k: int) -> Fraction:
    """Exact k-th moment of U(0, L) * prod Beta(j/(r+1), j/(r(r+1)))."""
    if r < 1:
        raise InvalidOrderError(f"r = {r} < 1")
    if k < 0:
        raise InvalidOrderError(f"order {k} < 0")
    edge = Fraction((r + 1) ** (r + 1), r**r)
    val = edge**k / (k + 1)
    for j in range(1, r + 1):
        aj = Fraction(j, r + 1)
        cj = Fraction(j, r)  # = a_j + b_j
        for i in range(k):
            val *= (aj + i) / (cj + i)
    return val


@dataclass(frozen=True)
class BetaProductSampler:
    """U(0, L) times r independent Beta factors with the law's parameters."""

    r: int
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    scale: float

    @classmethod
    def for_order(cls, r: int) -> "BetaProductSampler":
        par = _params(r)
        return cls(r=r, alphas=par.a, betas=par.b, scale=par.edge)

    def samples(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = rng.uniform(0.0, self.scale, size=n)
        for aj, bj in zip(self.alphas, self.betas):
            out *= rng.beta(aj, bj, size=n)
        return out


def beta_product_samples(r: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent draws of the rescaled Beta product."""
    return BetaProductSampler.for_order(r).samples(n, rng)


def beta_product_sample(r: int, rng: np.random.Generator) -> float:
    """One draw of the rescaled Beta product."""
    return float(beta_product_samples(r, 1, rng)[0])


# -- contour (projection) moments -------------------------------------------


@dataclass(frozen=True)
class ContourMoment:
    value: float
    imag_residual: float
    resolution: int


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
    return ContourMoment(value=val.real, imag_residual=abs(val.imag), resolution=n)


# -- triangular-limit (staircase) law ----------------------------------------


def dh_density_param(v: float) -> tuple[float, float]:
    """Parametric point (x, density) of the triangular-matrix limit law.

    x(v) = (sin v / v) exp(v cot v) sweeps (0, e) as v runs over (0, pi);
    the density there is sin(v)^2 / (pi v x), equal to the textbook form
    (1/pi) sin v exp(-v cot v) but stable near both ends.
    """
    if not 0.0 < v < math.pi:
        raise OutsideDomainError(f"parameter {v} outside (0, pi)")
    x = (math.sin(v) / v) * math.exp(v / math.tan(v))
    f = math.sin(v) ** 2 / (math.pi * v * x) if x > 0.0 else math.inf
    return x, f


def _dh_param_from_x(x: float) -> float:
    lo, hi = 1e-12, math.pi - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dh_density_param(mid)[0] > x:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def dh_density(x: float) -> float:
    """Triangular-limit density at x, zero outside (0, e)."""
    if x <= 0.0 or x >= math.e:
        return 0.0
    return dh_density_param(_dh_param_from_x(x))[1]


def dh_cdf(x: float) -> float:
    """CDF of the triangular limit law.

    In the angle variable the mass element simplifies to
    (1 - sin(2v)/v + sin(v)^2/v^2) / pi, which is smooth on (0, pi).
    """
    if x <= 0.0:
        return 0.0
    if x >= math.e:
        return 1.0
    v = _dh_param_from_x(x)

    def mass(w: float) -> float:
        return (1.0 - math.sin(2.0 * w) / w + (math.sin(w) / w) ** 2) / math.pi

    val, _ = quad(mass, v, math.pi, limit=200)
    return float(val)


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
