"""Closed forms and a second series route that the tests hold the limit law against.

The hypergeometric recurrence sums the Stieltjes transform by a route
independent of ``limitlaw.stieltjes``; the square case (r = 1) has a
closed-form transform and CDF; the triangular law's parametrisation
gives exact points (x, f) to compare the bisected ``dh_density`` with.
"""

import cmath
import math

import numpy as np

from youngspec.errors import NoConvergenceError, OutsideDomainError
from youngspec.limitlaw import _MAX_TERMS, _dh_gap, support_edge


def stieltjes_hyp(r: int, z: complex, tol: float = 1e-12) -> complex:
    """Same transform through the hypergeometric term recurrence.

    G = (1 - F(L/z)) / (r+1) with F of type (r, r-1); the numerator
    parameters are -j/(r+1), the denominator ones -j/r.
    """
    edge = float(support_edge(r))
    z = complex(z)
    if abs(z) <= edge:
        raise OutsideDomainError(f"|z| = {abs(z):.6g} not above L(r) = {edge:.6g}")
    alphas = [-j / (r + 1.0) for j in range(1, r + 1)]
    betas = [-j / float(r) for j in range(1, r)]
    w = edge / z
    qq = edge / abs(z)
    term = 1.0 + 0.0j
    total = 0.0 + 0.0j
    k = 0
    while k < _MAX_TERMS:
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
        raise NoConvergenceError(f"recurrence tail above {tol} after {_MAX_TERMS} terms")
    return (1.0 - total) / (r + 1.0)


def stieltjes_mp(z: complex) -> complex:
    """Closed-form square-case transform (1 - sqrt(1 - 4/z))/2, Herglotz branch."""
    return (1.0 - cmath.sqrt(1.0 - 4.0 / z)) / 2.0


def mp_cdf(x: float) -> float:
    """Analytic antiderivative of the square-case density."""
    if x <= 0.0:
        return 0.0
    if x >= 4.0:
        return 1.0
    # atan2 keeps full accuracy at x -> 4, where asin(sqrt(x)/2) is ill-conditioned
    return (2.0 / math.pi) * (math.atan2(math.sqrt(x), math.sqrt(4.0 - x))
                              + math.sqrt(x * (4.0 - x)) / 4.0)


def dh_density_param(v: float) -> tuple[float, float]:
    """Parametric point (x, density) of the triangular-matrix limit law.

    x(v) = (sin v / v) exp(v cot v) = exp(1 - g(v)) sweeps (0, e) as v runs
    over (0, pi); the density there is sin(v)^2 / (pi v x), equal to the
    textbook form (1/pi) sin v exp(-v cot v) but stable near both ends.
    """
    if not 0.0 < v < math.pi:
        raise OutsideDomainError(f"parameter {v} outside (0, pi)")
    x = math.exp(1.0 - float(_dh_gap(np.float64(v))))
    f = math.sin(v) ** 2 / (math.pi * v * x) if x > 0.0 else math.inf
    return x, f
