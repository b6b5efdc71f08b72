"""Independent 30-digit references for the limit-law density and CDF.

The law U(0, L) * prod_{j=1..r} Beta(j/(r+1), j/(r(r+1))) has a Meijer
G-function density and CDF, and the triangular law a parametrisation;
both are evaluated here by mpmath without calling youngspec.
"""

import mpmath

DPS = 30


def _meijer_parameters(r: int, x: float):
    """t = x/L, the G-function parameters a, b and the normalizing constant."""
    edge = mpmath.mpf((r + 1) ** (r + 1)) / mpmath.mpf(r) ** r
    a = [mpmath.mpf(j) / r - 1 for j in range(1, r)] + [1]
    b = [mpmath.mpf(j) / (r + 1) - 1 for j in range(1, r + 1)]
    const = mpmath.fprod(mpmath.gamma(mpmath.mpf(j) / r) / mpmath.gamma(mpmath.mpf(j) / (r + 1))
                         for j in range(1, r + 1))
    return mpmath.mpf(x) / edge, edge, a, b, const


def limit_density(r: int, x: float) -> float:
    """Density of the order-r limit law at x in (0, L), L = (r+1)^(r+1)/r^r.

    With t = x/L,
    f(x) = (1/L) prod_j Gamma(j/r)/Gamma(j/(r+1)) *
           G^{r,0}_{r,r}(t | (j/r - 1)_{j<r} + [1]; (j/(r+1) - 1)_{j<=r}).
    The U factor's b = 0 cancels the j = r numerator, so the order is r.
    """
    with mpmath.workdps(DPS):
        t, edge, a, b, const = _meijer_parameters(r, x)
        return float(const / edge * mpmath.meijerg([[], a], [b, []], t))


def limit_cdf(r: int, x: float) -> float:
    """CDF of the order-r limit law at x in (0, L).

    The antiderivative of the density's G-function from 0 to t is
    const * t * G^{r,1}_{r+1,r+1}(t | 0, a; b, -1) with the same const, a, b.
    mpmath converges slowly as t -> 1 (tens of seconds at t = 0.999 for
    r >= 4); below t = 0.9 a point takes well under a second.
    """
    with mpmath.workdps(DPS):
        t, _, a, b, const = _meijer_parameters(r, x)
        return float(const * t * mpmath.meijerg([[0], a], [b, [-1]], t))


def triangular_density(x: float) -> float:
    """Density of the triangular limit law at x in (0, e).

    x(v) = (sin v / v) exp(v cot v) falls from e to 0 as v runs over
    (0, pi), and the density there is sin(v)^2 / (pi v x); v is bisected
    on log x(v) to below 1e-32.
    """
    with mpmath.workdps(DPS):
        xm = mpmath.mpf(x)
        log_x = mpmath.log(xm)
        lo, hi = mpmath.mpf(0), mpmath.pi
        for _ in range(110):
            v = (lo + hi) / 2
            if mpmath.log(mpmath.sin(v) / v) + v * mpmath.cot(v) > log_x:
                lo = v
            else:
                hi = v
        v = (lo + hi) / 2
        return float(mpmath.sin(v) ** 2 / (mpmath.pi * v * xm))
