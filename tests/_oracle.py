"""Independent 30-digit reference for the limit-law density.

The law U(0, L) * prod_{j=1..r} Beta(j/(r+1), j/(r(r+1))) has a Meijer
G-function density, evaluated here by mpmath without calling youngspec.
"""

import mpmath

DPS = 30


def limit_density(r: int, x: float) -> float:
    """Density of the order-r limit law at x in (0, L), L = (r+1)^(r+1)/r^r.

    With t = x/L,
    f(x) = (1/L) prod_j Gamma(j/r)/Gamma(j/(r+1)) *
           G^{r,0}_{r,r}(t | (j/r - 1)_{j<r} + [1]; (j/(r+1) - 1)_{j<=r}).
    The U factor's b = 0 cancels the j = r numerator, so the order is r.
    """
    with mpmath.workdps(DPS):
        edge = mpmath.mpf((r + 1) ** (r + 1)) / mpmath.mpf(r) ** r
        t = mpmath.mpf(x) / edge
        a = [mpmath.mpf(j) / r - 1 for j in range(1, r)] + [1]
        b = [mpmath.mpf(j) / (r + 1) - 1 for j in range(1, r + 1)]
        const = mpmath.fprod(mpmath.gamma(mpmath.mpf(j) / r) / mpmath.gamma(mpmath.mpf(j) / (r + 1))
                             for j in range(1, r + 1))
        return float(const / edge * mpmath.meijerg([[], a], [b, []], t))
