"""Independent reference values the benchmark checks the program against.

None of these call into ``youngspec``: the limit-law density comes from
its Meijer G-function form evaluated by mpmath, the triangular-law
density from its parametrisation solved at 30 digits, and the Lévy
distance from the rotated-graph characterisation (Zolotarev), which is
exact for step and piecewise-linear CDFs.
"""

from __future__ import annotations

import mpmath
import numpy as np

DPS = 30


def limit_density(r: int, x: float) -> float:
    """Density of the order-r limit law at x in (0, L), L = (r+1)^(r+1)/r^r.

    With t = x/L the law U(0,L) * prod_j Beta(j/(r+1), j/(r(r+1))) has
    f(x) = (1/L) prod_j Gamma(j/r)/Gamma(j/(r+1)) *
           G^{r,0}_{r,r}(t | (j/r - 1)_{j<r} + [1]; (j/(r+1) - 1)_{j<=r}).
    """
    with mpmath.workdps(DPS):
        edge = mpmath.mpf((r + 1) ** (r + 1)) / mpmath.mpf(r) ** r
        t = mpmath.mpf(x) / edge
        a = [mpmath.mpf(j) / r - 1 for j in range(1, r)] + [1]
        b = [mpmath.mpf(j) / (r + 1) - 1 for j in range(1, r + 1)]
        const = mpmath.fprod(mpmath.gamma(mpmath.mpf(j) / r) / mpmath.gamma(mpmath.mpf(j) / (r + 1))
                             for j in range(1, r + 1))
        return float(const / edge * mpmath.meijerg([[], a], [b, []], t))


def triangular_density(x: float) -> float:
    """Density of the triangular (staircase) limit law at x in (0, e).

    The law is parametrised by v in (0, pi): x(v) = (sin v / v) exp(v cot v),
    density sin(v)^2 / (pi v x). log x(v) is decreasing in v, so v is found
    by bisection to below 1e-30.
    """
    with mpmath.workdps(DPS):
        xm = mpmath.mpf(x)
        target = mpmath.log(xm)
        lo, hi = mpmath.mpf(0), +mpmath.pi
        for _ in range(110):
            v = (lo + hi) / 2
            if mpmath.log(mpmath.sin(v) / v) + v * mpmath.cot(v) > target:
                lo = v
            else:
                hi = v
        v = (lo + hi) / 2
        return float(mpmath.sin(v) ** 2 / (mpmath.pi * v * xm))


def step_graph(atoms, counts) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the completed graph of the step CDF with these atoms.

    Each atom contributes the bottom and top of its vertical jump.
    """
    atoms = np.asarray(atoms, dtype=float)
    cum = np.cumsum(np.asarray(counts, dtype=float))
    top = cum / cum[-1]
    bottom = np.concatenate([[0.0], top[:-1]])
    return np.repeat(atoms, 2), np.column_stack([bottom, top]).ravel()


def linear_graph(xs, fs) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the completed graph of a piecewise-linear CDF, 0 to the left."""
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    return np.concatenate([[xs[0]], xs]), np.concatenate([[0.0], fs])


def levy_exact(graph_f, graph_g) -> float:
    """Lévy distance between two CDFs given by their completed-graph vertices.

    Along each line x + y = u both completed graphs cross once, at heights
    y_F(u) and y_G(u); each is piecewise linear in u with knots at the
    vertices, and the Lévy distance is max_u |y_F(u) - y_G(u)|.
    """
    (xf, yf), (xg, yg) = graph_f, graph_g
    uf, ug = xf + yf, xg + yg
    u = np.concatenate([uf, ug])
    on_f = np.interp(u, uf, yf, left=0.0, right=yf[-1])
    on_g = np.interp(u, ug, yg, left=0.0, right=yg[-1])
    return float(np.max(np.abs(on_f - on_g)))
