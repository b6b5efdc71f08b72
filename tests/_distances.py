"""Union-of-knots references for the Lévy and KS distances.

These evaluate both CDFs at every knot of either one, on the union, as
``spectra`` did before it read each CDF's values at its own knots from
its own arrays; the tests hold the program's distances to them bit for bit.
The completed graphs are built here from each class's own arrays (a step
CDF's atoms and multiplicities, a grid CDF's xs and fs), not from
``spectra``.
"""

import numpy as np


def _graph(cdf) -> tuple[np.ndarray, np.ndarray]:
    """Completed-graph vertices: a step's atoms at the bottom and top of each jump,
    or a grid's knots preceded by ``(xs[0], 0)``."""
    if hasattr(cdf, "atoms"):
        counts = np.concatenate([[0], np.cumsum(cdf.multiplicities)]) / cdf.multiplicities.sum()
        return np.repeat(cdf.atoms, 2), np.column_stack([counts[:-1], counts[1:]]).ravel()
    return np.concatenate([cdf.xs[:1], cdf.xs]), np.concatenate([[0.0], cdf.fs])


def levy_union_gaps(f, g) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex u of either completed graph and the gap between their heights there."""
    (xf, yf), (xg, yg) = _graph(f), _graph(g)
    uf, ug = xf + yf, xg + yg
    u = np.concatenate([uf, ug])
    on_f = np.interp(u, uf, yf, left=0.0, right=yf[-1])
    on_g = np.interp(u, ug, yg, left=0.0, right=yg[-1])
    return u, np.abs(on_f - on_g)


def levy_union(f, g) -> float:
    """Largest gap between the completed graphs' heights at every vertex of either."""
    return float(np.max(levy_union_gaps(f, g)[1]))


def ks_union(f, g) -> float:
    """Largest gap between values and between left limits at every knot of either."""
    pts = np.unique(np.concatenate([f.knots()[0], g.knots()[0]]))
    d_right = np.abs(f.eval(pts) - g.eval(pts)).max()
    d_left = np.abs(f.eval_left(pts) - g.eval_left(pts)).max()
    return float(max(d_right, d_left))
