"""Union-of-knots references for the Lévy and KS distances.

These evaluate both CDFs at every knot of either one, on the union, as
``spectra`` did before it read each CDF's values at its own knots from
its own arrays; the tests hold the program's distances to them bit for bit.
"""

import numpy as np

from youngspec.spectra import sorted_unique


def levy_union(f, g) -> float:
    """Largest gap between the completed graphs' heights at every vertex of either."""
    (xf, yf), (xg, yg) = f.graph(), g.graph()
    uf, ug = xf + yf, xg + yg
    u = np.concatenate([uf, ug])
    on_f = np.interp(u, uf, yf, left=0.0, right=yf[-1])
    on_g = np.interp(u, ug, yg, left=0.0, right=yg[-1])
    return float(np.max(np.abs(on_f - on_g)))


def ks_union(f, g) -> float:
    """Largest gap between values and between left limits at every knot of either."""
    pts = sorted_unique(np.concatenate([f.knots()[0], g.knots()[0]]))
    d_right = np.abs(f.eval(pts) - g.eval(pts)).max()
    d_left = np.abs(f.eval_left(pts) - g.eval_left(pts)).max()
    return float(max(d_right, d_left))
