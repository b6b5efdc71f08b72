"""Tests of the benchmark's oracles: python3 -m pytest perfbench"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracles  # noqa: E402
from youngspec.limitlaw import density_mp, density_r2, dh_density  # noqa: E402


@pytest.mark.parametrize("frac", [1e-4, 0.01, 0.2, 0.5, 0.77, 0.99])
def test_meijer_g_matches_closed_forms(frac):
    x1 = 4.0 * frac
    assert oracles.limit_density(1, x1) == pytest.approx(density_mp(x1), rel=1e-12)
    x2 = 6.75 * frac
    assert oracles.limit_density(2, x2) == pytest.approx(density_r2(x2), rel=1e-12)


def test_triangular_density_moments():
    # k-th moment of the triangular law is k^k / ((k+1) k!); x^k f(x) is
    # integrable for k >= 1, whereas f itself decays only like 1/(x log^2 x).
    import mpmath
    for k, exact in ((1, 0.5), (2, 2.0 / 3.0)):
        with mpmath.workdps(20):
            got = mpmath.quad(lambda x: x**k * oracles.triangular_density(float(x)), [0, 0.5, 2, math.e])
        assert float(got) == pytest.approx(exact, abs=1e-6)
    for x in (0.01, 0.7, 2.5):
        assert oracles.triangular_density(x) == pytest.approx(dh_density(x), rel=1e-10)


def _violation(atoms, counts, xs, fs, eps):
    """Largest breach of F(x-eps)-eps <= G(x) <= F(x+eps)+eps, F step, G linear.

    Substituting z = x -+ eps puts F on its own atoms, where the sup of each
    side is attained (F is constant between atoms, G is nondecreasing); a
    dense sweep of z is checked as well.
    """
    cum = np.cumsum(counts) / np.sum(counts)
    sweep = np.linspace(min(atoms[0], xs[0]) - 1.0, max(atoms[-1], xs[-1]) + 1.0, 4001)
    z = np.unique(np.concatenate([atoms, sweep]))

    def f_right(t):
        return np.concatenate([[0.0], cum])[np.searchsorted(atoms, t, side="right")]

    def f_left(t):
        return np.concatenate([[0.0], cum])[np.searchsorted(atoms, t, side="left")]

    def g(t):
        return np.interp(t, xs, fs, left=0.0, right=fs[-1])

    low = f_right(z) - eps - g(z + eps)
    high = g(z - eps) - f_left(z) - eps
    return float(max(low.max(), high.max()))


@pytest.mark.parametrize("case", range(60))
def test_levy_exact_is_feasible_and_minimal(case):
    rng = np.random.default_rng(case)
    n = int(rng.integers(1, 41))
    atoms, counts = np.unique(np.round(rng.uniform(-0.2, 1.2, n), 3), return_counts=True)
    xs = np.sort(rng.uniform(0.0, 1.0, 20))
    fs = np.sort(rng.uniform(0.0, 1.0, 20))
    fs[0], fs[-1] = 0.0, 1.0
    eps = oracles.levy_exact(oracles.step_graph(atoms, counts), oracles.linear_graph(xs, fs))
    assert 0.0 < eps <= 1.0
    assert _violation(atoms, counts, xs, fs, eps) <= 1e-12
    assert _violation(atoms, counts, xs, fs, eps - 1e-7) > 0.0


def test_levy_exact_point_masses():
    one = oracles.step_graph([0.0], [1])
    assert oracles.levy_exact(one, oracles.step_graph([1.0], [1])) == 1.0
    assert oracles.levy_exact(one, oracles.step_graph([0.25], [1])) == 0.25
    assert oracles.levy_exact(one, one) == 0.0
