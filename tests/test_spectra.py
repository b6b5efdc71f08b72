import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from youngspec.errors import InvalidRangeError, NotHermitianError, OutsideDomainError
from youngspec.matrices import (
    BLOCK,
    CovarianceMatrix,
    EntryDistribution,
    ShapedMatrix,
    covariance,
    sample_shaped,
)
from youngspec.partitions import Partition, staircase
from youngspec.spectra import (
    GridCDF,
    _replica_eigenvalues,
    StepCDF,
    eigenvalues,
    ensemble_moments,
    histogram,
    ks_distance,
    levy_distance,
    shape_ensemble_spectra,
    sorted_unique,
    spectra_moments,
)
from youngspec.streams import substream

from _distances import ks_union, levy_union

step_cdfs = st.lists(st.floats(-5, 5), min_size=1, max_size=12).map(StepCDF)
small_steps = st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=40).map(StepCDF)
# many values on few atoms, some on a grid knot
tied_steps = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=60).map(StepCDF)


@st.composite
def grid_cdfs(draw):
    xs = np.sort(draw(st.lists(st.floats(0, 1), min_size=2, max_size=20, unique=True)))
    assume(np.all(np.diff(xs) >= np.finfo(float).tiny))  # else slopes overflow: GridCDF rejects
    fs = np.sort(draw(st.lists(st.floats(0, 1), min_size=len(xs), max_size=len(xs))))
    fs[0] = 0.0
    return GridCDF(xs, fs)


def test_eigenvalues_diagonal():
    w = CovarianceMatrix(dim=2, scale=1, entries=np.diag([2.0, 3.0]).astype(complex))
    s = eigenvalues(w)
    assert np.allclose(s.values, [2.0, 3.0])


def test_eigenvalues_scalar_case():
    x = ShapedMatrix(shape=Partition((1,)), entries=np.array([[2.0 + 0j]]))
    s = eigenvalues(covariance(x, 1))
    assert np.allclose(s.values, [4.0])


def test_eigenvalue_trace_identity():
    x = sample_shaped(staircase(2).dilate(3), EntryDistribution("complex-gaussian"), (8, 1))
    w = covariance(x, 3)
    s = eigenvalues(w)
    tr = np.trace(w.entries).real
    assert abs(s.values.sum() - tr) <= 1e-10 * abs(tr)
    frob = np.sum(np.abs(w.entries) ** 2)
    assert abs(np.sum(s.values**2) - frob) <= 1e-9 * frob


def test_eigenpair_residuals():
    # residual contract of the delegated solver on a sampled covariance
    x = sample_shaped(staircase(3).dilate(4), EntryDistribution("complex-gaussian"), (12, 0))
    w = covariance(x, 4).entries
    vals, vecs = np.linalg.eigh(w)
    norm = np.linalg.norm(w, 2)
    for i in range(len(vals)):
        res = np.linalg.norm(w @ vecs[:, i] - vals[i] * vecs[:, i])
        assert res <= 1e-9 * norm


def test_eigenvalues_rejects_non_hermitian():
    w = CovarianceMatrix(dim=2, scale=1,
                         entries=np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(NotHermitianError):
        eigenvalues(w)


@pytest.mark.parametrize("kind", ["complex-gaussian", "real-gaussian"])
def test_hermitian_gate_reads_the_last_partial_block(kind):
    # dim 600 has row blocks [0, 256), [256, 512) and the partial [512, 600);
    # the one asymmetric pair (598, 599) lies inside the last
    lam = Partition((2, 1)).dilate(300)
    assert lam.length() % BLOCK
    w = covariance(sample_shaped(lam, EntryDistribution(kind), (13, 0)), 300)
    m = w.entries
    m[598, 599] += 1e-6 * np.abs(m).max()
    asym, scale = np.abs(m - m.conj().T).max(), np.abs(m).max()
    assert np.count_nonzero(np.abs(m - m.conj().T) > 1e-10 * scale) == 2
    # the whole-matrix gate's message, figure for figure
    message = f"asymmetry {asym:.3e} exceeds {1e-10:.1e} * {scale:.3e}"
    with pytest.raises(NotHermitianError) as exc:
        eigenvalues(w)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind, bound", [("complex-gaussian", 3.0), ("real-gaussian", 2.5),
                                         ("rademacher", 2.5)])
def test_replica_peak_memory_is_bounded(kind, bound):
    # one replica holds X, W and a BLOCK-wide slice of scratch; the one-shot
    # pipeline peaked at 4.0 times the bytes of X on both dtypes
    import tracemalloc

    lam = Partition((2, 1)).dilate(300)
    task = (lam.parts, 300, EntryDistribution(kind), 14, 0)
    x_bytes = lam.length() * lam.parts[0] * (16 if kind == "complex-gaussian" else 8)
    _replica_eigenvalues(task)  # first-call allocations of numpy and LAPACK are not the replica's
    tracemalloc.start()
    try:
        _replica_eigenvalues(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * x_bytes, peak / x_bytes


def test_sorted_unique_matches_numpy_unique():
    rng = substream(15, 0)
    for values in (rng.integers(-5, 5, size=200).astype(float), rng.standard_normal(50),
                   np.array([2.0]), np.array([]), np.array([[3.0, 1.0], [3.0, -1.0]])):
        got = sorted_unique(values)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.unique(values))


def test_empirical_cdf_examples():
    f = StepCDF([3, 1, 2])
    assert f.eval(2.0) == pytest.approx(2 / 3)
    assert f.eval(0.5) == 0.0
    assert f.eval(3.0) == 1.0
    g = StepCDF([1, 5, 1])
    assert g.eval(1.0) == pytest.approx(2 / 3)
    # seeded, tie-heavy: 300 values on 7 atoms, against direct counts
    vals = substream(5, 0).integers(0, 7, 300) / 2.0
    h = StepCDF(vals)
    xs = np.concatenate([np.unique(vals), np.linspace(-1.0, 4.0, 41)])
    assert h.total == 300 and h.multiplicities.sum() == 300 and len(h.atoms) == 7
    assert np.array_equal(h.eval(xs), [np.count_nonzero(vals <= x) / 300 for x in xs])
    assert np.array_equal(h.eval_left(xs), [np.count_nonzero(vals < x) / 300 for x in xs])
    gx, gy = h.graph()
    assert np.array_equal(gx, np.repeat(h.atoms, 2))
    assert np.array_equal(gy[1::2], h.eval(h.atoms))
    assert np.array_equal(gy[0::2], h.eval_left(h.atoms))


def _moments(vals, k_max):
    return spectra_moments([np.asarray(vals, dtype=float)], k_max).means


def test_empirical_moment_examples():
    m = _moments([1, 2, 3], 2)
    assert m[2] == pytest.approx(14 / 3)
    assert m[0] == 1.0


def test_empirical_moment_matrix_power_oracle():
    x = sample_shaped(staircase(3).dilate(2), EntryDistribution("real-gaussian"), (55, 0))
    w = covariance(x, 2)
    s = eigenvalues(w)
    m = w.entries
    w3 = m @ m @ m
    oracle = np.trace(w3).real / w.dim
    assert abs(_moments(s.values, 3)[3] - oracle) <= 1e-8 * abs(oracle)


def test_empirical_moment_consistency_with_cdf():
    vals = [0.5, 1.5, 1.5, 4.0]
    f = StepCDF(vals)
    m = _moments(vals, 3)
    for k in range(4):
        via_cdf = np.sum(f.atoms**k * f.multiplicities) / f.total
        assert m[k] == pytest.approx(via_cdf, rel=1e-12)


def test_empirical_moments_stop_at_first_overflowing_order():
    # 10^308 is finite and 10^309 is not; the error names that order and
    # numpy's overflow warning, an error under the test filter, stays silent
    with pytest.raises(OutsideDomainError, match=r"k = 309 "):
        spectra_moments([np.array([10.0])], 400)
    assert np.isfinite(spectra_moments([np.array([10.0])], 308).means[308])


def test_levy_identity_and_point_masses():
    f = StepCDF([0.0])
    assert levy_distance(f, f) == 0.0
    assert levy_distance(f, StepCDF([0.5])) == pytest.approx(0.5, abs=1e-8)
    assert levy_distance(f, StepCDF([2.0])) == pytest.approx(1.0, abs=1e-8)


def _levy_feasible(f, g, eps: float) -> bool:
    """Brute-force check of F(x-eps)-eps <= G(x) <= F(x+eps)+eps, both ways round.

    Swept at the knots of both CDFs, the knots shifted by +-eps, the
    floating-point neighbours of all of those and a dense uniform grid, on
    values and on left limits.
    """
    knots = np.concatenate([f.knots()[0], g.knots()[0]])
    base = np.concatenate([knots, knots - eps, knots + eps])
    sweep = np.concatenate([base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf),
                            np.linspace(base.min() - 1.0, base.max() + 1.0, 4001)])
    for a, b in ((f, g), (g, f)):
        for a_at, b_at in ((a.eval, b.eval), (a.eval_left, b.eval_left)):
            here = b_at(sweep)
            if np.any(here < a_at(sweep - eps) - eps) or np.any(here > a_at(sweep + eps) + eps):
                return False
    return True


def _assert_levy_exact(f, g):
    eps = levy_distance(f, g)
    assert _levy_feasible(f, g, eps + 1e-12)
    if eps > 1e-6:
        assert not _levy_feasible(f, g, eps * (1 - 1e-6))


@settings(max_examples=150, deadline=None)
@given(small_steps, grid_cdfs())
def test_levy_exact_step_vs_grid(f, g):
    _assert_levy_exact(f, g)


@settings(max_examples=150, deadline=None)
@given(small_steps, small_steps)
def test_levy_exact_step_vs_step(f, g):
    _assert_levy_exact(f, g)


def test_levy_exact_on_pinned_pair():
    # a bisection over eps probing at shifted knots under-reports this pair by 3.3e-3
    rng = np.random.default_rng(129)
    f = StepCDF(rng.uniform(-0.2, 1.2, 33))
    xs = np.sort(rng.uniform(0.0, 1.0, 20))
    fs = np.sort(rng.uniform(0.0, 1.0, 20))
    fs[0], fs[-1] = 0.0, 1.0
    _assert_levy_exact(f, GridCDF(xs, fs))


@settings(max_examples=40, deadline=None)
@given(step_cdfs, step_cdfs)
def test_levy_symmetry(f, g):
    assert levy_distance(f, g) == pytest.approx(levy_distance(g, f), abs=5e-9)


@settings(max_examples=50, deadline=None)
@given(step_cdfs, step_cdfs, step_cdfs)
def test_levy_triangle_inequality(f, g, h):
    dfh = levy_distance(f, h)
    dfg = levy_distance(f, g)
    dgh = levy_distance(g, h)
    assert dfh <= dfg + dgh + 1e-12


def test_ks_examples():
    f = StepCDF([0.0])
    assert ks_distance(f, f) == 0.0
    assert ks_distance(f, StepCDF([1.0])) == 1.0


@settings(max_examples=20, deadline=None)
@given(step_cdfs, step_cdfs)
def test_ks_dominates_levy(f, g):
    assert ks_distance(f, g) >= levy_distance(f, g) - 1e-9


def test_knots_are_eval_and_eval_left_bit_for_bit():
    rng = substream(16, 0)
    xs = np.sort(rng.uniform(0.0, 1.0, 30))
    for cdf in (StepCDF(rng.integers(0, 9, 200) / 8.0), StepCDF(rng.standard_normal(50)),
                GridCDF(xs, np.linspace(0.0, 1.0, 30) ** 2)):
        pts, at, left = cdf.knots()
        assert at.tobytes() == cdf.eval(pts).tobytes()
        assert left.tobytes() == cdf.eval_left(pts).tobytes()


def _assert_union_distances(f, g):
    for a, b in ((f, g), (g, f)):
        assert levy_distance(a, b).hex() == levy_union(a, b).hex()
        assert ks_distance(a, b).hex() == ks_union(a, b).hex()


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_steps, tied_steps), grid_cdfs())
def test_distances_equal_union_references_step_and_grid(f, g):
    # both orders: step vs grid and grid vs step
    _assert_union_distances(f, g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_steps, tied_steps), st.one_of(small_steps, tied_steps))
def test_distances_equal_union_references_step_and_step(f, g):
    _assert_union_distances(f, g)


@settings(max_examples=100, deadline=None)
@given(st.floats(10.0, 18.0), st.lists(st.integers(0, 30), min_size=1, max_size=40),
       st.lists(st.integers(0, 30), min_size=1, max_size=40))
def test_distances_equal_union_references_where_rounding_merges_vertices(exp10, ticks, ticks2):
    # atoms 1e-15 apart relative to 1e10..1e18: x + y rounds two vertices of a
    # graph onto one u, where np.interp's height, not the vertex's, is the reference
    base = 10.0 ** exp10
    f = StepCDF(base * (1.0 + 1e-15 * np.array(ticks, dtype=float)))
    g = StepCDF(base * (1.0 + 1e-15 * np.array(ticks2, dtype=float)))
    _assert_union_distances(f, g)
    _assert_union_distances(f, GridCDF(base * (1.0 + 1e-15 * np.arange(0.0, 40.0, 4.0)),
                                       np.linspace(0.0, 1.0, 10)))


def test_ks_evaluates_each_cdf_only_at_the_other_knots(monkeypatch):
    # the union of knots would pass 200,000 + m points to each step evaluation
    m = 524
    f = StepCDF(substream(17, 0).uniform(0.0, 1.0, 200_000))
    g = GridCDF(np.linspace(0.0, 1.0, m), np.linspace(0.0, 1.0, m) ** 3)
    want = ks_union(f, g)
    sizes = {"eval": [], "eval_left": []}
    for name in sizes:
        method = getattr(StepCDF, name)
        monkeypatch.setattr(StepCDF, name, lambda self, x, method=method, name=name:
                            sizes[name].append(np.size(x)) or method(self, x))
    assert ks_distance(f, g) == want > 0
    assert sizes == {"eval": [m], "eval_left": [m]}


def test_grid_cdf_eval():
    g = GridCDF([0.0, 1.0, 2.0], [0.0, 0.25, 1.0])
    assert g.eval(-1.0) == 0.0
    assert g.eval(0.5) == pytest.approx(0.125)
    assert g.eval(5.0) == 1.0
    assert g.mass == 1.0
    with pytest.raises(ValueError):
        GridCDF([0.0, 5e-324], [0.0, 1.0])  # slope overflows


def test_histogram_example():
    h = histogram([1, 1, 3], 2, (0.0, 4.0))
    assert np.allclose(h.density, [2 / (3 * 2), 1 / (3 * 2)])
    assert np.sum(h.density * np.diff(h.edges)) == pytest.approx(1.0)
    assert h.below == 0 and h.above == 0


def test_histogram_overflow_and_empty():
    h = histogram([0.5, 5.0], 4, (0.0, 4.0))
    assert h.above == 1 and h.total == 2
    empty = histogram(np.array([]), 3, (0.0, 1.0))
    assert empty.total == 0 and np.all(empty.density == 0)
    with pytest.raises(InvalidRangeError):
        histogram([1.0], 0, (0.0, 1.0))


@pytest.mark.parametrize("bins, value_range", [
    (4, (-math.inf, math.inf)), (4, (0.0, math.inf)), (4, (math.nan, 1.0)),
    (4, (-1e308, 1e308)),  # hi - lo overflows
    (10**6, (0.0, 1e-320)),  # bins of zero width
], ids=["both-infinite", "infinite-hi", "nan-lo", "width-overflows", "zero-width-bins"])
def test_histogram_rejects_nonfinite_ranges(bins, value_range):
    with pytest.raises(InvalidRangeError):
        histogram([1.0], bins, value_range)


def test_worker_pool_capped_by_replicas_and_cpus(monkeypatch):
    # the fork start method starts every worker at the first submit, so
    # max_workers must not follow a large jobs setting; nothing is forked here
    import concurrent.futures
    import os

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    dist = EntryDistribution("real-gaussian")
    serial = shape_ensemble_spectra(staircase(3), 3, dist, 3, seed=2)
    for jobs, replicas, want in ((5000, 3, 3), (5000, 9, 4), (2, 9, 2)):
        got = shape_ensemble_spectra(staircase(3), 3, dist, replicas, seed=2, jobs=jobs)
        assert started[-1] == want
        assert all(np.array_equal(a, b) for a, b in zip(got, serial))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    shape_ensemble_spectra(staircase(3), 3, dist, 3, seed=2, jobs=8)
    assert started[-1] == 1


def test_spectrum_shape_for_dilated_staircase():
    r, n = 2, 5
    x = sample_shaped(staircase(r).dilate(n), EntryDistribution("complex-gaussian"), (3, 0))
    s = eigenvalues(covariance(x, n))
    assert s.dim == r * n == len(s.values)
    assert s.values.min() >= -1e-10 * s.values.max()


def test_ensemble_moment_order_zero_exact():
    em = ensemble_moments(staircase(2), 4, EntryDistribution("rademacher"),
                          k_max=2, replicas=8, seed=5)
    assert em.means[0] == 1.0
    assert em.variances[0] == 0.0


def test_ensemble_first_moment_converges():
    r, n, reps = 2, 20, 200
    em = ensemble_moments(staircase(r), n, EntryDistribution("complex-gaussian"),
                          k_max=1, replicas=reps, seed=77)
    se = math.sqrt(em.variances[1] / reps)
    assert abs(em.means[1] - (r + 1) / 2) < 4 * se


def test_ensemble_deterministic():
    a = ensemble_moments(staircase(2), 6, EntryDistribution("centered-uniform"),
                         k_max=3, replicas=6, seed=21)
    b = ensemble_moments(staircase(2), 6, EntryDistribution("centered-uniform"),
                         k_max=3, replicas=6, seed=21)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)
