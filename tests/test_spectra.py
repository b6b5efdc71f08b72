import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from youngspec.errors import InvalidRangeError, NotHermitianError, OutsideDomainError, SolverFailureError
from youngspec import matrices
from youngspec.matrices import (
    CovarianceMatrix,
    EntryDistribution,
    ShapedMatrix,
    covariance,
    eigenvalues,
    sample_shaped,
)
from youngspec import spectra
from youngspec.partitions import Partition, staircase
from youngspec.spectra import (
    GridCDF,
    _replica_eigenvalues,
    StepCDF,
    histogram,
    ks_distance,
    levy_distance,
    shape_ensemble_spectra,
    spectra_moments,
)
from youngspec.streams import substream

from _distances import ks_union, levy_union, levy_union_gaps
from _gram import whole
from _rank import matching_rank

step_cdfs = st.lists(st.floats(-5, 5), min_size=1, max_size=12).map(StepCDF)
small_steps = st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=40).map(StepCDF)
# many values on few atoms, some on a grid knot
tied_steps = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=60).map(StepCDF)


@st.composite
def grid_cdfs(draw):
    xs = np.sort(draw(st.lists(st.floats(0, 1), min_size=2, max_size=20, unique=True)))
    assume(np.all(np.diff(xs) >= np.finfo(float).tiny))  # else slopes overflow: GridCDF rejects
    fs = np.sort(draw(st.lists(st.floats(0, 1), min_size=len(xs), max_size=len(xs))))
    return GridCDF(xs, fs)


def test_eigenvalues_diagonal():
    w = CovarianceMatrix(entries=np.diag([2.0, 3.0]).astype(complex))
    s = eigenvalues(w)
    assert np.allclose(s.values, [2.0, 3.0])


def test_eigenvalues_scalar_case():
    x = ShapedMatrix(entries=np.array([[2.0 + 0j]]))
    s = eigenvalues(covariance(x, 1))
    assert np.allclose(s.values, [4.0])


def test_eigenvalue_trace_identity():
    x = sample_shaped(staircase(2).dilate(3), EntryDistribution("complex-gaussian"), (8, 1))
    w = covariance(x, 3)
    # eigenvalues consumes W: the references come first
    tr = np.trace(whole(w)).real
    frob = np.sum(np.abs(whole(w)) ** 2)
    s = eigenvalues(w)
    assert abs(s.values.sum() - tr) <= 1e-10 * abs(tr)
    assert abs(np.sum(s.values**2) - frob) <= 1e-9 * frob


def test_eigenpair_residuals():
    # residual contract of the delegated solver on a sampled covariance
    x = sample_shaped(staircase(3).dilate(4), EntryDistribution("complex-gaussian"), (12, 0))
    w = whole(covariance(x, 4))
    vals, vecs = np.linalg.eigh(w)
    norm = np.linalg.norm(w, 2)
    for i in range(len(vals)):
        res = np.linalg.norm(w @ vecs[:, i] - vals[i] * vecs[:, i])
        assert res <= 1e-9 * norm


def test_eigenvalues_rejects_non_hermitian():
    w = CovarianceMatrix(entries=np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(NotHermitianError):
        eigenvalues(w)


@pytest.mark.parametrize("kind", ["complex-gaussian", "real-gaussian"])
def test_hermitian_gate_finds_one_asymmetric_pair(kind):
    # a whole matrix built outside covariance, dim 160, whose one asymmetric pair (158, 159)
    # lies next to its last corner
    lam = Partition((2, 1)).dilate(80)
    x = sample_shaped(lam, EntryDistribution(kind), (13, 0)).entries
    m = x @ x.conj().T / 80
    w = CovarianceMatrix(entries=m)
    m[158, 159] += 1e-6 * np.abs(m).max()
    asym, scale = np.abs(m - m.conj().T).max(), np.abs(m).max()
    assert np.count_nonzero(np.abs(m - m.conj().T) > 1e-10 * scale) == 2
    # the whole-matrix gate's message, figure for figure
    message = f"asymmetry {asym:.3e} exceeds {1e-10:.1e} * {scale:.3e}"
    with pytest.raises(NotHermitianError) as exc:
        eigenvalues(w)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind, bound", [("complex-gaussian", 1.15), ("real-gaussian", 1.15),
                                         ("rademacher", 1.25)])
def test_replica_peak_memory_is_bounded(kind, bound):
    # one replica holds X and BLOCK rows of the factoring's scratch or a draw's chunk: 1.11,
    # 1.11 and 1.21 times the bytes of X (a chunk's integers and mask set rademacher's); beside
    # a separate W it was 2.11, 2.0 and 2.0, and the one-shot pipeline peaked at 4.0
    import tracemalloc

    lam = Partition((2, 1)).dilate(300)
    task = (lam, 300, EntryDistribution(kind), 14, 0)
    x_bytes = lam.length() * lam.parts[0] * (16 if kind == "complex-gaussian" else 8)
    _replica_eigenvalues(*task)  # first-call allocations of numpy and LAPACK are not the replica's
    tracemalloc.start()
    try:
        _replica_eigenvalues(*task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * x_bytes, peak / x_bytes


_OPENBLAS = matrices._openblas() is not None


@contextlib.contextmanager
def _fallback():
    """The product and the solve without numpy's OpenBLAS routines: the whole x @ x.conj().T / n
    and np.linalg.eigvalsh."""
    with mock.patch.object(matrices, "_openblas", return_value=None):
        yield


def test_numpy_openblas_drivers_are_found():
    # numpy built on scipy-openblas ships the LAPACKE drivers, so its spectra take the in-place path
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") == "scipy-openblas":
        assert _OPENBLAS


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "fallback"])
@pytest.mark.parametrize("kind", ["complex-gaussian", "real-gaussian"])
@pytest.mark.parametrize("dim", [1, 2, 63, 64, 65, 200, 600])
def test_spectrum_is_eigvalsh_bit_for_bit(dim, kind, fallback):
    # a whole matrix built outside covariance; odd dims give a complex W that is Hermitian only
    # up to rounding: the lower triangle counts
    x = sample_shaped(Partition((1,)).dilate(dim), EntryDistribution(kind), (21, dim)).entries
    w = CovarianceMatrix(entries=x @ x.conj().T / dim)
    want = np.linalg.eigvalsh(w.entries)
    with _fallback() if fallback else contextlib.nullcontext():
        got = eigenvalues(w).values
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "fallback"])
def test_tied_rademacher_spectra_are_eigvalsh_bit_for_bit(fallback):
    # simulate --parts 1 --dilation 1 --entries rademacher: every value is 1
    dist = EntryDistribution("rademacher")
    with _fallback() if fallback else contextlib.nullcontext():
        rows = shape_ensemble_spectra(Partition((1,)), 1, dist, 3, 11)
    for i, row in enumerate(rows):
        w = covariance(sample_shaped(Partition((1,)), dist, (11, i)), 1)
        assert row.tobytes() == np.linalg.eigvalsh(w.entries).tobytes() == np.ones(1).tobytes()


@pytest.mark.skipif(not _OPENBLAS, reason="numpy's library has no LAPACKE drivers")
@pytest.mark.parametrize("kind", ["complex-gaussian", "real-gaussian"])
def test_lapack_path_solves_w_in_its_own_buffer(kind):
    x = sample_shaped(staircase(2).dilate(40), EntryDistribution(kind), (22, 0))
    w = covariance(x, 40)
    assert np.shares_memory(w.entries, x.entries)  # W was formed in X's buffer
    diagonal = np.diag(w.entries).copy()
    eigenvalues(w)
    # the driver writes its tridiagonal reduction's diagonal there, so it solved X's buffer
    # and no copy
    assert not np.array_equal(np.diag(w.entries), diagonal)


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "fallback"])
@pytest.mark.parametrize("dtype", [complex, float])
def test_all_nan_matrix_is_a_solver_failure(dtype, fallback):
    # NaN passes the Hermitian gate; the solver refuses it
    w = CovarianceMatrix(entries=np.full((3, 3), np.nan, dtype=dtype))
    with _fallback() if fallback else contextlib.nullcontext(), pytest.raises(SolverFailureError):
        eigenvalues(w)


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "fallback"])
@pytest.mark.parametrize("kind", ["complex-gaussian", "real-gaussian", "rademacher"])
@pytest.mark.parametrize("parts", [(3, 1, 1, 1), (4, 4, 1, 1, 1, 1), (4, 2, 1, 1, 1, 1), (6, 2, 2, 1, 1, 1, 1),
                                   (5, 4, 4, 1), (2, 2, 2, 1)])
def test_each_replica_has_its_diagrams_rank_deficit_in_exact_zeros(parts, kind, fallback):
    # rows - rank n exact zeros a replica at n = 1 and 3, as its first values, on either path;
    # rademacher rows can be equal or opposite, which makes further true zeros, rounded either way
    for n in (1, 3):
        with _fallback() if fallback else contextlib.nullcontext():
            rows = shape_ensemble_spectra(Partition(parts).dilate(n), n, EntryDistribution(kind), 3, 9)
        want = n * (len(parts) - matching_rank(parts))
        zeros = np.count_nonzero(rows == 0.0, axis=1)
        assert np.all(np.diff(rows, axis=1) >= 0)
        if kind == "rademacher":
            assert np.all(zeros >= want), (n, zeros)
        else:
            assert np.all(zeros == want) and np.all(rows[:, :want] == 0.0), (n, zeros)


@pytest.mark.parametrize("entries", [
    np.asfortranarray(np.diag([3.0, 1.0, 2.0]) + 0.5),  # not C-contiguous
    np.diag([3.0, 1.0, 2.0]).astype(np.float32) + 0.5,  # not float64
    np.diag([3.0, 1.0, 2.0]).astype(int) + 1,  # not a float
])
def test_other_layouts_and_dtypes_are_converted_first(entries):
    want = np.linalg.eigvalsh(np.array(entries, dtype=float))
    frozen = np.array(entries, dtype=complex)
    frozen.flags.writeable = False
    for m in (entries, frozen):
        got = eigenvalues(CovarianceMatrix(entries=m)).values
        assert got.dtype == np.float64 and np.allclose(got, want, rtol=1e-6)
    assert not frozen.flags.writeable  # a read-only W is solved in a copy


@pytest.mark.parametrize("layout", [
    lambda a: a,
    np.asfortranarray,  # entries a column apart within a row
    lambda a: np.ascontiguousarray(a[::-1])[::-1],  # rows a negative stride apart
    lambda a: a.astype(np.float32),
], ids=["c-order", "fortran", "reversed-rows", "float32"])
def test_named_triangle_is_read_in_any_layout(layout):
    # rows LAPACK cannot read in place are copied first; the other triangle is never read, and
    # the exact zeros join the values in order
    full = np.array([[3.0, 0.5, 0.25], [0.5, 1.0, 0.125], [0.25, 0.125, 2.0]])
    want = np.concatenate([[0.0], np.linalg.eigvalsh(full)])
    junk = np.full((3, 3), 7.0)
    for triangle, m in (("upper", np.triu(full) + np.tril(junk, -1)),
                        ("lower", np.tril(full) + np.triu(junk, 1))):
        got = eigenvalues(CovarianceMatrix(entries=layout(m), triangle=triangle, zeros=1)).values
        assert got.dtype == np.float64 and np.allclose(got, want, rtol=1e-6), triangle


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
    assert h.multiplicities.sum() == 300 and len(h.atoms) == 7
    assert np.array_equal(h.eval(xs), [np.count_nonzero(vals <= x) / 300 for x in xs])
    assert np.array_equal(h.eval_left(xs), [np.count_nonzero(vals < x) / 300 for x in xs])
    pts, at, left = h.knots()
    assert np.array_equal(pts, h.atoms)
    assert np.array_equal(at, h.eval(h.atoms))
    assert np.array_equal(left, h.eval_left(h.atoms))


def _moments(vals, k_max):
    return spectra_moments([np.asarray(vals, dtype=float)], k_max).means


def test_empirical_moment_examples():
    m = _moments([1, 2, 3], 2)
    assert m[2] == pytest.approx(14 / 3)
    assert m[0] == 1.0


def test_empirical_moment_matrix_power_oracle():
    x = sample_shaped(staircase(3).dilate(2), EntryDistribution("real-gaussian"), (55, 0))
    w = covariance(x, 2)
    m = whole(w)
    w3 = m @ m @ m  # before eigenvalues, which consumes W
    oracle = np.trace(w3).real / len(m)
    s = eigenvalues(w)
    assert abs(_moments(s.values, 3)[3] - oracle) <= 1e-8 * abs(oracle)


def test_empirical_moment_consistency_with_cdf():
    vals = [0.5, 1.5, 1.5, 4.0]
    f = StepCDF(vals)
    m = _moments(vals, 3)
    for k in range(4):
        via_cdf = np.sum(f.atoms**k * f.multiplicities) / f.multiplicities.sum()
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
                GridCDF(xs, np.linspace(0.0, 1.0, 30) ** 2),
                GridCDF(xs, np.linspace(0.25, 1.0, 30) ** 2)):  # a jump of 1/16 at xs[0]
        pts, at, left = cdf.knots()
        assert at.tobytes() == cdf.eval(pts).tobytes()
        assert left.tobytes() == cdf.eval_left(pts).tobytes()
    assert left[0] == 0.0 and at[0] == 0.0625


def test_grid_cdf_jump_at_its_first_knot():
    # S jumps to 0.6 at 1 and to 1 at 3; G jumps to 0.5 at 1 and rises to 1 at 2.
    # The sup |S - G| is 0.4, on (2, 3); reading G's left limit at 1 as 0.5
    # would report the 0.5 gap to S(1-) = 0
    f, g = StepCDF([1.0] * 6 + [3.0] * 4), GridCDF([1.0, 2.0], [0.5, 1.0])
    assert g.eval_left([0.5, 1.0, 1.5]).tolist() == [0.0, 0.0, 0.75]
    assert g.eval([0.5, 1.0, 1.5]).tolist() == [0.0, 0.5, 0.75]
    for a, b in ((f, g), (g, f)):
        assert ks_distance(a, b) == pytest.approx(0.4, abs=1e-15)
        assert levy_distance(a, b) == pytest.approx(0.4, abs=1e-15)
        _assert_levy_exact(a, b)


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


# knots of the larger CDF that the distances walk at a time
B = spectra.KNOT_BLOCK


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 5]), st.one_of(small_steps, tied_steps),
       st.one_of(small_steps, tied_steps, grid_cdfs()))
def test_distances_equal_union_references_with_small_blocks(block, f, g):
    # blocks of a few knots put a boundary between almost every pair of knots
    with mock.patch.object(spectra, "KNOT_BLOCK", block):
        _assert_union_distances(f, g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.floats(10.0, 18.0),
       st.lists(st.integers(0, 30), min_size=1, max_size=40),
       st.lists(st.integers(0, 30), min_size=1, max_size=40))
def test_merged_vertices_equal_union_references_with_small_blocks(block, exp10, ticks, ticks2):
    base = 10.0 ** exp10
    f = StepCDF(base * (1.0 + 1e-15 * np.array(ticks, dtype=float)))
    g = StepCDF(base * (1.0 + 1e-15 * np.array(ticks2, dtype=float)))
    with mock.patch.object(spectra, "KNOT_BLOCK", block):
        _assert_union_distances(f, g)


def _lattice(knots: int, heavy: int, copies: int) -> np.ndarray:
    """Values on the lattice (k + 1/2)/knots, the atom at index ``heavy`` taken ``copies``
    times: the step is furthest from the uniform law at that atom."""
    atoms = (np.arange(knots) + 0.5) / knots
    return substream(23, knots).permutation(np.concatenate([atoms, np.full(copies - 1, atoms[heavy])]))


def _assert_gap_only_at_knot(big, k, small):
    # the largest gap is attained only at u from the (k, left) vertex of the larger CDF
    # up to its (k + 1, left) vertex: only the knot k, which ends the first block, and
    # the smaller graph's vertices between them carry it
    u, gaps = levy_union_gaps(big, small)
    at = u[gaps == gaps.max()]
    span = spectra._rotated_graph(*big.knots(k, k + 2))[0]
    assert span[0] <= at.min() and at.max() < span[2], (at, span)


_UNIFORM = GridCDF(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 101))


@pytest.mark.parametrize("knots", [2 * B - 1, 2 * B, 2 * B + 1])
def test_distances_at_block_multiples_equal_union_references(knots):
    # a run of 500 tied values on the first block's last knot
    f = StepCDF(_lattice(knots, B - 1, 500))
    assert len(f) == knots
    _assert_gap_only_at_knot(f, B - 1, _UNIFORM)
    _assert_union_distances(f, _UNIFORM)


def test_tied_run_across_a_block_boundary_step_vs_step():
    # both steps are longer than a block; the run of 700 tied values on the first
    # block's last knot spans a block's length of sorted positions
    f = StepCDF(_lattice(B + B // 4, B - 1, 700))
    g = StepCDF(substream(37, 2).uniform(0.0, 1.0, B + 3))
    assert len(f) > len(g) > B
    _assert_gap_only_at_knot(f, B - 1, g)
    _assert_union_distances(f, g)


def test_vertices_merged_across_a_block_boundary_equal_union_references():
    # consecutive floats from just below 2^40 (about 1.1e12): past 2^40 the float
    # spacing doubles, and the top vertex of the first block's last knot, a run of 350
    # tied values, rounds onto the u of both vertices of the next block's first knot
    start = np.float64(2.0**40 - (B + 1) * 2.0**-13)
    atoms = (start.view(np.int64) + np.arange(B + B // 4)).view(np.float64)
    f = StepCDF(np.concatenate([atoms, np.full(349, atoms[B - 1])]))
    u = spectra._rotated_graph(*f.knots(B - 1, B + 1))[0]
    assert u[0] < u[1] == u[2] == u[3]
    _assert_union_distances(f, StepCDF(atoms[::7]))
    _assert_union_distances(f, GridCDF(atoms[::64], np.linspace(0.0, 1.0, len(atoms[::64]))))


def test_grid_longer_than_a_block_equal_union_references():
    # the grid is walked in blocks; the step's top vertex, where the gap is largest,
    # falls between the u of the grid's knots B - 1 and B
    xs = np.linspace(0.0, 1.0, 2 * B + 1)
    g = GridCDF(xs, xs)
    f = StepCDF([-0.5 / B] * 3)
    _assert_gap_only_at_knot(g, B - 1, f)
    _assert_union_distances(f, g)


def test_step_cdf_atoms_and_counts_are_np_unique_bit_for_bit():
    rng = substream(29, 0)
    zeros = rng.choice([-0.0, 0.0], 3000)
    for values in ([0.0, -0.0, 1.0, -0.0, 0.0, -1.0], [-0.0], [0.0, -0.0], zeros,
                   np.concatenate([zeros, rng.integers(-3, 4, 3000) / 2.0]),
                   rng.standard_normal(5000), rng.integers(0, 50, 70_000) / 7.0):
        f = StepCDF(values)
        atoms, counts = np.unique(np.asarray(values, dtype=float), return_counts=True)
        assert f.atoms.tobytes() == atoms.tobytes()
        assert f.multiplicities.dtype == counts.dtype
        assert f.multiplicities.tobytes() == counts.tobytes()


@pytest.mark.parametrize("values", [[np.nan], [1.0, np.nan, 0.5], [np.nan, np.nan]])
def test_step_cdf_refuses_nan(values):
    # np.unique would fold the NaNs into one atom past every other
    with pytest.raises(OutsideDomainError, match="NaN"):
        StepCDF(values)


def test_distances_traced_memory_is_bounded_per_sample():
    # StepCDF holds 16 bytes a sample (atoms and counts) and builds a run mask of 1;
    # the distances build one block's arrays at a time, never one a sample: at
    # four blocks and one knot the whole layer stays within 30 bytes a sample
    # (the union of knots took 72)
    import tracemalloc

    n = 4 * B + 1
    values = substream(31, 0).uniform(0.0, 1.0, n)
    grid = GridCDF(np.linspace(0.0, 1.0, 512), np.linspace(0.0, 1.0, 512) ** 2)
    ks_distance(StepCDF(values[:100]), grid)  # first-call allocations are not per sample
    tracemalloc.start()
    try:
        f = StepCDF(values)
        levy_distance(f, grid)
        ks_distance(f, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * n, peak / n


def test_grid_cdf_eval():
    g = GridCDF([0.0, 1.0, 2.0], [0.0, 0.25, 1.0])
    assert g.eval(-1.0) == 0.0
    assert g.eval(0.5) == pytest.approx(0.125)
    assert g.eval(5.0) == 1.0
    assert g.knots()[1][-1] == 1.0
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


def test_histogram_density_of_a_bin_wider_than_float_max_over_its_count():
    # 2 * 1.7e308 overflows, but the density 2 / (2 * 1.7e308) is a (subnormal) float
    h = histogram([0.5, 1.0], 1, (0.0, 1.7e308))
    assert h.density.tolist() == [2 / 2 / 1.7e308] and h.density[0] > 0
    h = histogram([-1.0, 1.0, 2.0, 3.0], 2, (-1e308, 3.1))
    assert h.counts.tolist() == [0.0, 4.0] and h.density[1] == 4 / 4 / np.diff(h.edges)[1]
    # where total * width is finite the density is counts / (total * width), bit for bit
    h = histogram([1, 1, 3], 2, (0.0, 4.0))
    assert h.density.tolist() == [2 / (3 * 2.0), 1 / (3 * 2.0)]


@pytest.mark.parametrize("bins, value_range", [
    (4, (-math.inf, math.inf)), (4, (0.0, math.inf)), (4, (math.nan, 1.0)),
    (4, (-1e308, 1e308)),  # hi - lo overflows
    (10**6, (0.0, 1e-320)),  # bins of zero width
], ids=["both-infinite", "infinite-hi", "nan-lo", "width-overflows", "zero-width-bins"])
def test_histogram_rejects_nonfinite_ranges(bins, value_range):
    with pytest.raises(InvalidRangeError):
        histogram([1.0], bins, value_range)


@pytest.fixture
def started_threads(monkeypatch):
    """The threads shape_ensemble_spectra starts, beside the caller: one a further worker."""
    import threading

    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.mark.skipif(not _OPENBLAS, reason="numpy's OpenBLAS cannot be told its thread count")
def test_worker_pool_capped_by_replicas_and_cpus(monkeypatch, started_threads):
    # at most min(jobs, replicas, CPUs) replicas run at once; None stands for the CPUs
    import os

    monkeypatch.setattr(matrices, "SIDE_BY_SIDE", (0, 1 << 40))  # staircase(3)'s replicas too
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    dist = EntryDistribution("real-gaussian")
    serial = shape_ensemble_spectra(staircase(3), 3, dist, 3, seed=2, jobs=1)
    assert not started_threads
    for jobs, replicas, want in ((5000, 3, 3), (5000, 9, 4), (2, 9, 2), (None, 9, 4), (None, 2, 2)):
        started_threads.clear()
        got = shape_ensemble_spectra(staircase(3), 3, dist, replicas, seed=2, jobs=jobs)
        assert len(started_threads) + 1 == want == matrices.replica_workers(1, replicas, jobs)
        assert not any(t.is_alive() for t in started_threads)
        assert all(np.array_equal(a, b) for a, b in zip(got, serial))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    started_threads.clear()
    shape_ensemble_spectra(staircase(3), 3, dist, 3, seed=2, jobs=8)
    assert not started_threads and matrices.replica_workers(1, 3, 8) == 1


def test_replicas_side_by_side_only_between_the_bounds(monkeypatch):
    # the GIL crossover and the memory cap, in one replica's bytes, by the budget's own formula
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    real, cplx = 8, 16
    assert matrices.replica_bytes(1000, 1000, cplx) == 16_000_000 + 16 * 65 * 1000  # ensemble-r2
    lo, hi = matrices.SIDE_BY_SIDE
    for rows, cols, item, inside in ((20, 20, real, False), (32, 32, cplx, False), (200, 200, real, True),
                                     (200, 200, cplx, True), (700, 700, real, True),
                                     (1000, 1000, cplx, False), (1000, 1000, real, False)):
        replica = matrices.replica_bytes(rows, cols, item)
        assert (lo <= replica <= hi) == inside, (rows, item, replica)
        assert matrices.replica_workers(replica, 80, 2) == (2 if inside and _OPENBLAS else 1)
    with _fallback():  # no thread count to pin: one at a time
        assert matrices.replica_workers(matrices.replica_bytes(200, 200, real), 80, 2) == 1


def _blas_threads(count=None):
    """numpy's OpenBLAS thread count, set first to ``count`` where given."""
    lib = matrices._openblas()
    if count is not None:
        lib.scipy_openblas_set_num_threads64_(count)
    return lib.scipy_openblas_get_num_threads64_()


@pytest.fixture
def blas_threads():
    """Restores the process's OpenBLAS thread count after a test that sets it."""
    before = _blas_threads()
    yield
    _blas_threads(before)


def _traced_replica(lam, n, dist):
    """The traced peak of one replica's spectrum, after a first run that makes numpy's and
    LAPACK's first-call allocations."""
    import tracemalloc

    _replica_eigenvalues(lam, n, dist, 3, 0)
    tracemalloc.start()
    try:
        _replica_eigenvalues(lam, n, dist, 3, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_REPLICAS = pytest.mark.parametrize("parts, n", [((2, 1), 150), ((3, 1), 100), ((1, 1, 1), 100),
                                                  ((5, 4, 4, 1), 40)],
                                    ids=["square", "wide", "tall", "four-groups"])
_KINDS = pytest.mark.parametrize("kind", ["complex-gaussian", "real-gaussian", "rademacher"])


@_REPLICAS
@_KINDS
def test_replica_bytes_bounds_the_traced_replica(parts, n, kind):
    # the draw's chunk, the factoring's scratch rows and reflector scalars, or the eigenvalues
    # beside X: the largest of the three bounds the replica's traced peak, a few kB of Python
    # objects aside; it is within 0.88 to 0.96 of the peak where the draw takes a chunk (at
    # these sizes complex draws take 8 bytes an entry of the 17 it counts), and real-gaussian
    # draws take none
    lam, dist = Partition(parts).dilate(n), EntryDistribution(kind)
    need = matrices.replica_bytes(lam.length(), lam.parts[0], dist.itemsize)
    peak = _traced_replica(lam, n, dist)
    assert peak <= need + 4096, (peak, need)
    if kind != "real-gaussian":
        assert peak >= 0.85 * need, (peak, need)


@_REPLICAS
@_KINDS
def test_replica_bytes_bounds_the_traced_fallback_replica(parts, n, kind):
    # without numpy's OpenBLAS routines the product holds X, its conjugate (complex) and the
    # whole W, and the solve W beside eigvalsh's copy, which numpy takes out of tracemalloc's
    # sight: the traced peak is the product's phase, and the need holds two W besides
    lam, dist = Partition(parts).dilate(n), EntryDistribution(kind)
    rows, cols = lam.length(), lam.parts[0]
    with _fallback():
        need = matrices.replica_bytes(rows, cols, dist.itemsize)
        peak = _traced_replica(lam, n, dist)
    product = dist.itemsize * (rows * cols * (2 if kind == "complex-gaussian" else 1) + rows * rows)
    assert peak <= need + 4096, (peak, need)
    assert need >= 2 * dist.itemsize * rows * rows and peak >= 0.96 * product, (peak, need, product)


@pytest.mark.skipif(not _OPENBLAS, reason="numpy's OpenBLAS cannot be told its thread count")
@pytest.mark.parametrize("kind", ["complex-gaussian", "real-gaussian"])
def test_side_by_side_spectra_are_one_thread_bits_for_any_jobs(kind, blas_threads, monkeypatch):
    # mid-sized replicas: the same bits for jobs 1, 2 and 3 whatever the process's count was,
    # each row that of its replica solved on one BLAS thread, and the count restored
    shape, dist = Partition((2, 1)).dilate(40), EntryDistribution(kind)
    assert matrices.SIDE_BY_SIDE[0] <= matrices.replica_bytes(80, 80, dist.itemsize) <= matrices.SIDE_BY_SIDE[1]
    _blas_threads(1)
    want = [eigenvalues(covariance(sample_shaped(shape, dist, (19, i)), 40)).values for i in range(5)]
    seen, solve = [], spectra._replica_eigenvalues

    def replica(*args):
        seen.append(_blas_threads())
        return solve(*args)

    monkeypatch.setattr(spectra, "_replica_eigenvalues", replica)
    for before in (1, 2):
        for jobs in (1, 2, 3):
            _blas_threads(before)
            got = shape_ensemble_spectra(shape, 40, dist, 5, 19, jobs=jobs)
            assert _blas_threads() == before
            assert all(row.tobytes() == w.tobytes() for row, w in zip(got, want)), (before, jobs)
    assert seen == [1] * 30  # every replica solved on one thread


@pytest.mark.skipif(not _OPENBLAS, reason="numpy's OpenBLAS cannot be told its thread count")
def test_side_by_side_failure_stops_the_workers_and_restores_the_count(monkeypatch, blas_threads,
                                                                        started_threads):
    # replica 1 fails at once while the others take 20 ms: the caller gets its error once every
    # worker has joined, no further replica starts, and the thread count is as before
    import os
    import time

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    calls = []

    def replica(*args):
        calls.append(args[-1])
        if args[-1] == 1:
            raise SolverFailureError("replica 1")
        time.sleep(0.02)
        return np.zeros(80)

    monkeypatch.setattr(spectra, "_replica_eigenvalues", replica)
    _blas_threads(2)
    with pytest.raises(SolverFailureError, match="replica 1"):
        shape_ensemble_spectra(Partition((2, 1)).dilate(40), 40, EntryDistribution("real-gaussian"),
                               40, 7, jobs=2)
    assert _blas_threads() == 2
    assert len(started_threads) == 1 and not started_threads[0].is_alive()
    assert 1 in calls and len(calls) <= 4, calls


@pytest.mark.skipif(not _OPENBLAS, reason="numpy's OpenBLAS cannot be told its thread count")
def test_replica_over_the_cap_runs_alone_on_the_process_count(monkeypatch, blas_threads,
                                                              started_threads):
    # with the cap below a staircase(20) replica, it runs on the caller's thread at the count
    # the process has, which nothing sets
    lib, seen, sets = matrices._openblas(), [], []
    solve = spectra._replica_eigenvalues

    def replica(*args):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return solve(*args)

    _blas_threads(2)
    monkeypatch.setattr(matrices, "SIDE_BY_SIDE", (0, 1000))
    monkeypatch.setattr(spectra, "_replica_eigenvalues", replica)
    monkeypatch.setattr(lib, "scipy_openblas_set_num_threads64_", sets.append)
    dist = EntryDistribution("complex-gaussian")
    assert matrices.replica_bytes(20, 20, 16) > 1000
    got = shape_ensemble_spectra(staircase(20), 20, dist, 3, 5, jobs=3)
    assert seen == [2, 2, 2] and not sets and not started_threads
    for i, row in enumerate(got):
        assert np.array_equal(row, eigenvalues(covariance(sample_shaped(staircase(20), dist, (5, i)), 20)).values)


@pytest.mark.skipif(not _OPENBLAS, reason="numpy's OpenBLAS cannot be told its thread count")
def test_side_by_side_stress_more_workers_than_cores(monkeypatch):
    # eight workers on a shortened switch interval fill every row once, in its own place
    import os
    import sys

    monkeypatch.setattr(matrices, "SIDE_BY_SIDE", (0, 1 << 40))
    dist = EntryDistribution("real-gaussian")
    serial = shape_ensemble_spectra(staircase(6), 6, dist, 48, 3, jobs=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = shape_ensemble_spectra(staircase(6), 6, dist, 48, 3, jobs=8)
            assert np.array_equal(got, serial)
    finally:
        sys.setswitchinterval(interval)


def test_spectrum_shape_for_dilated_staircase():
    r, n = 2, 5
    x = sample_shaped(staircase(r).dilate(n), EntryDistribution("complex-gaussian"), (3, 0))
    s = eigenvalues(covariance(x, n))
    assert s.dim == r * n == len(s.values)
    assert s.values.min() >= -1e-10 * s.values.max()


def _ensemble_moments(lam, n, dist, k_max, replicas, seed):
    """Moment table of the n-fold dilation of lam, scaled by n."""
    return spectra_moments(shape_ensemble_spectra(lam.dilate(n), n, dist, replicas, seed), k_max)


def test_ensemble_moment_order_zero_exact():
    em = _ensemble_moments(staircase(2), 4, EntryDistribution("rademacher"),
                           k_max=2, replicas=8, seed=5)
    assert em.means[0] == 1.0
    assert em.variances[0] == 0.0


def test_ensemble_first_moment_converges():
    r, n, reps = 2, 20, 200
    em = _ensemble_moments(staircase(r), n, EntryDistribution("complex-gaussian"),
                           k_max=1, replicas=reps, seed=77)
    se = math.sqrt(em.variances[1] / reps)
    assert abs(em.means[1] - (r + 1) / 2) < 4 * se


def test_ensemble_deterministic():
    a = _ensemble_moments(staircase(2), 6, EntryDistribution("centered-uniform"),
                          k_max=3, replicas=6, seed=21)
    b = _ensemble_moments(staircase(2), 6, EntryDistribution("centered-uniform"),
                          k_max=3, replicas=6, seed=21)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)


@pytest.mark.parametrize("kind", ["complex-gaussian", "real-gaussian"])
def test_ensemble_spectra_is_one_row_per_replica(kind):
    # one C-contiguous float64 array; ravel() pools it without a copy
    shape, replicas = Partition((3, 2)).dilate(4), 5
    spectra = shape_ensemble_spectra(shape, 4, EntryDistribution(kind), replicas, seed=8)
    assert spectra.dtype == np.float64 and spectra.shape == (replicas, shape.length())
    assert spectra.flags.c_contiguous
    assert np.shares_memory(spectra, spectra.ravel())
    for i, row in enumerate(spectra):
        w = covariance(sample_shaped(shape, EntryDistribution(kind), (8, i)), 4)
        assert np.array_equal(row, eigenvalues(w).values)


def test_ensemble_spectra_equal_across_jobs():
    # two worker threads fill the same array as the serial run (mid-sized replicas: dim 60)
    args = (staircase(3).dilate(20), 20, EntryDistribution("complex-gaussian"), 3, 13)
    serial = shape_ensemble_spectra(*args, jobs=1)
    pooled = shape_ensemble_spectra(*args, jobs=2)
    assert pooled.dtype == serial.dtype and pooled.flags.c_contiguous
    assert np.array_equal(serial, pooled)


@pytest.mark.parametrize("replicas, dim", [(1, 7), (2, 1), (3, 50), (6, 1000), (2, 9000)])
def test_spectra_moments_match_per_replica_reference(replicas, dim):
    # bit for bit: each replica's mean(lambda^k) on its own, then the mean
    # and unbiased variance of that table over the replicas
    spectra = substream(41, dim).exponential(1.5, (replicas, dim))
    k_max = 6
    table = np.array([[float(np.mean(row**k)) for row in spectra] for k in range(k_max + 1)])
    em = spectra_moments(spectra, k_max)
    assert np.array_equal(em.means, table.mean(axis=1))
    want = table.var(axis=1, ddof=1) if replicas > 1 else np.zeros(k_max + 1)
    assert np.array_equal(em.variances, want)
    listed = spectra_moments(list(spectra), k_max)  # a list of equal-length arrays too
    assert np.array_equal(listed.means, em.means) and np.array_equal(listed.variances, em.variances)
