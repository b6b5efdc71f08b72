import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from youngspec import matrices
from youngspec.errors import DegenerateTruncationError, EmptyPartitionError
from youngspec.matrices import (
    ENTRY_KINDS,
    EntryDistribution,
    ShapedMatrix,
    _truncated_second_moment,
    covariance,
    eigenvalues,
    sample_shaped,
)
from youngspec.partitions import Partition, square, staircase
from youngspec.streams import substream

from _gram import whole
from _rank import matching_rank


def test_staircase_zero_pattern():
    x = sample_shaped(staircase(3), EntryDistribution("complex-gaussian"), (1, 0))
    support = np.abs(x.entries) > 0
    expected = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]], dtype=bool)
    assert np.array_equal(support, expected)
    # structural zeros are exact, not small floats
    assert x.entries[2, 1] == 0 and x.entries[2, 2] == 0 and x.entries[1, 2] == 0


def test_square_has_no_structural_zeros():
    x = sample_shaped(square(4), EntryDistribution("complex-gaussian"), (1, 0))
    assert np.all(np.abs(x.entries) > 0)


def test_zero_pattern_all_kinds():
    lam = Partition((3, 1)).dilate(2)
    mask = np.array([[lam.has_box(i, j) for j in range(1, lam.parts[0] + 1)]
                     for i in range(1, lam.length() + 1)])
    for kind in ENTRY_KINDS:
        x = sample_shaped(lam, EntryDistribution(kind), (5, 3))
        assert np.array_equal(np.abs(x.entries) > 0, mask)


def test_sampling_determinism():
    lam = staircase(4)
    dist = EntryDistribution("complex-gaussian")
    a = sample_shaped(lam, dist, (123, 7))
    b = sample_shaped(lam, dist, (123, 7))
    assert np.array_equal(a.entries, b.entries)
    c = sample_shaped(lam, dist, (123, 8))
    assert not np.array_equal(a.entries, c.entries)


def test_sample_empty_shape_raises():
    with pytest.raises(EmptyPartitionError):
        sample_shaped(Partition(()), EntryDistribution("rademacher"), (0, 0))


def test_block_index_matches_diagram():
    # dilated staircase boxes are exactly the pairs whose block labels
    # ceil(i/n) + ceil(j/n) sum to at most r+1
    r, n = 3, 2
    lam = staircase(r).dilate(n)
    for i in range(1, r * n + 2):
        for j in range(1, r * n + 2):
            in_diagram = lam.has_box(i, j)
            in_blocks = -(-i // n) + -(-j // n) <= r + 1
            if i <= r * n and j <= r * n:
                assert in_diagram == in_blocks
            else:
                assert not in_diagram


def test_truncation_noop_for_bounded_kind():
    base = EntryDistribution("rademacher")
    trunc = EntryDistribution("rademacher", 2.0)
    a = sample_shaped(staircase(3), base, (9, 0))
    b = sample_shaped(staircase(3), trunc, (9, 0))
    assert np.array_equal(a.entries, b.entries)


def test_truncation_degenerate():
    with pytest.raises(DegenerateTruncationError):
        EntryDistribution("rademacher", 1.0)
    with pytest.raises(DegenerateTruncationError):
        EntryDistribution("rademacher", trunc=0.5)


@pytest.mark.parametrize("cutoff", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_truncation_rejects_nonpositive_and_nonfinite_cutoffs(cutoff):
    # an infinite cutoff used to give 1 - inf * 0 = NaN as the truncated variance
    with pytest.raises(DegenerateTruncationError):
        EntryDistribution("complex-gaussian", cutoff)


def test_truncated_moments_complex_gaussian():
    dist = EntryDistribution("complex-gaussian", 6.0)
    rng = substream(31, 0)
    x = dist.sample(rng, 10**6)
    second = np.mean(np.abs(x) ** 2)
    # E|X|^2 has variance ~1 per sample, so 3 s.e. is 3e-3
    assert abs(second - 1.0) < 3e-3
    assert abs(np.mean(x.real)) < 4 / math.sqrt(10**6)


def test_truncated_moments_biting_cutoff():
    # cutoff well inside the support: standardization must restore unit variance
    dist = EntryDistribution("centered-uniform", 1.0)
    rng = substream(32, 0)
    x = dist.sample(rng, 10**6).real
    assert abs(np.mean(x)) < 4 * np.std(x) / math.sqrt(10**6)
    assert abs(np.mean(x**2) - 1.0) < 4 * np.std(x**2) / math.sqrt(10**6)


def test_truncated_second_moments_against_quadrature():
    from scipy.integrate import quad

    phi = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
    got = _truncated_second_moment("real-gaussian", 1.5)
    want, _ = quad(lambda t: t * t * phi(t), -1.5, 1.5)
    assert got == pytest.approx(want, abs=1e-12)

    # |X|^2 of the complex kind is exponential with unit mean
    got = _truncated_second_moment("complex-gaussian", 1.2)
    want, _ = quad(lambda t: t * math.exp(-t), 0.0, 1.2**2)
    assert got == pytest.approx(want, abs=1e-12)

    got = _truncated_second_moment("centered-uniform", 1.0)
    want, _ = quad(lambda t: t * t / (2 * math.sqrt(3)), -1.0, 1.0)
    assert got == pytest.approx(want, abs=1e-12)

    assert _truncated_second_moment("rademacher", 1.5) == 1.0
    assert _truncated_second_moment("rademacher", 0.9) == 0.0


@settings(max_examples=500, deadline=None)
@example(c=6.99)
@example(c=math.nextafter(7.0, 0.0))
@example(c=7.0)
@example(c=1.34e154)
@example(c=1.4e154)  # the cutoff that made complex entries NaN
@example(c=1.7e308)
@given(c=st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
def test_complex_gaussian_truncated_moment_is_its_closed_form_where_that_is_finite(c):
    # 1 - (1 + C^2) e^(-C^2) is inf * 0 = NaN once C^2 overflows (C > 1.34e154); its tail is
    # below half an ulp of 1 from C = 7 on, so the moment reads 1.0 there
    closed_form = 1.0 - (1.0 + c * c) * math.exp(-c * c)
    got = _truncated_second_moment("complex-gaussian", c)
    assert got == (closed_form if math.isfinite(closed_form) else 1.0), c
    if c >= 7.0:
        assert got == 1.0


def test_entry_law_refuses_a_second_moment_that_is_not_positive(monkeypatch):
    # NaN <= 0 is false, so a NaN moment used to be admitted
    for bad in (math.nan, 0.0, -1e-17):
        monkeypatch.setattr(matrices, "_truncated_second_moment", lambda kind, c, bad=bad: bad)
        with pytest.raises(DegenerateTruncationError, match="zero variance"):
            EntryDistribution("complex-gaussian", 2.0)


def test_entry_itemsize_is_the_drawn_dtype():
    for kind in ENTRY_KINDS:
        dist = EntryDistribution(kind)
        assert dist.itemsize == dist.sample(substream(3, 0), (2, 2)).itemsize, kind


def test_all_kinds_unit_variance():
    rng = substream(33, 0)
    for kind in ENTRY_KINDS:
        x = EntryDistribution(kind).sample(rng, 200_000)
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.01, kind
        assert abs(np.mean(x.real)) < 0.01, kind


def test_covariance_scalar():
    w = covariance(ShapedMatrix(entries=np.array([[2.0 + 0j]]), shape=Partition((1,))), 1)
    assert w.entries.shape == (1, 1)
    assert w.entries[0, 0] == pytest.approx(4.0)


def test_covariance_trace_identity():
    lam = staircase(3).dilate(2)
    x = sample_shaped(lam, EntryDistribution("complex-gaussian"), (17, 0))
    rhs = np.sum(np.abs(x.entries) ** 2) / 2  # before covariance, which consumes X
    lhs = np.trace(whole(covariance(x, 2))).real
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_covariance_zero_row():
    lam = Partition((3, 3, 3))
    x = sample_shaped(lam, EntryDistribution("real-gaussian"), (2, 0))
    ent = x.entries.copy()
    ent[1, :] = 0.0
    w = whole(covariance(ShapedMatrix(entries=ent, shape=lam), 1))
    assert np.all(w[1, :] == 0) and np.all(w[:, 1] == 0)


def test_covariance_hermitian_psd_all_kinds():
    rng_idx = 0
    for kind in ENTRY_KINDS:
        for _ in range(25):
            rng_idx += 1
            lam = staircase(2).dilate(3)
            x = sample_shaped(lam, EntryDistribution(kind), (99, rng_idx))
            w = whole(covariance(x, 3))
            asym = np.abs(w - w.conj().T).max()
            assert asym <= 1e-12 * max(1.0, np.abs(w).max())
            eigs = np.linalg.eigvalsh(w)
            assert eigs.min() >= -1e-10 * max(1.0, np.abs(w).max())


def test_covariance_is_hermitian_unsymmetrized():
    # W is one named triangle of X's buffer, Hermitian by construction: nothing mirrors it, so
    # the other triangle holds what the factoring left there, not W's conjugate
    lam = staircase(3).dilate(70)
    for kind in ("complex-gaussian", "real-gaussian"):
        x = sample_shaped(lam, EntryDistribution(kind), (71, 0))
        want = x.entries @ x.entries.conj().T / 70
        w = covariance(x, 70)
        assert w.triangle == "upper" and w.zeros == 0 and np.shares_memory(w.entries, x.entries)
        m = w.entries
        assert np.abs(np.triu(m) - np.triu(want)).max() <= 1e-13 * np.abs(want).max(), kind
        assert np.abs(np.tril(m, -1) - np.tril(want, -1)).max() > 1e-3 * np.abs(want).max(), kind


def test_first_moment_identity_finite_size():
    # E[(1/dim) tr W] equals the balance ratio exactly at every N
    lam = staircase(2)
    n = 10
    dist = EntryDistribution("complex-gaussian")
    traces = []
    for i in range(500):
        x = sample_shaped(lam.dilate(n), dist, (404, i))
        w = covariance(x, n)
        traces.append(np.trace(w.entries).real / len(w.entries))
    traces = np.array(traces)
    se = traces.std(ddof=1) / math.sqrt(len(traces))
    assert abs(traces.mean() - 1.5) < 4 * se


def test_entry_dtypes():
    # real kinds stay real through sampling and the Gram product
    lam = staircase(3).dilate(2)
    for kind in ENTRY_KINDS:
        want = np.complex128 if kind == "complex-gaussian" else np.float64
        for dist in (EntryDistribution(kind), EntryDistribution(kind, 2.5)):
            x = sample_shaped(lam, dist, (61, 0))
            assert x.entries.dtype == want, kind
            assert covariance(x, 2).entries.dtype == want, kind


def test_real_spectrum_matches_complex_arithmetic():
    # same draws, eigvalsh in real and in complex arithmetic
    lam = staircase(4).dilate(10)
    for kind in ("real-gaussian", "rademacher", "centered-uniform"):
        x = sample_shaped(lam, EntryDistribution(kind), (62, 3))
        cast = ShapedMatrix(entries=x.entries.astype(complex), shape=lam)  # before X is consumed
        real = eigenvalues(covariance(x, 10)).values
        ref = eigenvalues(covariance(cast, 10)).values
        assert real.dtype == np.float64
        assert np.all(np.diff(real) >= 0)
        assert np.abs(real - ref).max() <= 1e-12 * np.abs(ref).max(), kind


def _one_shot_draw(kind, trunc, rng, lam):
    """The entries by whole-array formulas, a new array per step: the reference for in-place sampling."""
    shape = (lam.length(), lam.parts[0])
    if kind == "complex-gaussian":
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        x = (re + 1j * im) / math.sqrt(2.0)
    elif kind == "real-gaussian":
        x = rng.standard_normal(shape)
    elif kind == "rademacher":
        x = 2.0 * rng.integers(0, 2, size=shape) - 1.0
    else:
        x = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape)
    if trunc is not None:
        x = np.where(np.abs(x) < trunc, x, 0.0) / math.sqrt(_truncated_second_moment(kind, trunc))
    mask = np.arange(shape[1]) < np.array(lam.parts)[:, None]
    return np.where(mask, x, 0.0)


@pytest.mark.parametrize("trunc", [None, 1.5])
@pytest.mark.parametrize("kind", ENTRY_KINDS)
def test_in_place_draw_is_bit_identical_to_one_shot_formula(kind, trunc):
    lam = Partition((5, 4, 4, 1)).dilate(3)
    got = sample_shaped(lam, EntryDistribution(kind, trunc), (8, 2)).entries
    want = _one_shot_draw(kind, trunc, substream(8, 2), lam)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("trunc", [None, 1.5])
@pytest.mark.parametrize("kind", ENTRY_KINDS)
def test_chunked_draw_is_bit_identical_to_one_shot_formula(kind, trunc):
    # chunks of 7 entries split the 180 draws, each part's and the truncation's, mid-row
    lam = Partition((5, 4, 4, 1)).dilate(3)
    with mock.patch.object(matrices, "CHUNK", 7):
        got = sample_shaped(lam, EntryDistribution(kind, trunc), (8, 2)).entries
    assert got.tobytes() == _one_shot_draw(kind, trunc, substream(8, 2), lam).tobytes()


@st.composite
def _diagrams(draw):
    return Partition(sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=6)), reverse=True))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lam=_diagrams(), n=st.integers(1, 4), kind=st.sampled_from(ENTRY_KINDS),
       trunc=st.sampled_from([None, None, 0.5, 2.0]), index=st.integers(0, 2**16))
# each row group of an undilated staircase has one row inside the diagram: ?lauum reads only
# the real part of the diagonal, so a complex one's row must be turned all the same
@example(lam=staircase(6), n=1, kind="complex-gaussian", trunc=None, index=0)
@example(lam=staircase(6), n=1, kind="complex-gaussian", trunc=0.5, index=3)  # zeros on the diagonal
@example(lam=Partition((3, 1, 1, 1)), n=2, kind="real-gaussian", trunc=None, index=0)  # tall, rook rank 2
# rank 3 undilated: a group with fewer rows inside the diagram than columns does not always
# leave that many zeros on the factor's diagonal
@example(lam=Partition((4, 2, 1, 1, 1, 1)), n=1, kind="complex-gaussian", trunc=None, index=0)
@example(lam=Partition((6, 2, 2, 1, 1, 1, 1)), n=2, kind="real-gaussian", trunc=None, index=0)
@example(lam=square(3), n=2, kind="centered-uniform", trunc=None, index=0)
def test_covariance_triangle_is_the_gram_on_the_smaller_side(lam, n, kind, trunc, index):
    assume(kind != "rademacher" or trunc is None or trunc > 1.0)  # else no variance is left
    x = sample_shaped(lam.dilate(n), EntryDistribution(kind, trunc), (5, index))
    a = x.entries.copy()
    rows, cols = a.shape
    gram = (a @ a.conj().T if rows <= cols else a.conj().T @ a) / n
    w = covariance(x, n)
    assert w.triangle == ("upper" if rows <= cols else "lower") and w.zeros == max(rows - cols, 0)
    assert np.abs(whole(w) - gram).max() <= 1e-14 * np.abs(gram).max()
    ref = np.linalg.eigvalsh(a @ a.conj().T / n)
    values = eigenvalues(w).values
    assert len(values) == rows and np.all(np.diff(values) >= 0)
    assert np.abs(values - ref).max() <= 1e-13 * ref.max()
    zeros = np.count_nonzero(values == 0.0)
    # W has rows - rank exact zeros, a tall diagram's rows - cols among them; rademacher rows can
    # also be equal or opposite, and truncated entries 0, which makes further true zeros
    want = rows - matching_rank(lam.dilate(n).parts)
    assert want >= max(rows - cols, 0) and w.zeros + w.deficit == want
    if kind == "rademacher" or trunc is not None:
        assert zeros >= want
    else:
        assert zeros == want


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "fallback"])
def test_exact_zeros_are_each_small_diagrams_rank_deficit(fallback):
    # every diagram in a 6 x 6 box: the zeros covariance states are its rows less the largest
    # matching of its rows to its columns
    boards = [b for k in range(1, 7) for b in itertools.combinations_with_replacement(range(6, 0, -1), k)]
    assert len(boards) == 923  # binom(12, 6) - 1
    with mock.patch.object(matrices, "_openblas", return_value=None) if fallback else contextlib.nullcontext():
        for parts in boards:
            x = ShapedMatrix(entries=np.zeros((len(parts), parts[0])), shape=Partition(parts))
            w = covariance(x, 1)
            assert w.zeros + w.deficit == len(parts) - matching_rank(parts), parts


def test_shaped_matrix_diagram_spans_its_entries():
    # covariance factors the diagram's groups in place: a diagram wider or taller than the
    # entries would send LAPACK past the buffer, so it is refused
    entries = np.ones((3, 2))
    for parts in ((2, 2, 2), (2, 1, 1)):
        assert ShapedMatrix(entries=entries, shape=Partition(parts)).shape == Partition(parts)
    for parts in ((3, 3, 3), (2, 2), (2, 2, 2, 2)):
        with pytest.raises(ValueError, match="does not span a 3 x 2 matrix"):
            ShapedMatrix(entries=entries, shape=Partition(parts))
