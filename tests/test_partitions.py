from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from youngspec.errors import (
    EmptyPartitionError,
    IndexOutOfRangeError,
    InvalidDilationError,
    InvalidOrderError,
    NegativePartError,
    NotWeaklyDecreasingError,
)
from youngspec.partitions import (
    Partition,
    balance_ratio,
    render,
    square,
    staircase,
)

from _rank import matching_rank

partitions = st.lists(st.integers(0, 12), max_size=12).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_trailing_zeros_normalized():
    assert Partition((5, 4, 4, 1, 0, 0)).parts == (5, 4, 4, 1)
    assert Partition((5, 4, 4, 1)).parts == (5, 4, 4, 1)


def test_empty_partition():
    assert Partition(()).parts == ()
    assert Partition((0, 0)).parts == ()
    assert not Partition(())


def test_rejects_increasing():
    with pytest.raises(NotWeaklyDecreasingError):
        Partition((1, 2))


def test_rejects_negative():
    with pytest.raises(NegativePartError):
        Partition((3, -1))


def test_conjugate_example():
    assert Partition((5, 4, 4, 1)).conjugate().parts == (4, 3, 3, 3, 1)
    assert Partition(()).conjugate().parts == ()


def test_conjugate_involution_example():
    lam = Partition((7, 2, 2))
    assert lam.conjugate().conjugate() == lam


@given(partitions)
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam


@given(partitions)
def test_conjugate_length_and_weight(lam):
    conj = lam.conjugate()
    assert conj.weight() == lam.weight()
    if lam:
        assert conj.length() == lam.parts[0]


def _partitions_of(weight, largest):
    """Every partition of ``weight`` into parts at most ``largest``, as tuples."""
    if weight == 0:
        yield ()
    for first in range(min(weight, largest), 0, -1):
        for rest in _partitions_of(weight - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("weight", range(11))
def test_term_rank_is_the_largest_matching_of_rows_to_columns(weight):
    # every partition of weights 0 to 10: p(0) + ... + p(10) = 139 of them
    diagrams = [Partition(p) for p in _partitions_of(weight, weight)]
    assert len(diagrams) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42][weight]
    for lam in diagrams:
        assert lam.term_rank() == matching_rank(lam.parts) == lam.conjugate().term_rank(), lam


def test_row_groups_are_the_runs_of_equal_parts():
    lam = Partition((5, 4, 4, 1))
    assert lam.row_groups == ((0, 1, 5), (1, 2, 4), (3, 1, 1))
    assert lam.row_groups is lam.row_groups  # walked once and kept, as a tuple no caller alters
    assert Partition(()).row_groups == ()


def test_contains_examples():
    lam = Partition((5, 4, 4, 1))
    assert lam.contains(Partition((3, 1)))
    assert not lam.contains(Partition((5, 5)))
    assert lam.contains(Partition(()))
    assert not Partition((3, 1)).contains(lam)


@given(partitions, partitions)
def test_contains_conjugation_duality(mu, lam):
    assert lam.contains(mu) == lam.conjugate().contains(mu.conjugate())


def test_has_box_examples():
    lam = Partition((5, 4, 4, 1))
    assert lam.has_box(2, 4)
    assert not lam.has_box(4, 2)
    with pytest.raises(IndexOutOfRangeError):
        lam.has_box(0, 1)


def test_has_box_transpose_symmetry():
    lam = Partition((5, 4, 4, 1))
    conj = lam.conjugate()
    for i in range(1, 7):
        for j in range(1, 7):
            assert lam.has_box(i, j) == conj.has_box(j, i)


def test_dilate_example():
    lam = Partition((5, 4, 4, 1))
    tripled = lam.dilate(3)
    assert tripled.parts == (15, 15, 15, 12, 12, 12, 12, 12, 12, 3, 3, 3)
    assert tripled.weight() == 126 == 9 * 14


def test_dilate_identity():
    lam = Partition((3, 1))
    assert lam.dilate(1) == lam
    with pytest.raises(InvalidDilationError):
        lam.dilate(0)


@given(st.lists(st.integers(0, 5), max_size=4).map(lambda xs: Partition(sorted(xs, reverse=True))),
       st.integers(1, 5))
def test_dilate_length_weight(lam, n):
    d = lam.dilate(n)
    assert d.length() == n * lam.length()
    assert d.weight() == n * n * lam.weight()


def test_staircase_square():
    assert staircase(3).parts == (3, 2, 1)
    assert square(2).parts == (2, 2)
    assert staircase(5).weight() == 15
    with pytest.raises(InvalidOrderError):
        staircase(0)
    with pytest.raises(InvalidOrderError):
        square(-1)


def test_balance_ratio_examples():
    for n in (1, 2, 7):
        assert balance_ratio(staircase(3), n) == 2
    assert balance_ratio(square(4), 3) == 4
    assert balance_ratio(Partition((1,)), 1) == 1
    with pytest.raises(EmptyPartitionError):
        balance_ratio(Partition(()), 1)


@given(st.lists(st.integers(0, 8), min_size=1, max_size=6)
       .map(lambda xs: Partition(sorted(xs, reverse=True))).filter(bool),
       st.integers(1, 5), st.integers(1, 5))
def test_balance_ratio_independent_of_dilation(lam, n1, n2):
    assert balance_ratio(lam, n1) == balance_ratio(lam, n2)
    assert balance_ratio(lam, n1) == Fraction(lam.weight(), lam.length())
    dilated = lam.dilate(n1)
    assert balance_ratio(lam, n1) == Fraction(dilated.weight(), n1 * dilated.length())


def test_balance_ratio_builds_no_dilation(monkeypatch):
    # the 10^6-fold dilation of (5, 4, 4, 1) has 4 * 10^6 parts
    def forbidden(*args):
        raise AssertionError("dilation built")

    monkeypatch.setattr(Partition, "dilate", forbidden)
    assert balance_ratio(Partition((5, 4, 4, 1)), 10**6) == Fraction(7, 2)


def test_render():
    assert render(staircase(3), glyph="#") == "###\n##\n#"
    assert "empty" in render(Partition(()))
