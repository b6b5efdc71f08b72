import math
import time
from fractions import Fraction

import pytest

from youngspec.combinatorics import (
    PlaneTree,
    catalan,
    count_r_plane_trees,
    dh_moment,
    dh_scaled_gen_catalan,
    enumerate_plane_trees,
    gen_catalan,
    limit_moment,
)
from youngspec.errors import InvalidOrderError, ResourceLimitError

from _tables import COLOURED_TREE_COUNTS
from _trees import RPlaneTree, iter_r_plane_trees


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(4) == 14
    assert catalan(10) == 16796


def test_gen_catalan_spot_values():
    assert gen_catalan(2, 3) == 42
    assert gen_catalan(3, 5) == 7752
    assert gen_catalan(4, 6) == 339300
    with pytest.raises(InvalidOrderError):
        gen_catalan(0, 1)


def test_gen_catalan_reference_table():
    for r, column in COLOURED_TREE_COUNTS.items():
        for k, want in enumerate(column):
            assert gen_catalan(r, k) == want


def test_gen_catalan_reduces_to_catalan():
    for k in range(21):
        assert gen_catalan(1, k) == catalan(k)


def test_limit_moment():
    for k in range(11):
        assert limit_moment(1, k) == catalan(k)
    assert limit_moment(2, 1) == Fraction(3, 2)
    for r in range(1, 7):
        assert limit_moment(r, 0) == 1
        for k in range(12):
            assert limit_moment(r, k) * r == gen_catalan(r, k)


def test_dh_moment():
    assert dh_moment(0) == 1
    assert dh_moment(1) == Fraction(1, 2)
    assert dh_moment(2) == Fraction(2, 3)
    assert dh_moment(3) == Fraction(9, 8)


def test_dh_scaled_gen_catalan():
    assert dh_scaled_gen_catalan(1, 1) == 1  # far from the large-r limit
    for r in (1, 2, 10):
        assert dh_scaled_gen_catalan(r, 0) == 1
    # exact-rational convergence check at r = 10^4
    for k in range(6):
        rel = abs(dh_scaled_gen_catalan(10_000, k) / dh_moment(k) - 1)
        assert rel <= Fraction(1, 200)


def test_riesz_growth_sanity():
    # (1/k) m_{2k}^(1/2k) decreases toward zero, so moments determine the law
    vals = []
    for k in range(5, 41):
        m2k = limit_moment(3, 2 * k)
        vals.append(float(m2k) ** (1.0 / (2 * k)) / k)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_plane_trees(1)) == 1
    assert sum(1 for _ in enumerate_plane_trees(3)) == 2
    assert sum(1 for _ in enumerate_plane_trees(6)) == 42
    for n in range(1, 9):
        assert sum(1 for _ in enumerate_plane_trees(n)) == catalan(n - 1)


def test_enumerate_unique_words():
    words = [t.word for t in enumerate_plane_trees(7)]
    assert len(words) == len(set(words)) == catalan(6)
    # decreasing lexicographic order, up-steps high
    assert [t.word for t in enumerate_plane_trees(4)] == [
        (1, 1, 1, 0, 0, 0), (1, 1, 0, 1, 0, 0), (1, 1, 0, 0, 1, 0),
        (1, 0, 1, 1, 0, 0), (1, 0, 1, 0, 1, 0)]


def test_enumerate_resource_cap():
    with pytest.raises(ResourceLimitError):
        list(enumerate_plane_trees(13))
    assert sum(1 for _ in enumerate_plane_trees(13, max_vertices=13)) == catalan(12)


def test_tree_count_work_budget():
    # r * n * catalan(n-1) = 7e11 products: refused before any row of 10^6 integers is built
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        count_r_plane_trees(10**6, 12)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ResourceLimitError, match="cap"):  # the vertex cap comes first
        count_r_plane_trees(10**6, 13)
    assert count_r_plane_trees(20, 8) == gen_catalan(20, 7)


def test_plane_tree_structure():
    # path and cherry on 3 vertices
    trees = list(enumerate_plane_trees(3))
    parent_sets = {t.parent for t in trees}
    assert parent_sets == {(-1, 0, 1), (-1, 0, 0)}
    with pytest.raises(ValueError):
        PlaneTree.from_word((1, 0, 0, 1))


def test_r_plane_tree_validation():
    tree = PlaneTree.from_word((1, 0))
    RPlaneTree(tree, (1, 2), r=2)
    with pytest.raises(ValueError):
        RPlaneTree(tree, (2, 2), r=2)  # 2 + 2 > 3
    with pytest.raises(ValueError):
        RPlaneTree(tree, (0, 1), r=2)


def test_count_examples():
    assert count_r_plane_trees(2, 2) == 3
    assert count_r_plane_trees(1, 3) == 2
    assert count_r_plane_trees(3, 4) == 165


def test_count_matches_enumeration():
    # the per-tree colouring count and the backtracking enumeration are independent
    for r in (1, 2, 3, 4):
        for n in (1, 2, 3, 4, 5):
            assert count_r_plane_trees(r, n) == sum(1 for _ in iter_r_plane_trees(r, n))


def test_oracle_equivalence_small():
    for r in range(1, 4):
        for k in range(5):
            assert count_r_plane_trees(r, k + 1) == gen_catalan(r, k)
