"""Exact-arithmetic moment sequences and a brute-force r-plane-tree oracle.

All counting here is done in exact integers / rationals. The tree
oracle is deliberately naive: it walks every plane tree once (recursive
Dyck words) and counts the admissible colourings of each by a pass over
its children, using only the colour-sum rule. It serves as an
independent check of the closed-form generalized Catalan numbers, so it
must not share any formula with them. The tests hold the count against
a separate backtracking search that materialises the coloured trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from typing import Iterator

from .errors import InvalidOrderError, ResourceLimitError

__all__ = [
    "catalan",
    "gen_catalan",
    "limit_moment",
    "dh_moment",
    "dh_scaled_gen_catalan",
    "PlaneTree",
    "enumerate_plane_trees",
    "count_r_plane_trees",
]

DEFAULT_VERTEX_CAP = 12
# products count_r_plane_trees may spend; (20, 12) takes 1.4e7: 3.4 s, 35 MiB on 2 x86-64 vCPUs.
# It times only large r: at r = 1 the walk over catalan(n - 1) trees sets the cost, and
# with the vertex cap lifted (1, 13) took 4.5 to 5.9 s at 2.7e6 products and (1, 14)
# 17.7 s at 1.04e7, both under budget, so there DEFAULT_VERTEX_CAP is what bounds a run
TREE_WORK_BUDGET = 2 * 10**7


def catalan(k: int) -> int:
    """k-th Catalan number."""
    if k < 0:
        raise InvalidOrderError(f"order {k} < 0")
    return comb(2 * k, k) // (k + 1)


def gen_catalan(r: int, k: int) -> int:
    """Generalized Catalan number (r/(k+1)) * C((r+1)k, k), exactly."""
    if r < 1:
        raise InvalidOrderError(f"r = {r} < 1")
    if k < 0:
        raise InvalidOrderError(f"order {k} < 0")
    num = r * comb((r + 1) * k, k)
    q, rem = divmod(num, k + 1)
    assert rem == 0, "generalized Catalan numbers are integers"
    return q


def limit_moment(r: int, k: int) -> Fraction:
    """k-th moment of the order-r limit law: C((r+1)k, k)/(k+1)."""
    if r < 1:
        raise InvalidOrderError(f"r = {r} < 1")
    if k < 0:
        raise InvalidOrderError(f"order {k} < 0")
    return Fraction(comb((r + 1) * k, k), k + 1)


def dh_moment(k: int) -> Fraction:
    """k-th moment of the triangular-matrix limit law: k^k/((k+1) k!)."""
    if k < 0:
        raise InvalidOrderError(f"order {k} < 0")
    return Fraction(k**k, (k + 1) * factorial(k))


def dh_scaled_gen_catalan(r: int, k: int) -> Fraction:
    """gen_catalan(r, k) / r^(k+1); converges to dh_moment(k) as r grows."""
    return Fraction(gen_catalan(r, k), r ** (k + 1))


# -- plane trees ---------------------------------------------------------


def _is_dyck(word: tuple[int, ...]) -> bool:
    s = 0
    for step in word:
        s += 1 if step else -1
        if s < 0:
            return False
    return s == 0


def _dyck_words(m: int) -> Iterator[tuple[int, ...]]:
    """Balanced words of m up- and m down-steps in decreasing lexicographic order.

    The up-step is tried before the down-step, so the words run from
    1^m 0^m down to (10)^m.
    """
    def extend(word: tuple[int, ...], ups: int, depth: int) -> Iterator[tuple[int, ...]]:
        if ups < m:
            yield from extend(word + (1,), ups + 1, depth + 1)
        if depth > 0:
            yield from extend(word + (0,), ups, depth - 1)
        elif ups == m:
            yield word

    return extend((), 0, 0)


@dataclass(frozen=True)
class PlaneTree:
    """Rooted ordered tree encoded by its depth-first Dyck word.

    Vertices are numbered in preorder; ``parent[v]`` gives the preorder
    index of v's parent (-1 for the root).
    """

    word: tuple[int, ...]
    parent: tuple[int, ...]

    @classmethod
    def from_word(cls, word) -> "PlaneTree":
        word = tuple(int(w) for w in word)
        if not _is_dyck(word):
            raise ValueError(f"not a balanced Dyck word: {word}")
        parent = [-1]
        stack = [0]
        nxt = 1
        for step in word:
            if step:
                parent.append(stack[-1])
                stack.append(nxt)
                nxt += 1
            else:
                stack.pop()
        return cls(word, tuple(parent))


def enumerate_plane_trees(n: int, max_vertices: int = DEFAULT_VERTEX_CAP) -> Iterator[PlaneTree]:
    """All plane trees on n vertices, once each (catalan(n-1) trees); n is checked at the call."""
    if n < 1:
        raise InvalidOrderError(f"vertex count {n} < 1")
    if n > max_vertices:
        raise ResourceLimitError(f"vertex count {n} exceeds cap {max_vertices}")
    return (PlaneTree.from_word(word) for word in _dyck_words(n - 1))


def _count_colourings(parent: tuple[int, ...], r: int) -> int:
    """Admissible colourings of one tree, counted over its children.

    ways[v][c-1] is the number of colourings of v's subtree with v coloured
    c; a child of a c-coloured vertex may take colours 1..r+1-c. Children
    follow their parent in preorder, so one reversed pass completes each
    row before the parent's row reads it.
    """
    ways = [[1] * r for _ in parent]
    for v in range(len(parent) - 1, 0, -1):
        below = list(accumulate(ways[v]))
        row = ways[parent[v]]
        for c in range(r):
            row[c] *= below[r - 1 - c]
    return sum(ways[0])


def count_r_plane_trees(r: int, n: int) -> int:
    """Exhaustive count of coloured plane trees on n vertices, one pass per tree.

    It takes r * n * catalan(n-1) big-integer products over rows of r
    integers; past TREE_WORK_BUDGET products it raises ResourceLimitError.
    """
    if r < 1:
        raise InvalidOrderError(f"r = {r} < 1")
    trees = enumerate_plane_trees(n)
    if r * n * catalan(n - 1) > TREE_WORK_BUDGET:
        raise ResourceLimitError(f"r = {r}, n = {n} needs over {TREE_WORK_BUDGET} products")
    return sum(_count_colourings(tree.parent, r) for tree in trees)
