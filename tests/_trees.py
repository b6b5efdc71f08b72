"""Materialised coloured plane trees, the second route to the tree counts.

``count_r_plane_trees`` counts the admissible colourings of each plane
tree by a pass over its children; the backtracking search here builds
every (tree, colouring) pair instead, so the two share only the trees.
"""

from dataclasses import dataclass
from typing import Iterator

from youngspec.combinatorics import PlaneTree, enumerate_plane_trees


@dataclass(frozen=True)
class RPlaneTree:
    """A plane tree with vertex colours in {1..r}, colour sums <= r+1 on edges."""

    tree: PlaneTree
    colours: tuple[int, ...]
    r: int

    def __post_init__(self):
        parent = self.tree.parent
        if len(self.colours) != len(parent):
            raise ValueError("one colour per vertex required")
        if any(c < 1 or c > self.r for c in self.colours):
            raise ValueError(f"colours must lie in 1..{self.r}")
        for v in range(1, len(parent)):
            if self.colours[parent[v]] + self.colours[v] > self.r + 1:
                raise ValueError(f"edge ({parent[v]},{v}) violates the colour-sum bound")


def iter_r_plane_trees(r: int, n: int) -> Iterator[RPlaneTree]:
    """Materialize every admissible (tree, colouring) pair by backtracking; small n only."""
    for tree in enumerate_plane_trees(n):
        m = len(tree.parent)
        colour = [0] * m

        def rec(v: int) -> Iterator[tuple[int, ...]]:
            if v == m:
                yield tuple(colour)
                return
            top = r if v == 0 else min(r, r + 1 - colour[tree.parent[v]])
            for c in range(1, top + 1):
                colour[v] = c
                yield from rec(v + 1)

        for cols in rec(0):
            yield RPlaneTree(tree, cols, r)
