"""Integer partitions, Young diagrams and exact diagram calculus.

Partitions are stored weakly decreasing with trailing zeros trimmed, so
``(5, 4, 4, 1)``, ``(5, 4, 4, 1, 0)`` and ``(5, 4, 4, 1, 0, 0)`` are the
same value. Boxes are indexed ``(i, j)`` with 1-based row/column in the
English convention (row 1 on top, rows never longer than the row above).
A diagram walks its parts for its row groups once and reads its term rank off them;
its conjugate is built once and kept.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import (
    EmptyPartitionError,
    IndexOutOfRangeError,
    InvalidDilationError,
    InvalidOrderError,
    NegativePartError,
    NotWeaklyDecreasingError,
)

__all__ = [
    "Partition",
    "staircase",
    "square",
    "balance_ratio",
    "render",
]


@dataclass(frozen=True)
class Partition:
    """Immutable weakly decreasing sequence of nonnegative integer parts.

    ``parts`` may be any iterable of integers; it is stored as a tuple with
    trailing zeros trimmed.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        cleaned = [int(p) for p in self.parts]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        for p in cleaned:
            if p < 0:
                raise NegativePartError(f"negative part {p}")
        for a, b in zip(cleaned, cleaned[1:]):
            if a < b:
                raise NotWeaklyDecreasingError(f"parts not weakly decreasing: {a} < {b}")
        object.__setattr__(self, "parts", tuple(cleaned))

    def length(self) -> int:
        """Number of nonzero parts."""
        return len(self.parts)

    def weight(self) -> int:
        """Sum of the parts (number of boxes)."""
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-based part access; zero beyond the stored length."""
        if i < 1:
            raise IndexOutOfRangeError(f"row index {i} < 1")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    @functools.cached_property
    def row_groups(self) -> tuple[tuple[int, int, int], ...]:
        """The runs of equal parts, top to bottom, as (first row, rows, part) with 0-based rows."""
        groups, first = [], 0
        for part, run in itertools.groupby(self.parts):
            rows = len(list(run))
            groups.append((first, rows, part))
            first += rows
        return tuple(groups)

    def term_rank(self) -> int:
        """The rank of a generic matrix on the diagram, which bounds any other's. By Konig's
        theorem it is the fewest rows and columns covering the boxes: the first k rows and
        part(k + 1) columns for some k, least at a row group's first row or at k = length().
        The conjugate's is the same."""
        return min([first + part for first, _, part in self.row_groups] + [self.length()])

    def conjugate(self) -> "Partition":
        """Reflect the diagram in the main diagonal: the columns left of each row group's part and
        right of the next one's are as long as the rows down to that group's last. Built once
        and kept, with its own row groups."""
        return self._conjugate

    @functools.cached_property
    def _conjugate(self) -> "Partition":
        parts, right = [], 0
        for first, rows, part in reversed(self.row_groups):
            parts += [first + rows] * (part - right)
            right = part
        return Partition(parts)

    def contains(self, other: "Partition") -> bool:
        """True iff the diagram of ``other`` fits inside this diagram."""
        return all(other.part(i) <= self.part(i) for i in range(1, other.length() + 1))

    def has_box(self, i: int, j: int) -> bool:
        """True iff box ``(i, j)`` belongs to the diagram."""
        if i < 1 or j < 1:
            raise IndexOutOfRangeError(f"box index ({i}, {j}) out of range")
        return self.part(i) >= j

    def dilate(self, n: int) -> "Partition":
        """Replace every box by an n-by-n grid of boxes."""
        if n < 1:
            raise InvalidDilationError(f"dilation factor {n} < 1")
        return Partition([n * p for p in self.parts for _ in range(n)])

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)


def staircase(r: int) -> Partition:
    """The partition (r, r-1, ..., 2, 1)."""
    if r < 1:
        raise InvalidOrderError(f"staircase order {r} < 1")
    return Partition(range(r, 0, -1))


def square(r: int) -> Partition:
    """The partition with r parts all equal to r."""
    if r < 1:
        raise InvalidOrderError(f"square order {r} < 1")
    return Partition([r] * r)


def balance_ratio(lam: Partition, n: int) -> Fraction:
    """Weight of the n-fold dilation over n times its length, as an exact rational.

    The dilation has n^2 |lam| boxes in n len(lam) rows, so this is
    |lam| / len(lam) independently of n, which is why dilation sequences
    have a well-defined first spectral moment; the dilation is not built.
    """
    if not lam:
        raise EmptyPartitionError("balance ratio of the empty partition")
    if n < 1:
        raise InvalidDilationError(f"dilation factor {n} < 1")
    return Fraction(lam.weight(), lam.length())


def render(lam: Partition, glyph: str = "■") -> str:
    """Rows of box glyphs in the English convention."""
    if not lam:
        return "(empty diagram)"
    return "\n".join(glyph * p for p in lam)
