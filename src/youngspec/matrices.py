"""Sampling of diagram-shaped random matrices and their covariance form.

Entries are i.i.d. with mean zero and unit second absolute moment; the
diagram acts as a hard mask (exact structural zeros). The covariance
matrix is W = X X* / N for a dilation/scale parameter N.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTruncationError, EmptyPartitionError, IndexOutOfRangeError
from .partitions import Partition
from .streams import substream

__all__ = [
    "ENTRY_KINDS",
    "EntryDistribution",
    "ShapedMatrix",
    "CovarianceMatrix",
    "truncate_standardize",
    "sample_shaped",
    "covariance",
    "block_index",
]

ENTRY_KINDS = ("complex-gaussian", "real-gaussian", "rademacher", "centered-uniform")

_SQRT3 = math.sqrt(3.0)


def _truncated_second_moment(kind: str, cutoff: float) -> float:
    """E[|X|^2 1_{|X|<C}] for the unit-variance base distributions.

    All four kinds are symmetric about zero, so the truncated mean
    vanishes and this is the full truncated variance.
    """
    c = float(cutoff)
    if c <= 0:
        raise DegenerateTruncationError(f"cutoff {c} <= 0")
    if kind == "complex-gaussian":
        # |X|^2 is Exp(1)
        return 1.0 - (1.0 + c * c) * math.exp(-c * c)
    if kind == "real-gaussian":
        return math.erf(c / math.sqrt(2.0)) - c * math.sqrt(2.0 / math.pi) * math.exp(-c * c / 2.0)
    if kind == "rademacher":
        return 1.0 if c > 1.0 else 0.0
    if kind == "centered-uniform":
        if c >= _SQRT3:
            return 1.0
        return c**3 / (3.0 * _SQRT3)
    raise ValueError(f"unknown entry kind {kind!r}")


@dataclass(frozen=True)
class EntryDistribution:
    """Centered unit-variance entry law, optionally truncated and re-standardized."""

    kind: str
    trunc: float | None = None

    def __post_init__(self):
        if self.kind not in ENTRY_KINDS:
            raise ValueError(f"unknown entry kind {self.kind!r}; choose from {ENTRY_KINDS}")
        if self.trunc is not None:
            s2 = _truncated_second_moment(self.kind, self.trunc)
            if s2 <= 0.0:
                raise DegenerateTruncationError(
                    f"truncation at {self.trunc} leaves {self.kind} with zero variance"
                )

    def _base_draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.kind == "complex-gaussian":
            re = rng.standard_normal(shape)
            im = rng.standard_normal(shape)
            return (re + 1j * im) / math.sqrt(2.0)
        if self.kind == "real-gaussian":
            return rng.standard_normal(shape).astype(complex)
        if self.kind == "rademacher":
            return (2.0 * rng.integers(0, 2, size=shape) - 1.0).astype(complex)
        if self.kind == "centered-uniform":
            return rng.uniform(-_SQRT3, _SQRT3, size=shape).astype(complex)
        raise ValueError(self.kind)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw an array of entries; complex dtype regardless of kind."""
        x = self._base_draw(rng, shape)
        if self.trunc is None:
            return x
        s = math.sqrt(_truncated_second_moment(self.kind, self.trunc))
        kept = np.where(np.abs(x) < self.trunc, x, 0.0 + 0.0j)
        return kept / s


def truncate_standardize(dist: EntryDistribution, cutoff: float) -> EntryDistribution:
    """Distribution of (X 1_{|X|<C} - m_C)/s_C; mean zero, unit second moment.

    The base kinds are all symmetric, so m_C = 0 and s_C^2 is the
    truncated second moment, known in closed form per kind. Raises when
    the cutoff removes all variance (e.g. rademacher with C <= 1).
    """
    return dataclasses.replace(dist, trunc=float(cutoff))


@dataclass(frozen=True)
class ShapedMatrix:
    """Dense complex matrix whose support is exactly a Young diagram."""

    shape: Partition
    entries: np.ndarray
    seed_info: tuple[int, int] | None = None


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian PSD matrix W = X X* / N built from a shaped sample."""

    dim: int
    scale: int
    entries: np.ndarray


def sample_shaped(lam: Partition, dist: EntryDistribution, stream) -> ShapedMatrix:
    """Draw a lam-shaped matrix with i.i.d. entries on the diagram boxes.

    ``stream`` is either a numpy Generator or a (seed, index) pair; the
    pair form records provenance and is bit-reproducible.
    """
    if not lam:
        raise EmptyPartitionError("cannot sample a matrix with empty shape")
    seed_info = None
    if isinstance(stream, tuple):
        seed_info = (int(stream[0]), int(stream[1]))
        rng = substream(*seed_info)
    else:
        rng = stream
    rows = lam.length()
    cols = lam.parts[0]
    draws = dist.sample(rng, (rows, cols))
    mask = np.zeros((rows, cols), dtype=bool)
    for i, p in enumerate(lam.parts):
        mask[i, :p] = True
    entries = np.where(mask, draws, 0.0 + 0.0j)
    return ShapedMatrix(shape=lam, entries=entries, seed_info=seed_info)


def covariance(x: ShapedMatrix, n: int) -> CovarianceMatrix:
    """W = X X* / n, symmetrized once to remove BLAS rounding asymmetry."""
    if n < 1:
        raise ValueError(f"scale {n} < 1")
    m = x.entries @ x.entries.conj().T / n
    m = (m + m.conj().T) / 2.0
    return CovarianceMatrix(dim=m.shape[0], scale=n, entries=m)


def block_index(i: int, n: int) -> int:
    """Block label ceil(i/n) of a row or column index under dilation n."""
    if i < 1 or n < 1:
        raise IndexOutOfRangeError(f"index {i} or dilation {n} out of range")
    return -(-i // n)
