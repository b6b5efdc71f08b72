"""Sampling of diagram-shaped random matrices and their covariance form.

Entries are i.i.d. with mean zero and unit second absolute moment; the
diagram acts as a hard mask (exact structural zeros). The covariance
matrix is W = X X* / N for a dilation/scale parameter N. Real entry kinds
stay float64 throughout, so W and its spectrum are computed in real
arithmetic; only complex-gaussian is complex128.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTruncationError, EmptyPartitionError
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
]

ENTRY_KINDS = ("complex-gaussian", "real-gaussian", "rademacher", "centered-uniform")

_SQRT3 = math.sqrt(3.0)


def _truncated_second_moment(kind: str, cutoff: float) -> float:
    """E[|X|^2 1_{|X|<C}] for the unit-variance base distributions.

    All four kinds are symmetric about zero, so the truncated mean
    vanishes and this is the full truncated variance.
    """
    c = float(cutoff)
    if not 0.0 < c < math.inf:
        raise DegenerateTruncationError(f"cutoff {c} is not a positive finite number")
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
            return rng.standard_normal(shape)
        if self.kind == "rademacher":
            return 2.0 * rng.integers(0, 2, size=shape) - 1.0
        if self.kind == "centered-uniform":
            return rng.uniform(-_SQRT3, _SQRT3, size=shape)
        raise ValueError(self.kind)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw an array of entries: complex128 for complex-gaussian, float64 otherwise."""
        x = self._base_draw(rng, shape)
        if self.trunc is None:
            return x
        s = math.sqrt(_truncated_second_moment(self.kind, self.trunc))
        kept = np.where(np.abs(x) < self.trunc, x, 0.0)
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
    """Dense matrix whose support is exactly a Young diagram (real or complex entries)."""

    shape: Partition
    entries: np.ndarray


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian PSD matrix W = X X* / N built from a shaped sample (real for real entries)."""

    dim: int
    scale: int
    entries: np.ndarray


def sample_shaped(lam: Partition, dist: EntryDistribution,
                  stream: tuple[int, int]) -> ShapedMatrix:
    """Draw a lam-shaped matrix with i.i.d. entries on the diagram boxes.

    ``stream`` is a (seed, index) pair naming the substream, so every draw
    is bit-reproducible.
    """
    if not lam:
        raise EmptyPartitionError("cannot sample a matrix with empty shape")
    cols = lam.parts[0]
    draws = dist.sample(substream(*stream), (lam.length(), cols))
    mask = np.arange(cols) < np.array(lam.parts)[:, None]
    return ShapedMatrix(shape=lam, entries=np.where(mask, draws, 0.0))


def covariance(x: ShapedMatrix, n: int) -> CovarianceMatrix:
    """W = X X* / n as the product returns it; spectra.eigenvalues checks it is Hermitian."""
    if n < 1:
        raise ValueError(f"scale {n} < 1")
    m = x.entries @ x.entries.conj().T / n
    return CovarianceMatrix(dim=m.shape[0], scale=n, entries=m)
