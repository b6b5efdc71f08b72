"""Sampling of diagram-shaped random matrices and their covariance form.

Entries are i.i.d. with mean zero and unit second absolute moment; the
diagram acts as a hard mask (exact structural zeros). The covariance
matrix is W = X X* / N for a dilation/scale parameter N. Real entry kinds
stay float64 throughout, so W and its spectrum are computed in real
arithmetic; only complex-gaussian is complex128. Entries are drawn,
truncated and masked in place, and a complex W is built BLOCK columns at a
time, so one replica holds X, W and one BLOCK-wide slice of scratch.
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

BLOCK = 256  # columns per complex block product; rows per block of the Hermitian gate


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
            # one float buffer for both parts; bit-identical to (re + 1j * im) / sqrt(2)
            buf = rng.standard_normal(shape)
            z = np.empty(buf.shape, dtype=complex)
            z.real = buf
            z.imag = rng.standard_normal(out=buf)
            z /= math.sqrt(2.0)
            return z
        if self.kind == "real-gaussian":
            return rng.standard_normal(shape)
        if self.kind == "rademacher":
            x = 2.0 * rng.integers(0, 2, size=shape)
            x -= 1.0
            return x
        if self.kind == "centered-uniform":
            return rng.uniform(-_SQRT3, _SQRT3, size=shape)
        raise ValueError(self.kind)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw an array of entries: complex128 for complex-gaussian, float64 otherwise."""
        x = self._base_draw(rng, shape)
        if self.trunc is not None:
            x[np.abs(x) >= self.trunc] = 0.0
            x /= math.sqrt(_truncated_second_moment(self.kind, self.trunc))
        return x


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
    x = dist.sample(substream(*stream), (lam.length(), lam.parts[0]))
    for row, part in enumerate(lam.parts):
        x[row, part:] = 0.0  # the boxes right of the diagram
    return ShapedMatrix(shape=lam, entries=x)


def covariance(x: ShapedMatrix, n: int) -> CovarianceMatrix:
    """W = X X* / n as the products return it; spectra.eigenvalues checks it is Hermitian.

    Real X takes one x @ x.T (numpy's syrk); a complex W is filled BLOCK
    columns at a time by X @ X[j:j+BLOCK]*, the same dot products as x @ x.conj().T.
    """
    if n < 1:
        raise ValueError(f"scale {n} < 1")
    x = x.entries
    if np.iscomplexobj(x):
        m = np.empty((x.shape[0], x.shape[0]), dtype=x.dtype)
        for j in range(0, x.shape[0], BLOCK):
            np.matmul(x, x[j:j + BLOCK].conj().T, out=m[:, j:j + BLOCK])
    else:
        m = x @ x.T
    m /= n
    return CovarianceMatrix(dim=m.shape[0], scale=n, entries=m)
