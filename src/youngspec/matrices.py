"""Sampling of diagram-shaped random matrices and their covariance form.

Entries are i.i.d. with mean zero and unit second absolute moment; the
diagram acts as a hard mask (exact structural zeros). The covariance
matrix is W = X X* / N for a dilation/scale parameter N. One table
(_LAWS) states each entry kind once: its dtype, its draw and its truncated
second moment. Real entry kinds stay float64 throughout, so W and its
spectrum are computed in real arithmetic; only complex-gaussian is
complex128. Entries are drawn, truncated and masked in place, 2^16 at a
time where a draw or a truncation needs scratch, and a complex W is built
a column block at a time, bit for bit x @ x.conj().T. So one replica holds
X, W and one block's rows of scratch; spectra.eigenvalues solves W in place.
"""

from __future__ import annotations

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
    "sample_shaped",
    "covariance",
]

_SQRT3 = math.sqrt(3.0)

BLOCK = 64  # columns per complex block product; rows per block of the Hermitian gate
CHUNK = 1 << 16  # entries a draw, a truncation or a complex part handles at a time


def _chunks(flat: np.ndarray):
    """Consecutive views of CHUNK entries of a 1-d array, in order."""
    return (flat[i:i + CHUNK] for i in range(0, flat.size, CHUNK))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    # all real parts, then all imaginary parts, through one bounded buffer: the
    # generator's stream is sequential, so this is bit-identical to (re + 1j * im) / sqrt(2)
    z = np.empty(shape, dtype=complex)
    flat = z.reshape(-1)
    buf = np.empty(min(flat.size, CHUNK))
    for part in (flat.real, flat.imag):
        for chunk in _chunks(part):
            chunk[...] = rng.standard_normal(out=buf[:chunk.size])
    z /= math.sqrt(2.0)
    return z


def _rademacher(rng: np.random.Generator, shape) -> np.ndarray:
    # a chunk's integers at a time, bit-identical to 2.0 * rng.integers(0, 2, size=shape) - 1.0
    x = np.empty(shape)
    for chunk in _chunks(x.reshape(-1)):
        np.multiply(rng.integers(0, 2, size=chunk.size), 2.0, out=chunk)
        chunk -= 1.0
    return x


# each entry kind's dtype, draw of an array of a given shape and truncated second moment
# E[|X|^2 1_{|X|<C}] at a cutoff 0 < C < inf
_LAWS = {
    # |X|^2 is Exp(1); the tail (1 + C^2) e^(-C^2) is below half an ulp of 1 from C = 7 on
    "complex-gaussian": (np.dtype(complex), _complex_gaussian,
                         lambda c: 1.0 - (1.0 + c * c) * math.exp(-c * c) if c < 7.0 else 1.0),
    "real-gaussian": (np.dtype(float), lambda rng, shape: rng.standard_normal(shape),
                      lambda c: math.erf(c / math.sqrt(2.0))
                      - c * math.sqrt(2.0 / math.pi) * math.exp(-c * c / 2.0)),
    "rademacher": (np.dtype(float), _rademacher, lambda c: 1.0 if c > 1.0 else 0.0),
    "centered-uniform": (np.dtype(float), lambda rng, shape: rng.uniform(-_SQRT3, _SQRT3, size=shape),
                         lambda c: 1.0 if c >= _SQRT3 else c**3 / (3.0 * _SQRT3)),
}
ENTRY_KINDS = tuple(_LAWS)


def _truncated_second_moment(kind: str, cutoff: float) -> float:
    """The kind's E[|X|^2 1_{|X|<C}]: its truncated variance, as every kind is symmetric."""
    c = float(cutoff)
    if not 0.0 < c < math.inf:
        raise DegenerateTruncationError(f"cutoff {c} is not a positive finite number")
    return _LAWS[kind][2](c)


@dataclass(frozen=True)
class EntryDistribution:
    """Centered unit-variance entry law, optionally truncated and re-standardized.

    A cutoff C = ``trunc`` gives (X 1_{|X|<C} - m_C)/s_C, with m_C = 0 (the
    kinds are symmetric) and s_C^2 the truncated second moment in closed
    form; a cutoff that removes all variance (e.g. rademacher with C <= 1)
    raises DegenerateTruncationError.
    """

    kind: str
    trunc: float | None = None

    def __post_init__(self):
        if self.kind not in ENTRY_KINDS:
            raise ValueError(f"unknown entry kind {self.kind!r}; choose from {ENTRY_KINDS}")
        if self.trunc is not None and not _truncated_second_moment(self.kind, self.trunc) > 0.0:
            raise DegenerateTruncationError(f"truncation at {self.trunc} leaves {self.kind} "
                                            "with zero variance")

    @property
    def itemsize(self) -> int:
        """Bytes an entry takes: 16 for complex-gaussian, 8 for the real kinds."""
        return _LAWS[self.kind][0].itemsize

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw an array of entries of the kind's dtype."""
        x = _LAWS[self.kind][1](rng, shape)
        if self.trunc is not None:
            for chunk in _chunks(x.reshape(-1)):  # a chunk's |X| and mask at a time
                chunk[np.abs(chunk) >= self.trunc] = 0.0
            x /= math.sqrt(_truncated_second_moment(self.kind, self.trunc))
        return x


@dataclass(frozen=True)
class ShapedMatrix:
    """Dense matrix whose support is exactly a Young diagram (real or complex entries)."""

    entries: np.ndarray


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian PSD matrix W = X X* / N built from a shaped sample (real for real entries)."""

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
    return ShapedMatrix(entries=x)


def column_starts(dim: int) -> range:
    """Where a complex W's column blocks start: every BLOCK columns, but a tail narrower than 4
    columns joins the last block, as a product that narrow would take other kernels."""
    return range(0, max(dim - 3, 1), BLOCK)


def covariance(x: ShapedMatrix, n: int) -> CovarianceMatrix:
    """W = X X* / n as the products return it; spectra.eigenvalues checks it is Hermitian.

    Real X takes one x @ x.T (numpy's syrk); a complex W is filled a column
    block at a time (column_starts) by X @ X[j:k]*, bit for bit x @ x.conj().T.
    """
    if n < 1:
        raise ValueError(f"scale {n} < 1")
    x = x.entries
    if np.iscomplexobj(x):
        m = np.empty((x.shape[0], x.shape[0]), dtype=x.dtype)
        starts = column_starts(len(x))
        for j, k in zip(starts, [*starts[1:], len(x)]):
            np.matmul(x, x[j:k].conj().T, out=m[:, j:k])
    else:
        m = x @ x.T
    m /= n
    return CovarianceMatrix(entries=m)
