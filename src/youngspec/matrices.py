"""Sampling of diagram-shaped random matrices and their covariance form.

Entries are i.i.d. with mean zero and unit second absolute moment; the
diagram acts as a hard mask (exact structural zeros). The covariance
matrix is W = X X* / N for a dilation/scale parameter N. One table
(_LAWS) states each entry kind once: its dtype, its draw and its truncated
second moment. Real entry kinds stay float64 throughout, so W and its
spectrum are computed in real arithmetic; only complex-gaussian is
complex128. Entries are drawn, truncated and masked in place, and a
complex W is built BLOCK columns at a time, so one replica holds X, W and
one BLOCK-wide slice of scratch.
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

BLOCK = 256  # columns per complex block product; rows per block of the Hermitian gate


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    # one float buffer for both parts; bit-identical to (re + 1j * im) / sqrt(2)
    buf = rng.standard_normal(shape)
    z = np.empty(buf.shape, dtype=complex)
    z.real = buf
    z.imag = rng.standard_normal(out=buf)
    z /= math.sqrt(2.0)
    return z


# each entry kind's dtype, draw of an array of a given shape and truncated second moment
# E[|X|^2 1_{|X|<C}] at a cutoff 0 < C < inf
_LAWS = {
    # |X|^2 is Exp(1); the tail (1 + C^2) e^(-C^2) is below half an ulp of 1 from C = 7 on
    "complex-gaussian": (np.dtype(complex), _complex_gaussian,
                         lambda c: 1.0 - (1.0 + c * c) * math.exp(-c * c) if c < 7.0 else 1.0),
    "real-gaussian": (np.dtype(float), lambda rng, shape: rng.standard_normal(shape),
                      lambda c: math.erf(c / math.sqrt(2.0))
                      - c * math.sqrt(2.0 / math.pi) * math.exp(-c * c / 2.0)),
    "rademacher": (np.dtype(float), lambda rng, shape: 2.0 * rng.integers(0, 2, size=shape) - 1.0,
                   lambda c: 1.0 if c > 1.0 else 0.0),
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
            x[np.abs(x) >= self.trunc] = 0.0
            x /= math.sqrt(_truncated_second_moment(self.kind, self.trunc))
        return x


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
