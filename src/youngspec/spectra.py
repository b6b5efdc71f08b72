"""Hermitian spectra, empirical distributions, moments and CDF metrics.

Distance computations work on a small CDF protocol: objects exposing
``eval`` / ``eval_left`` (vectorized, right-continuous values and left
limits, as new arrays), ``knots`` (the jump or grid abscissae with the
values and left limits there, bit for bit those of ``eval`` and
``eval_left``) and ``graph`` (new arrays of the vertices of the completed
graph, jumps filled in by vertical segments). Step CDFs come from
spectra; the limit law supplies a piecewise-linear grid CDF.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRangeError, NotHermitianError, OutsideDomainError, SolverFailureError
from .matrices import BLOCK, CovarianceMatrix, EntryDistribution, covariance, sample_shaped
from .partitions import Partition

__all__ = [
    "Spectrum",
    "StepCDF",
    "GridCDF",
    "Histogram",
    "EnsembleMoments",
    "eigenvalues",
    "levy_distance",
    "ks_distance",
    "histogram",
    "ensemble_spectra",
    "ensemble_moments",
    "spectra_moments",
    "sorted_unique",
]


_HERM_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Ascending real eigenvalues of a Hermitian matrix."""

    values: np.ndarray
    dim: int


def eigenvalues(w: CovarianceMatrix) -> Spectrum:
    """Full real spectrum of a Hermitian (or real symmetric) matrix, ascending.

    Entries further than 1e-10 of the largest from Hermitian, checked BLOCK
    rows at a time, raise NotHermitianError; eigvalsh reads only the lower triangle.
    """
    m = w.entries
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"matrix shape {m.shape} is not square")
    scale = asym = 0.0
    for i in range(0, m.shape[0], BLOCK):
        rows = m[i:i + BLOCK]
        scale = np.maximum(scale, np.abs(rows).max())  # not max(): a NaN must get through
        asym = np.maximum(asym, np.abs(rows - m[:, i:i + BLOCK].conj().T).max())
    scale, asym = float(scale), float(asym)
    if scale > 0 and asym > _HERM_TOL * scale:
        raise NotHermitianError(f"asymmetry {asym:.3e} exceeds {_HERM_TOL:.1e} * {scale:.3e}")
    try:
        vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - solver failures are exotic
        raise SolverFailureError(str(exc)) from exc
    return Spectrum(values=vals, dim=m.shape[0])


def sorted_unique(values) -> np.ndarray:
    """np.unique of a NaN-free array, without the numpy.ma import (about 14 ms) it makes."""
    a = np.sort(np.asarray(values, dtype=float), axis=None)
    return np.concatenate((a[:1], a[1:][a[1:] != a[:-1]]))


class StepCDF:
    """Right-continuous step CDF with jump 1/n at each atom (with multiplicity)."""

    def __init__(self, values):
        self.atoms, self.multiplicities = np.unique(np.asarray(values, dtype=float),
                                                    return_counts=True)
        # counts of values <= each atom; a leading 0 for points below the first
        self._at_most = np.concatenate([[0], np.cumsum(self.multiplicities)])
        self._n = int(self._at_most[-1])

    @property
    def total(self) -> int:
        return self._n

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return self._at_most[np.searchsorted(self.atoms, x, side="right")] / self._n

    def eval_left(self, x):
        x = np.asarray(x, dtype=float)
        return self._at_most[np.searchsorted(self.atoms, x, side="left")] / self._n

    def knots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The atoms, the CDF at them and its left limits there."""
        counts = self._at_most / self._n
        return self.atoms, counts[1:], counts[:-1]

    def graph(self) -> tuple[np.ndarray, np.ndarray]:
        """Completed-graph vertices: each atom at the bottom and the top of its jump."""
        counts = self._at_most / self._n
        return np.repeat(self.atoms, 2), np.column_stack([counts[:-1], counts[1:]]).ravel()


class GridCDF:
    """Piecewise-linear CDF interpolant on an explicit grid."""

    def __init__(self, xs, fs):
        xs = np.asarray(xs, dtype=float)
        fs = np.asarray(fs, dtype=float)
        if xs.ndim != 1 or xs.shape != fs.shape:
            raise ValueError("grid and values must be 1-d and equal length")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("grid must be strictly increasing")
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.diff(fs) / np.diff(xs)
        if not np.all(np.isfinite(slopes)):
            raise ValueError("CDF values and their slopes between knots must be finite")
        if np.any(np.diff(fs) < -1e-12):
            raise ValueError("CDF values must be nondecreasing")
        self.xs = xs
        self.fs = np.maximum.accumulate(fs)

    @property
    def mass(self) -> float:
        return float(self.fs[-1])

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.xs, self.fs, left=0.0, right=self.fs[-1])

    eval_left = eval  # continuous

    def knots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The grid, with the CDF and its (equal) left limits there."""
        return self.xs, self.fs, self.fs

    def graph(self) -> tuple[np.ndarray, np.ndarray]:
        """Completed-graph vertices: the knots, preceded by ``(xs[0], 0)``."""
        return np.concatenate([[self.xs[0]], self.xs]), np.concatenate([[0.0], self.fs])


def _max_gap(own: np.ndarray, other: np.ndarray) -> float:
    """max |own - other|, computed in place in ``other``, a new array."""
    np.subtract(other, own, out=other)
    return np.abs(other, out=other).max()


def levy_distance(f, g) -> float:
    """Exact Levy metric between two CDFs by the rotated-graph algorithm.

    By Zolotarev's characterisation (Rachev, *Probability Metrics and the
    Stability of Stochastic Models*, 1991, ch. 4) the Levy distance is the
    largest gap in height between the two completed graphs along the lines
    x + y = u. Each line crosses a completed graph once, so its height is a
    function of u; it is piecewise linear with knots at the graph vertices,
    0 to their left and the total mass to their right. The gap is therefore
    largest at a knot of one of them. At its own knots a graph's height is
    its vertex height, so each graph's knots are interpolated into the
    other graph only: n + m interpolations for n and m vertices, where the
    union of knots took 2(n + m). Where rounding puts two vertices of one
    graph on one u, np.interp gives that graph's own heights, as it did on
    the union.
    """
    (xf, yf), (xg, yg) = f.graph(), g.graph()
    uf, ug = np.add(xf, yf, out=xf), np.add(xg, yg, out=xg)
    gap = 0.0
    for (u, y), (v, z) in (((uf, yf), (ug, yg)), ((ug, yg), (uf, yf))):
        own = y if np.all(u[1:] > u[:-1]) else np.interp(u, u, y, left=0.0, right=y[-1])
        gap = max(gap, _max_gap(own, np.interp(u, v, z, left=0.0, right=z[-1])))
    return float(gap)


def ks_distance(f, g) -> float:
    """Sup-norm distance between two CDFs, on values and left limits.

    The gap is largest at a knot of one of them, on one side; each CDF's
    knots carry its own values, so only the other CDF is evaluated there.
    """
    gap = 0.0
    for a, b in ((f, g), (g, f)):
        pts, at, left = a.knots()
        gap = max(gap, _max_gap(at, b.eval(pts)), _max_gap(left, b.eval_left(pts)))
    return float(gap)


@dataclass(frozen=True)
class Histogram:
    """Normalized density histogram with explicit overflow accounting."""

    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    below: int
    above: int
    total: int


def histogram(values, bins: int, value_range: tuple[float, float]) -> Histogram:
    """Density histogram of ``values`` on ``bins`` equal bins over a finite ``value_range``."""
    lo, hi = value_range
    with np.errstate(over="ignore", invalid="ignore"):  # hi - lo may overflow; bins may be 0 wide
        edges = np.linspace(lo, hi, max(bins, 0) + 1)
        ok = bins >= 1 and -np.inf < lo < hi < np.inf and np.all(np.diff(edges) > 0)
    if not ok:
        raise InvalidRangeError(f"bad histogram spec: bins={bins}, range=({lo}, {hi})")
    vals = np.asarray(values, dtype=float)
    total = vals.size
    if total == 0:
        zero = np.zeros(bins)
        return Histogram(edges=edges, counts=zero.copy(), density=zero, below=0, above=0, total=0)
    counts, _ = np.histogram(vals, bins=edges)
    below = int(np.sum(vals < lo))
    above = int(np.sum(vals > hi))
    widths = np.diff(edges)
    density = counts / (total * widths)
    return Histogram(edges=edges, counts=counts.astype(float), density=density,
                     below=below, above=above, total=total)


@dataclass(frozen=True)
class EnsembleMoments:
    """Per-order sample mean and unbiased variance of empirical moments."""

    means: np.ndarray
    variances: np.ndarray


def _replica_eigenvalues(args) -> np.ndarray:
    lam_parts, scale, dist, seed, index = args
    # X is gone once W is built: the gate and eigvalsh run beside W alone
    w = covariance(sample_shaped(Partition(lam_parts), dist, (seed, index)), scale)
    return eigenvalues(w).values


def shape_ensemble_spectra(shape: Partition, scale: int, dist: EntryDistribution,
                           replicas: int, seed: int, jobs: int = 1) -> list[np.ndarray]:
    """Eigenvalue arrays for `replicas` draws of W = X X*/scale on a fixed shape.

    Replica i always uses substream (seed, i), so results are identical
    for any `jobs` (capped at the replicas and CPUs); outputs are ordered by replica index.
    """
    if replicas < 1:
        raise ValueError(f"replicas {replicas} < 1")
    tasks = [(shape.parts, scale, dist, seed, i) for i in range(replicas)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay its import

        with ProcessPoolExecutor(max_workers=min(jobs, replicas, os.cpu_count() or 1)) as pool:
            return list(pool.map(_replica_eigenvalues, tasks))
    return [_replica_eigenvalues(t) for t in tasks]


def ensemble_spectra(lam: Partition, n: int, dist: EntryDistribution, replicas: int,
                     seed: int, jobs: int = 1) -> list[np.ndarray]:
    """Ensemble spectra for the n-fold dilation of lam, scaled by n."""
    return shape_ensemble_spectra(lam.dilate(n), n, dist, replicas, seed, jobs=jobs)


def spectra_moments(spectra: list[np.ndarray], k_max: int) -> EnsembleMoments:
    """Mean and unbiased variance over replicas of m_k = mean(lambda^k), k = 0..k_max.

    A single replica has no spread; its variances are reported as 0. The
    first order at which some replica's moment leaves the float range
    raises OutsideDomainError, before any higher order is computed.
    """
    rows = []
    # a mean or variance beyond the float range is left to the caller's check
    with np.errstate(over="ignore"):
        for k in range(k_max + 1):
            row = [1.0 if k == 0 else float(np.mean(vals**k)) for vals in spectra]
            if not np.all(np.isfinite(row)):
                raise OutsideDomainError(f"empirical moment k = {k} exceeds the float range")
            rows.append(row)
        table = np.array(rows)
        variances = table.var(axis=1, ddof=1) if len(spectra) > 1 else np.zeros(k_max + 1)
        return EnsembleMoments(means=table.mean(axis=1), variances=variances)


def ensemble_moments(lam: Partition, n: int, dist: EntryDistribution, k_max: int,
                     replicas: int, seed: int, jobs: int = 1) -> EnsembleMoments:
    """Monte Carlo mean/variance of the empirical moments m_{k,N}, k = 0..k_max."""
    if replicas < 2:
        raise ValueError(f"replicas {replicas} < 2; variance needs at least two")
    return spectra_moments(ensemble_spectra(lam, n, dist, replicas, seed, jobs=jobs), k_max)
