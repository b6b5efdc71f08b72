"""Hermitian spectra, empirical distributions, moments and CDF metrics.

A replica's spectrum is solved by LAPACK in numpy's OpenBLAS in the
triangle of X's own buffer where matrices.covariance formed W (or, for a
diagram taller than wide, X* X, beside W's exact zeros), so a replica holds
no matrix beside X. A whole matrix built elsewhere is gated as Hermitian
and solved in its own buffer, bit for bit np.linalg.eigvalsh's values
(which solves a copy where numpy has another library). Replica i is a
function of i alone, so mid-sized replicas run side by side on
threads, each on one BLAS thread (the library releases the interpreter
lock), and their bits depend on neither the workers nor the thread count.

Distance computations work on a small CDF protocol: objects exposing
``eval`` / ``eval_left`` (vectorized, right-continuous values and left
limits, as new arrays), ``sides`` (both at once), ``len`` (the number of
knots) and ``knots(start, stop)`` (the jump or grid abscissae indexed start
to stop - 1 with the values and left limits there, bit for bit those of
``eval`` and ``eval_left``; between knots a CDF is constant or linear). The
completed graph, jumps filled in by vertical segments, is derived from the
knots. The Levy and KS distances walk the larger CDF's knots in blocks of
2^14 and evaluate the other CDF once at each knot, so beside the two CDFs
they hold one block's arrays and the smaller CDF's graph. A step CDF of n
values holds 16 bytes a value, built with one sort of a copy. Step CDFs come
from spectra and the limit law supplies a piecewise-linear grid CDF. An
ensemble's spectra are one float64 array, a row a replica: ``ravel()`` pools
them without a copy, and ``spectra_moments`` takes an order's moments of all
replicas in one mean over the rows.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRangeError, NotHermitianError, OutsideDomainError, SolverFailureError
from .matrices import (BLOCK, CHUNK, CovarianceMatrix, EntryDistribution, _lapack, _openblas, covariance,
                       sample_shaped)
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
    "histogram_edges",
    "replica_bytes",
    "replica_workers",
    "shape_ensemble_spectra",
    "spectra_moments",
]


_HERM_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Ascending real eigenvalues of a Hermitian matrix."""

    values: np.ndarray
    dim: int


def _hermitian(m: np.ndarray) -> np.ndarray:
    """A whole matrix, C-contiguous (a copy where it is not), gated and mirrored: entries
    further than 1e-10 of the largest from Hermitian, checked BLOCK rows at a time, raise
    NotHermitianError, and each row block then overwrites its part of the upper triangle with
    the lower one's conjugate."""
    m = np.require(m, None, ["C"])
    n = len(m)
    scale = asym = 0.0
    for i in range(0, n, BLOCK):
        rows, mirror = m[i:i + BLOCK], m[:, i:i + BLOCK].conj().T
        scale = np.maximum(scale, np.abs(rows).max())  # not max(): a NaN must get through
        asym = np.maximum(asym, np.abs(rows - mirror).max())
        # every pair these rows hold is checked: a later block reads the mirrored entries
        # only as pairs with its own rows, which stay as they are
        upper = np.arange(i, n) > np.arange(i, i + len(rows))[:, None]
        np.copyto(rows[:, i:], mirror[:, i:], where=upper)
    scale, asym = float(scale), float(asym)
    if scale > 0 and asym > _HERM_TOL * scale:
        raise NotHermitianError(f"asymmetry {asym:.3e} exceeds {_HERM_TOL:.1e} * {scale:.3e}")
    return m


def eigenvalues(w: CovarianceMatrix) -> Spectrum:
    """Full real spectrum of a Hermitian (or real symmetric) matrix, ascending, solved in the
    buffer of ``w.entries``, which it consumes.

    A triangle that matrices.covariance named is solved as it is, and its
    ``zeros`` exact zeros join the values in order. A whole matrix built
    elsewhere is first gated and mirrored (_hermitian), and its values are
    then np.linalg.eigvalsh's bit for bit: like eigvalsh, the solve reads
    only the lower triangle. ?syevd or ?heevd (jobz N) of numpy's OpenBLAS
    solves the buffer read as column-major, W's transpose, whose lower
    triangle is the conjugate of W's upper one: the same driver on
    conjugated data gives the same bits. Where numpy's library has no such
    driver, eigvalsh solves a copy. A failed solve raises
    SolverFailureError, as on LAPACK's path a NaN in the triangle read
    does. Entries that are not writeable float64 or complex128, or whose
    rows LAPACK cannot read in place (unit stride within a row, rows at
    least a row apart), are converted first.
    """
    if w.entries.ndim != 2 or w.entries.shape[0] != w.entries.shape[1]:
        raise NotHermitianError(f"matrix shape {w.entries.shape} is not square")
    m = np.require(w.entries, complex if np.iscomplexobj(w.entries) else float, ["A", "W"])
    n = len(m)
    if w.triangle is None:
        m = _hermitian(m)
    elif m.strides[1] != m.itemsize or m.strides[0] < m.itemsize * n:
        m = np.ascontiguousarray(m)
    values = np.zeros(n + w.zeros)
    lib = _openblas()
    if lib is None:
        try:
            values[w.zeros:] = np.linalg.eigvalsh(m, UPLO="U" if w.triangle == "upper" else "L")
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(str(exc)) from exc
    else:
        # column-major layout (102): the row-major upper triangle is the lower one read
        _lapack(lib, m.dtype, "solve", 102, b"N", b"U" if w.triangle == "lower" else b"L", n,
                m.ctypes.data, max(m.strides[0] // m.itemsize, 1), values[w.zeros:].ctypes.data)
    if w.zeros:
        values.sort()  # a rounded value below 0 goes before the exact zeros
    return Spectrum(values=values, dim=n + w.zeros)


class StepCDF:
    """Right-continuous step CDF with jump 1/n at each atom (with multiplicity).

    It holds its sorted distinct atoms and the counts of values below each
    atom and of all of them; a NaN value raises OutsideDomainError.
    """

    def __init__(self, values):
        ordered = np.sort(np.asarray(values, dtype=float), axis=None)  # a copy, as np.unique sorts
        if ordered.size and np.isnan(ordered[-1]):  # NaNs sort last
            raise OutsideDomainError("a step CDF's values must not be NaN")
        # each run of equal values starts where it differs from its predecessor,
        # so the run keeps its first element as np.unique does, -0.0 or 0.0
        starts = np.ones(ordered.size + 1, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:-1])
        # counts of values below each atom, then of all of them
        self._at_most = np.flatnonzero(starts)
        # with no ties the sorted copy is the atoms
        self.atoms = ordered if len(self._at_most) > ordered.size else ordered[self._at_most[:-1]]
        self._n = ordered.size

    @property
    def multiplicities(self) -> np.ndarray:
        return np.diff(self._at_most)

    def __len__(self) -> int:
        return len(self.atoms)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return self._at_most[np.searchsorted(self.atoms, x, side="right")] / self._n

    def eval_left(self, x):
        x = np.asarray(x, dtype=float)
        return self._at_most[np.searchsorted(self.atoms, x, side="left")] / self._n

    def sides(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``eval`` and ``eval_left`` at x."""
        return self.eval(x), self.eval_left(x)

    def knots(self, start: int = 0, stop: int | None = None):
        """The atoms indexed start..stop-1, the CDF at them and its left limits there."""
        counts = self._at_most[start:None if stop is None else stop + 1] / self._n
        return self.atoms[start:stop], counts[1:], counts[:-1]


class GridCDF:
    """Piecewise-linear CDF interpolant on an explicit grid.

    It is 0 below ``xs[0]``, jumps to ``fs[0]`` there, is linear between
    knots and stays at ``fs[-1]`` beyond the last.
    """

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

    def __len__(self) -> int:
        return len(self.xs)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.xs, self.fs, left=0.0, right=self.fs[-1])

    def eval_left(self, x):
        return self.sides(x)[1]

    def sides(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``eval`` and ``eval_left`` at x, from one interpolation."""
        at = self.eval(x)
        return at, np.where(np.asarray(x, dtype=float) > self.xs[0], at, 0.0)

    def knots(self, start: int = 0, stop: int | None = None):
        """The grid points indexed start..stop-1, with the CDF and its left limits there
        (0 at ``xs[0]``)."""
        at = self.fs[start:stop]
        return self.xs[start:stop], at, np.concatenate([[0.0], at[1:]]) if start == 0 else at


# knots of the larger CDF that a distance walks at a time: beside the CDFs' own
# arrays and the smaller CDF's graph, it builds arrays of one block's vertices
# (two a knot) at most; smaller blocks cost more numpy calls, larger more memory.
# The CLI's triangular window and memory budget read it at call time too.
KNOT_BLOCK = 1 << 14


def _max_gap(own: np.ndarray, other: np.ndarray) -> float:
    """max |own - other|, computed in place in ``other``, a new array; 0 for none."""
    np.subtract(other, own, out=other)
    return np.abs(other, out=other).max(initial=0.0)


def _rotated_graph(pts, at, left) -> tuple[np.ndarray, np.ndarray]:
    """x + y and y of the completed graph's vertices, (p, left) then (p, at) at each knot p."""
    y = np.column_stack([left, at]).ravel()
    x = np.repeat(pts, 2)
    return np.add(x, y, out=x), y


def _heights(u, y, count):
    """The graph's own heights at its first ``count`` vertices, as np.interp(u, u, y) gives
    them: where rounding or a knot without a jump puts vertices on one u, the last one's."""
    if np.all(u[1:] > u[:-1]):
        return y[:count]
    return np.interp(u[:count], u, y)


def _levy_block(big, start: int, us, ys, small_own) -> float:
    """The largest gap at the larger graph's vertices of the knots from ``start`` a block on
    and at the smaller graph's (``us``, ``ys``) vertices that fall in that block."""
    last = start + KNOT_BLOCK >= len(big)
    # the block's knots and the next block's first: every bracket np.interp reads is here
    ub, yb = _rotated_graph(*big.knots(start, start + KNOT_BLOCK + 1))
    owned = len(ub) if last else len(ub) - 2
    # own vertices on the next block's first u share its gap; that block reads their height
    cut = owned if last else np.searchsorted(ub[:owned], ub[owned])
    lo = np.searchsorted(us, ub[0]) if start else 0
    hi = len(us) if last else np.searchsorted(us, ub[owned])
    return max(_max_gap(_heights(ub, yb, cut), np.interp(ub[:cut], us, ys, left=0.0, right=ys[-1])),
               _max_gap(small_own[lo:hi], np.interp(us[lo:hi], ub, yb, left=0.0, right=yb[-1])))


def levy_distance(f, g) -> float:
    """Exact Levy metric between two CDFs by the rotated-graph algorithm.

    By Zolotarev's characterisation (Rachev, *Probability Metrics and the
    Stability of Stochastic Models*, 1991, ch. 4) the Levy distance is the
    largest gap in height between the two completed graphs along the lines
    x + y = u. Each line crosses a completed graph once, so its height is a
    function of u; it is piecewise linear with knots at the graph vertices,
    0 to their left and the total mass to their right. The gap is therefore
    largest at a knot of one of them. Each knot p of a CDF gives the
    vertices (p, left limit) and (p, value), in that order; between knots
    the graph is a straight segment. At its own knots a graph's height is
    its vertex height, so each vertex is interpolated into the other graph
    only, once. Where rounding or a knot without a jump puts two vertices
    of one graph on one u, np.interp gives that graph's own heights, the
    last such vertex's, as it did on the union of knots.

    The smaller CDF's graph is built whole. The larger one's is built a
    block of knots at a time, with the next block's first knot, so every
    bracket np.interp reads lies in one block; a block takes the smaller
    graph's vertices from its first u up to the next block's first u.
    """
    big, small = (f, g) if len(f) >= len(g) else (g, f)
    us, ys = _rotated_graph(*small.knots())
    small_own = _heights(us, ys, len(us))
    gap = 0.0
    for start in range(0, len(big), KNOT_BLOCK):  # one block's arrays at a time
        gap = max(gap, _levy_block(big, start, us, ys, small_own))
    return float(gap)


def _ks_gap(a, b, start: int = 0, stop: int | None = None) -> float:
    """The largest gap, on values and on left limits, at a's knots from start to stop."""
    pts, at, left = a.knots(start, stop)
    b_at, b_left = b.sides(pts)
    return max(_max_gap(at, b_at), _max_gap(left, b_left))


def ks_distance(f, g) -> float:
    """Sup-norm distance between two CDFs, on values and left limits.

    The gap is largest at a knot of one of them, on one side; each CDF's
    knots carry its own values, so only the other CDF is evaluated there,
    once a knot for both sides. The larger CDF's knots are read a block at
    a time.
    """
    big, small = (f, g) if len(f) >= len(g) else (g, f)
    gap = _ks_gap(small, big)
    for start in range(0, len(big), KNOT_BLOCK):
        gap = max(gap, _ks_gap(big, small, start, start + KNOT_BLOCK))
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


def histogram_edges(bins: int, value_range) -> np.ndarray:
    """The ``bins`` + 1 equal-width edges over (lo, hi); InvalidRangeError unless they increase."""
    lo, hi = value_range
    with np.errstate(over="ignore", invalid="ignore"):  # hi - lo may overflow; bins may be 0 wide
        edges = np.linspace(lo, hi, max(bins, 0) + 1)
        ok = bins >= 1 and -np.inf < lo < hi < np.inf and np.all(np.diff(edges) > 0)
    if not ok:
        raise InvalidRangeError(f"bad histogram spec: bins={bins}, range=({lo}, {hi})")
    return edges


def histogram(values, bins: int, value_range: tuple[float, float]) -> Histogram:
    """Density histogram of ``values`` on ``bins`` equal bins over ``value_range``."""
    lo, hi = value_range
    edges = histogram_edges(bins, value_range)
    vals = np.asarray(values, dtype=float)
    total = vals.size
    counts, _ = np.histogram(vals, bins=edges)
    below = int(np.sum(vals < lo))
    above = int(np.sum(vals > hi))
    n, widths = max(total, 1), np.diff(edges)
    # a count in a bin under 1 / float max wide has a density beyond the float range: inf
    with np.errstate(over="ignore"):
        scaled_widths = n * widths
        density = counts / scaled_widths  # all 0 for no values
    # where n * width overflows the density may still be a float: divide twice there
    wide = np.isinf(scaled_widths)
    density[wide] = counts[wide] / n / widths[wide]
    return Histogram(edges=edges, counts=counts.astype(float), density=density,
                     below=below, above=above, total=total)


@dataclass(frozen=True)
class EnsembleMoments:
    """Per-order sample mean and unbiased variance of empirical moments."""

    means: np.ndarray
    variances: np.ndarray


# bytes of one replica (replica_bytes) between which replicas run side by side: below, a
# replica's BLAS calls are too short to outweigh the interpreter lock the workers share (on
# 2 vCPUs two workers ran staircases of dim 8 to 40 at 0.5 to 1.2 times the speed of one, and
# of dim 48 to 200 at 1.2 to 1.9); above, two at once would hold twice the memory of one for
# little gain. Squares of real dims 64 to 708 and complex dims 46 to 505 run side by side
SIDE_BY_SIDE = (66 << 10, 4500 << 10)


def replica_bytes(rows: int, cols: int, itemsize: int) -> int:
    """Peak bytes of one replica with a rows x cols X of ``itemsize``-byte entries.

    Every phase runs in X's buffer, beside: in the draw, a chunk's |X| and
    mask, or a chunk's integers and the 8192 entries of numpy's buffer that
    casts them; in the factoring (matrices.covariance), BLOCK rows of
    scratch and a row group's reflector scalars; in the solve, the
    eigenvalues.
    """
    entries = rows * cols
    return itemsize * entries + max(9 * min(entries, CHUNK) + 8 * min(entries, 8192),
                                    itemsize * (min(BLOCK, rows) * cols + min(rows, cols)), 8 * rows)


def _side_by_side(replica: int) -> bool:
    """Whether replicas of ``replica`` bytes run side by side, each on one BLAS thread: where
    they are mid-sized and numpy's OpenBLAS can be told its thread count."""
    return SIDE_BY_SIDE[0] <= replica <= SIDE_BY_SIDE[1] and _openblas() is not None


def replica_workers(replica: int, replicas: int, jobs: int | None = None) -> int:
    """How many of ``replicas`` replicas of ``replica`` bytes run at once: up to ``jobs`` (None:
    the CPUs), the replicas and the CPUs where they run side by side, else one."""
    if not _side_by_side(replica):
        return 1
    cpus = os.cpu_count() or 1
    return min(jobs or cpus, replicas, cpus)


def _replica_eigenvalues(shape: Partition, scale: int, dist: EntryDistribution, seed: int,
                         index: int) -> np.ndarray:
    # W is formed and solved in X's buffer
    w = covariance(sample_shaped(shape, dist, (seed, index)), scale)
    return eigenvalues(w).values


def _fill_rows(spectra: np.ndarray, solve, workers: int) -> None:
    """Row i of ``spectra`` as ``solve(i)``, on ``workers`` threads, the caller's among them.

    Each worker takes the next index from one counter. The first failure
    stops every worker from starting another replica and is raised here
    once all have joined.
    """
    indices, failures = itertools.count(), []

    def work():
        try:
            for i in indices:  # next() on a count is one step under the interpreter lock
                if i >= len(spectra) or failures:
                    return
                spectra[i] = solve(i)
        except BaseException as exc:  # re-raised below, in the caller
            failures.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def shape_ensemble_spectra(shape: Partition, scale: int, dist: EntryDistribution,
                           replicas: int, seed: int, jobs: int | None = None) -> np.ndarray:
    """Eigenvalues of `replicas` draws of W = X X*/scale on a fixed shape, one row a replica.

    The result is one C-contiguous float64 array of shape (replicas,
    shape.length()), so ``ravel()`` pools it without a copy. Replica i
    always uses substream (seed, i) and fills row i. Mid-sized replicas
    (SIDE_BY_SIDE) run on one BLAS thread each, up to ``replica_workers``
    of them at once, and the process's thread count is restored afterwards;
    tiny and large ones run one at a time on that count, as where numpy's
    OpenBLAS cannot be told its count. Either way a replica's BLAS thread
    count follows from its size alone, so the array is identical for any
    `jobs`.
    """
    if replicas < 1:
        raise ValueError(f"replicas {replicas} < 1")
    spectra = np.empty((replicas, shape.length()))
    solve = functools.partial(_replica_eigenvalues, shape, scale, dist, seed)
    replica = replica_bytes(shape.length(), shape.parts[0] if shape else 0, dist.itemsize)
    if not _side_by_side(replica):
        _fill_rows(spectra, solve, 1)
        return spectra
    lib = _openblas()
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        _fill_rows(spectra, solve, replica_workers(replica, replicas, jobs))
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)
    return spectra


def spectra_moments(spectra, k_max: int) -> EnsembleMoments:
    """Mean and unbiased variance over replicas of m_k = mean(lambda^k), k = 0..k_max.

    ``spectra`` has a row a replica (a list of equal-length arrays does
    too). Each order's replica moments are folded into its mean and variance
    at once: no table is held. A single replica has no spread; its variances
    are 0. The first order at which some replica's moment leaves the float
    range raises OutsideDomainError, before any higher order is computed.
    """
    spectra = np.asarray(spectra, dtype=float)
    means, variances = np.empty(k_max + 1), np.empty(k_max + 1)
    # a mean or variance beyond the float range is left to the caller's check
    with np.errstate(over="ignore"):
        for k in range(k_max + 1):
            row = np.mean(spectra**k, axis=1)
            if not np.all(np.isfinite(row)):
                raise OutsideDomainError(f"empirical moment k = {k} exceeds the float range")
            means[k], variances[k] = row.mean(), row.var(ddof=1) if len(row) > 1 else 0.0
    return EnsembleMoments(means=means, variances=variances)
