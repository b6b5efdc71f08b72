"""Diagram-shaped random matrices: the draw, W = X X* / N and its spectrum, and a replica's
bytes and BLAS threads.

Entries are i.i.d. with mean zero and unit second absolute moment; the
diagram acts as a hard mask (exact structural zeros). One table (_LAWS)
states each entry kind once: its dtype, its draw and its truncated second
moment. Real kinds stay float64 throughout, so W and its spectrum are real;
only complex-gaussian is complex128. Entries are drawn, truncated and masked
in place, 2^16 at a time where a draw or a truncation needs scratch. W is
formed in X's own buffer, on the diagram's smaller side, by LAPACK in numpy's
OpenBLAS: a QR a row group at a time over only that group's rows inside the
diagram, then ?lauum, the in-place triangular Gram; its spectrum is solved
there, with as many exact zeros as the diagram's rank leaves. So a replica
holds X and BLOCK rows of scratch (replica_bytes), and mid-sized replicas run
side by side, each on one BLAS thread (replica_threads).
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateTruncationError, EmptyPartitionError, NotHermitianError, SolverFailureError
from .partitions import Partition
from .streams import substream

__all__ = [
    "ENTRY_KINDS",
    "EntryDistribution",
    "ShapedMatrix",
    "CovarianceMatrix",
    "Spectrum",
    "SIDE_BY_SIDE",
    "sample_shaped",
    "covariance",
    "eigenvalues",
    "replica_bytes",
    "replica_workers",
    "replica_threads",
]

_SQRT3 = math.sqrt(3.0)

BLOCK = 64  # rows a reversal or a flip of W's factor moves at a time
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


# each dtype's LAPACKE routines by step, and the transpose that applies a QR's or an LQ's Q*
_LAPACK = {np.dtype(float): ({"qr": "dgeqrf", "qr_apply": "dormqr", "lq": "dgelqf", "lq_apply": "dormlq",
                              "gram": "dlauum", "solve": "dsyevd"}, b"T"),
           np.dtype(complex): ({"qr": "zgeqrf", "qr_apply": "zunmqr", "lq": "zgelqf", "lq_apply": "zunmlq",
                                "gram": "zlauum", "solve": "zheevd"}, b"C")}


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (scipy-openblas64: 64-bit ints) through ctypes, loaded once,
    with the routines of _LAPACK and the thread-count getter and setter typed; None where
    numpy is built against another library or it lacks one of them."""
    import ctypes

    i64, ptr, char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
    factor = (ctypes.c_int, i64, i64, ptr, i64, ptr)
    apply = (ctypes.c_int, char, char, i64, i64, i64, ptr, i64, ptr, ptr, i64)
    args = {"qr": factor, "qr_apply": apply, "lq": factor, "lq_apply": apply,
            "gram": (ctypes.c_int, char, i64, ptr, i64),
            "solve": (ctypes.c_int, char, char, i64, ptr, i64, ptr)}
    signatures = {f"scipy_LAPACKE_{name}64_": (i64, args[step])
                  for names, _ in _LAPACK.values() for step, name in names.items()}
    signatures.update({"scipy_openblas_get_num_threads64_": (ctypes.c_int, ()),
                       "scipy_openblas_set_num_threads64_": (None, (ctypes.c_int,))})
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy has loaded: one library, one thread pool
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name, None)
            if fn is None:
                return None
            fn.restype, fn.argtypes = restype, argtypes
        return lib
    return None


def _lapack(lib, dtype, step: str, *args) -> None:
    """Call the LAPACKE routine of ``step`` for ``dtype`` in ``lib``; a nonzero info raises
    SolverFailureError naming the routine and info."""
    name = _LAPACK[dtype][0][step]
    info = getattr(lib, f"scipy_LAPACKE_{name}64_")(*args)
    if info:
        raise SolverFailureError(f"LAPACKE {name} failed with info = {info}")


@dataclass(frozen=True)
class ShapedMatrix:
    """Dense matrix whose support lies in a Young diagram (real or complex entries).

    ``shape`` is the diagram, whose rectangle must be the matrix's; entries
    outside it count as zeros. A matrix built without one has its whole
    rectangle as its shape.
    """

    entries: np.ndarray
    shape: Partition | None = None

    def __post_init__(self):
        rows, cols = self.entries.shape
        if self.shape is None:
            object.__setattr__(self, "shape", Partition([cols] * rows))
        elif (self.shape.length(), self.shape.part(1)) != (rows, cols):
            raise ValueError(f"diagram {self.shape.parts} does not span a {rows} x {cols} matrix")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian PSD matrix W = X X* / N built from a shaped sample (real for real entries).

    With ``triangle`` None, ``entries`` is the whole matrix. Else only its
    row-major ``"upper"`` or ``"lower"`` triangle holds the matrix, which is
    W itself or, for a diagram with more rows than columns, X* X / N, whose
    spectrum is W's but for ``zeros`` further eigenvalues that are exactly 0.
    The matrix's own ``deficit`` smallest eigenvalues are exactly 0 too:
    those that its diagram's rank leaves.
    """

    entries: np.ndarray
    triangle: str | None = None
    zeros: int = 0
    deficit: int = 0


def sample_shaped(lam: Partition, dist: EntryDistribution,
                  stream: tuple[int, int]) -> ShapedMatrix:
    """Draw a lam-shaped matrix with i.i.d. entries on the diagram boxes.

    ``stream`` is a (seed, index) pair naming the substream, so every draw
    is bit-reproducible.
    """
    if not lam:
        raise EmptyPartitionError("cannot sample a matrix with empty shape")
    x = dist.sample(substream(*stream), (lam.length(), lam.parts[0]))
    for first, rows, part in lam.row_groups():
        x[first:first + rows, part:] = 0.0  # the boxes right of the diagram
    return ShapedMatrix(entries=x, shape=lam)


def _reverse(a: np.ndarray, scratch: np.ndarray, axes: tuple) -> None:
    """Reverse ``a`` in place along ``axes`` of (0, 1), BLOCK rows at a time through ``scratch``;
    where the rows reverse, each block swaps with its mirror block. Copies only: a ufunc on a
    reversed or strided view would take buffers of its own."""
    cols = slice(None, None, -1) if 1 in axes else slice(None)
    flip = (slice(None, None, -1) if 0 in axes else slice(None), cols)
    m = len(a)
    half = m // 2 if 0 in axes else 0  # the rows that swap places
    for i in range(0, half, BLOCK):
        top = a[i:min(i + BLOCK, half)]
        bottom, tmp = a[m - i - len(top):m - i], scratch[:len(top), :a.shape[1]]
        np.copyto(tmp, top)
        np.copyto(top, bottom[flip])
        np.copyto(bottom, tmp[flip])
    for i in range(half, m - half, BLOCK):  # the rows that keep their place: the middle one, or all
        rows = a[i:min(i + BLOCK, m - half)]
        tmp = scratch[:len(rows), :a.shape[1]]
        np.copyto(tmp, rows[:, cols])
        np.copyto(rows, tmp)


def covariance(x: ShapedMatrix, n: int) -> CovarianceMatrix:
    """W = X X* / n in X's own buffer, which it consumes; spectra.eigenvalues solves it there.

    The buffer read as column-major is Y = X^T. On a diagram no taller
    than wide, X's rows are reversed, so Y's columns have ascending supports,
    and each row group's columns are QR-factored (?geqrf) over only their
    rows inside the diagram, their reflectors applied to the later columns
    on those rows (?ormqr, ?unmqr): fill-in stays inside the diagram. The
    triangle R then holds Y* Y = R* R up to that reversal, so R is flipped
    end for end, scaled by 1/sqrt(n), and ?lauum forms R* R over it: the
    row-major upper triangle of the leading rows x rows block holds W. A
    taller diagram takes the same steps on X's reversed columns with an LQ
    (?gelqf, ?ormlq, ?unmlq) over the conjugate diagram's groups, and its
    row-major lower triangle holds X* X / n, whose spectrum is W's less
    rows - cols zeros. A group with one row inside the diagram needs no
    QR: a real one is left as it is, and a complex one's row is turned by
    a phase, since ?lauum reads only the real part of the diagonal. X that
    is not C-contiguous, writeable float64 or complex128 is converted
    first. Where numpy's library has no such routines, W is the whole
    product x @ x.conj().T / n, named by its lower triangle. Either way the
    matrix's ``deficit`` is its dimension less the diagram's rank.
    """
    if n < 1:
        raise ValueError(f"scale {n} < 1")
    rows, cols = x.entries.shape
    wide = rows <= cols
    groups = (x.shape if wide else x.shape.conjugate()).row_groups()
    m = min(rows, cols)
    # any matrix on the diagram has at most, and a generic draw exactly, its term rank: by
    # Konig's theorem the fewest rows and columns covering it, the first k rows and first
    # lam_(k+1) columns for some k (of the conjugate, on a tall diagram: the same count)
    rank = min([first + part for first, _, part in groups] + [m])
    lib = _openblas()
    a = x.entries
    if lib is None:
        w = a @ a.conj().T
        w /= n
        return CovarianceMatrix(entries=w, triangle="lower", deficit=rows - rank)
    a = np.require(a, complex if np.iscomplexobj(a) else float, ["C", "A", "W"])
    item, dtype = a.itemsize, a.dtype
    scratch = np.empty((min(BLOCK, rows), cols), dtype)
    _reverse(a, scratch, (0,) if wide else (1,))
    trans = _LAPACK[dtype][1]
    tau = np.empty(max((count for _, count, _ in groups), default=0), dtype)

    base, taus = a.ctypes.data, tau.ctypes.data  # each .ctypes.data takes microseconds

    def at(i, j):  # the address of Y's entry (i, j): Y is column-major with leading dimension cols
        return base + (i + j * cols) * item

    turned = []  # the complex groups with one row inside the diagram
    for first, count, part in reversed(groups):
        k = m - first - count  # the group's first column of Y (its first row, taller)
        free = part - k  # its rows (columns) inside the diagram, from k on
        if free < 1 or free == 1 and dtype.kind == "f":
            continue
        if free == 1:
            turned.append(k)
            continue
        later = m - k - count  # the columns (rows) of the groups still to come
        if wide:
            _lapack(lib, dtype, "qr", 102, free, count, at(k, k), cols, taus)
            if later:
                _lapack(lib, dtype, "qr_apply", 102, b"L", trans, free, later, min(free, count),
                        at(k, k), cols, taus, at(k, k + count), cols)
        else:
            _lapack(lib, dtype, "lq", 102, count, free, at(k, k), cols, taus)
            if later:
                _lapack(lib, dtype, "lq_apply", 102, b"R", trans, later, free, min(free, count),
                        at(k, k), cols, taus, at(k + count, k), cols)
    # a one-row group's QR would only turn its row of Y (its column, taller) by the phase that
    # makes its diagonal entry real, which ?lauum needs; that turn and the scale 1/sqrt(n), so
    # that W is (R / sqrt(n))* (R / sqrt(n)), take one pass over the factor's contiguous rows
    scale = np.full(cols, 1.0 / math.sqrt(n), dtype)
    if turned:
        scale[turned] *= np.exp(-1j * np.angle(a[turned, turned]))  # 1 where the entry is 0
    a[:m] *= scale if wide else scale[:, None]
    block = a[:m, :m]
    _reverse(block, scratch, (0, 1))
    _lapack(lib, dtype, "gram", 102, b"L" if wide else b"U", m, base, max(cols, 1))
    return CovarianceMatrix(entries=block, triangle="upper" if wide else "lower", zeros=rows - m,
                            deficit=m - rank)


_HERM_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Ascending real eigenvalues of a Hermitian matrix."""

    values: np.ndarray
    dim: int


def eigenvalues(w: CovarianceMatrix) -> Spectrum:
    """Full real spectrum of a Hermitian (or real symmetric) matrix, ascending.

    A named triangle is solved in its own buffer, which it consumes, by
    ?syevd or ?heevd (jobz N) of numpy's OpenBLAS, else by
    np.linalg.eigvalsh; its ``deficit`` smallest values are set to 0, and
    its ``zeros`` exact zeros join them in order. A whole matrix built
    elsewhere is gated (entries further than 1e-10 of the largest from
    Hermitian raise NotHermitianError; a NaN gets through), then solved by
    np.linalg.eigvalsh. A failed solve raises SolverFailureError. Entries
    that are not writeable float64 or complex128, or whose rows LAPACK cannot
    read in place (unit stride in a row, rows a row apart), are converted first.
    """
    if w.entries.ndim != 2 or w.entries.shape[0] != w.entries.shape[1]:
        raise NotHermitianError(f"matrix shape {w.entries.shape} is not square")
    m = np.require(w.entries, complex if np.iscomplexobj(w.entries) else float, ["A", "W"])
    n = len(m)
    lib = None if w.triangle is None else _openblas()
    if w.triangle is None:
        scale = float(np.abs(m).max(initial=0.0))  # NaN if one entry is
        asym = float(np.abs(m - m.conj().T).max(initial=0.0))
        if scale > 0 and asym > _HERM_TOL * scale:
            raise NotHermitianError(f"asymmetry {asym:.3e} exceeds {_HERM_TOL:.1e} * {scale:.3e}")
    elif lib is not None and (m.strides[1] != m.itemsize or m.strides[0] < m.itemsize * n):
        m = np.ascontiguousarray(m)
    values = np.zeros(n + w.zeros)
    solved = values[w.zeros:]
    if lib is None:
        try:
            solved[:] = np.linalg.eigvalsh(m, UPLO="U" if w.triangle == "upper" else "L")
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(str(exc)) from exc
    else:
        # column-major layout (102): the row-major upper triangle is the lower one read
        _lapack(lib, m.dtype, "solve", 102, b"N", b"U" if w.triangle == "lower" else b"L", n,
                m.ctypes.data, max(m.strides[0] // m.itemsize, 1), solved.ctypes.data)
    solved[:w.deficit] = 0.0
    if w.zeros or w.deficit:
        values.sort()  # a rounded value below 0 goes before the exact zeros
    return Spectrum(values=values, dim=n + w.zeros)


# bytes of one replica (replica_bytes) between which replicas run side by side: below, a
# replica's BLAS calls are too short to outweigh the interpreter lock the workers share; above,
# two at once would hold twice the memory of one for little gain. On 2 vCPUs (in-process, best
# of 5, one BLAS thread a replica) two workers ran real and complex staircases of 6 to 56 KiB
# at 0.35 to 0.72 times the speed of one, of 74 to 101 KiB at 0.71 to 0.98, and of 132 to
# 1041 KiB at 1.03 to 1.74. Squares of real dims 52 to 702 and complex dims 46 to 497 run
# side by side
SIDE_BY_SIDE = (66 << 10, 4500 << 10)


def replica_bytes(rows: int, cols: int, itemsize: int) -> int:
    """Peak bytes of one replica with a rows x cols X of ``itemsize``-byte entries.

    The draw holds X and a chunk's |X| and mask, or a chunk's integers and
    the 8192 entries of numpy's buffer that casts them. With numpy's
    OpenBLAS routines the rest runs in X's buffer, beside BLOCK rows of
    scratch and a row group's reflector scalars, then the eigenvalues.
    Without, the product holds X, its conjugate (a real X is its own) and
    the whole rows x rows W, and the solve W, eigvalsh's copy of it and two
    arrays of eigenvalues.
    """
    entries = rows * cols
    draw = 9 * min(entries, CHUNK) + 8 * min(entries, 8192)
    if _openblas() is None:
        conjugate = entries if itemsize == 16 else 0
        return max(itemsize * entries + draw, itemsize * (entries + conjugate + rows * rows),
                   2 * itemsize * rows * rows + 16 * rows)
    return itemsize * entries + max(draw, itemsize * (min(BLOCK, rows) * cols + min(rows, cols)), 8 * rows)


def _side_by_side(replica: int):
    """numpy's OpenBLAS where replicas of ``replica`` bytes run side by side, one BLAS thread
    each (mid-sized ones, where it can be told its count); else None."""
    return _openblas() if SIDE_BY_SIDE[0] <= replica <= SIDE_BY_SIDE[1] else None


def replica_workers(replica: int, replicas: int, jobs: int | None = None) -> int:
    """How many of ``replicas`` replicas of ``replica`` bytes run at once: up to ``jobs`` (None:
    the CPUs), the replicas and the CPUs where they run side by side, else one."""
    if _side_by_side(replica) is None:
        return 1
    cpus = os.cpu_count() or 1
    return min(jobs or cpus, replicas, cpus)


@contextlib.contextmanager
def replica_threads(replica: int, replicas: int, jobs: int | None):
    """Yields replica_workers(replica, replicas, jobs). Where those run side by side, numpy's
    OpenBLAS runs one thread inside for any worker count, so a replica's bits follow from its
    size alone, and the process's count is restored on leaving; elsewhere nothing is set."""
    lib = _side_by_side(replica)
    if lib is None:
        yield 1
        return
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield replica_workers(replica, replicas, jobs)
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)
