"""Dense symmetric spectra and quotient matrices.

Symmetric eigenvalues come from LAPACK. Up to order _TWO_STAGE_N, and for
every stack of matrices, np.linalg.eigvalsh (divide and conquer, dsyevd)
computes them. Above it, a single matrix goes to the two-stage solver
dsyevd_2stage, values only, through the LAPACKE interface of the OpenBLAS
that numpy already loads, or to eigvalsh where this numpy build lacks it. It
reduces to band form with matrix products before the tridiagonal step, in
the matrix it is given, where eigvalsh would copy its input once more. With
JOBZ = 'N' it destroys only the UPLO triangle, diagonal included (LAPACK,
DSYEVD_2STAGE documentation), here the C-order upper one. eigvalsh reads
only the diagonal and the C-order lower triangle, so if the call reports an
error, the diagonal, saved before the call, is written back and eigvalsh
solves the same buffer, bit for bit as the intact matrix. Both solvers are
backward stable, and on the same matrix their values agree to a few units
of roundoff relative to |M|.
A matrix from outside passes one check, _symmetric, in eigenvalues_symmetric
and laplacian_pseudoinverse (quotient_matrix: its shape and real-number
part, _square); the matrices resq builds are exactly symmetric and go
straight to the solver. A Spectrum groups the sorted values into
multiplicities when these are read.
"""

from __future__ import annotations

import ctypes
import functools
import operator
import pathlib
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .errors import InvalidPartition, NotSymmetric
from .graph import _as_int

#: Default absolute tolerance when grouping eigenvalues into multiplicities.
DEFAULT_GROUP_TOL = 1e-7

# Relative asymmetry allowed before a matrix is rejected as non-symmetric.
_SYMMETRY_RTOL = 1e-12

# Spread of a block's row sums up to which quotient_matrix calls it equitable.
_EQUITABLE_TOL = 1e-9

# Largest order solved by eigvalsh; larger single matrices go to the two-stage
# solver. On R^L of G(n, 10/n), one core and one BLAS thread, median of 9
# calls, the two-stage time over eigvalsh's is 1.19 at n = 900, 1.06 at 1000,
# 0.93 at 1100 and 0.82 at 1200; at n = 2000 it takes 0.54 s against 0.77 s.
_TWO_STAGE_N = 1000

# LAPACKE takes the layout as its first argument. The matrix given to the
# solver is exactly symmetric (as resq builds it, or the (m + m^T) / 2 of
# _symmetric, as floating-point addition commutes), so its C-contiguous array
# reads the same in column-major order; row-major would make LAPACKE transpose
# it into a hidden n x n copy. UPLO = 'L' then names the C-order upper triangle.
_LAPACK_COL_MAJOR = 102


@functools.cache
def _dsyevd_2stage():
    """LAPACKE_dsyevd_2stage (64-bit integers) from numpy's bundled OpenBLAS,
    or None when this numpy build ships no such library or symbol. The
    library is the one numpy has loaded, so loading it again opens nothing."""
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_LAPACKE_dsyevd_2stage64_
        except (OSError, AttributeError):
            continue
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr]
        fn.restype = i64
        return fn
    return None


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues, descending; multiplicities grouped within DEFAULT_GROUP_TOL when read."""

    values: np.ndarray

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        return cls(values=np.sort(np.asarray(values, dtype=float))[::-1].copy())

    @functools.cached_property
    def multiplicities(self) -> tuple[tuple[float, int], ...]:
        groups: list[list[float]] = []  # [representative, count, running sum]
        for v in self.values:
            if groups and abs(v - groups[-1][0]) <= DEFAULT_GROUP_TOL:
                groups[-1][1] += 1
                groups[-1][2] += v
            else:
                groups.append([float(v), 1, float(v)])
        return tuple((g[2] / g[1], int(g[1])) for g in groups)


def _square(m, stacks: bool = False) -> np.ndarray:
    """m as floats; NotSymmetric unless a non-empty square matrix (or, with
    stacks, a stack) of real numbers: a complex, string or object entry, or
    a ragged nesting, is rejected, never read in part."""
    try:
        m = np.asarray(m)
    except (TypeError, ValueError):
        raise NotSymmetric("expected a matrix of numbers, got a ragged nesting") from None
    if m.dtype.kind not in "biuf":
        raise NotSymmetric(f"expected a matrix of real numbers, got dtype {m.dtype}")
    m = m.astype(float, copy=False)
    if not (m.ndim == 2 or stacks and m.ndim > 2) or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise NotSymmetric(f"expected a non-empty square matrix, got shape {m.shape}")
    return m


def _symmetric(m, stacks: bool = False) -> np.ndarray:
    """The copy of m a solver may overwrite, C-contiguous: m where m == m^T,
    else (m + m^T) / 2. Raises NotSymmetric where _square does, for a NaN or
    infinite entry (whose asymmetry is NaN) and for an asymmetry above
    _SYMMETRY_RTOL relative to max(1, max |m|), of each matrix of a stack."""
    m = _square(m, stacks)
    mt, axes = m.swapaxes(-1, -2), (-2, -1)
    sym = np.empty(m.shape)  # C-contiguous, as the two-stage call requires
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf are NaN, which is caught below
        np.subtract(m, mt, out=sym)
        np.abs(sym, out=sym)
        asym = sym.max()  # 0 iff every matrix is exactly symmetric, so no scale is needed
        if asym != 0.0:
            scale = np.maximum(1.0, np.maximum(m.max(axis=axes), -m.min(axis=axes)))  # max |m|
            asym = (sym.max(axis=axes) / scale).max()
    if not asym <= _SYMMETRY_RTOL:
        if np.isnan(asym):
            raise NotSymmetric("matrix has a NaN or infinite entry")
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {_SYMMETRY_RTOL:g} relative to max |m|")
    if asym == 0.0:  # m == m^T, so (m + m^T) / 2 is m (up to the sign of a zero)
        np.copyto(sym, m)
    else:
        np.add(m, mt, out=sym)
        sym /= 2.0
    return sym


def eigenvalues_symmetric(m: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix, descending, grouped within
    DEFAULT_GROUP_TOL, by a backward stable LAPACK solver (module docstring).

    Raises NotSymmetric for an empty, non-square or non-real array, a NaN or
    infinite entry, or an asymmetry above _SYMMETRY_RTOL relative to max(1, max |m|);
    solves a symmetrised copy (_symmetric), leaving m as it is.
    """
    return Spectrum.from_values(_eigenvalues_in_place(_symmetric(m)))


def _eigenvalues_in_place(sym: np.ndarray) -> np.ndarray:
    """Eigenvalues of sym, a C-contiguous and exactly symmetric matrix or a
    stack of them, descending along the last axis; no checks. A single
    matrix above _TWO_STAGE_N goes to the two-stage solver, which overwrites
    its diagonal and C-order upper triangle; if that call fails, eigvalsh
    solves sym with its diagonal written back. A stack, or a matrix of order
    <= _TWO_STAGE_N, goes to eigvalsh and is left unchanged.
    """
    n = sym.shape[-1]
    solver = _dsyevd_2stage() if sym.ndim == 2 and n > _TWO_STAGE_N else None
    if solver is not None:
        diagonal, w = sym.diagonal().copy(), np.empty(n)
        info = solver(_LAPACK_COL_MAJOR, b"N", b"L", n, sym.ctypes.data, n, w.ctypes.data)
        if info == 0:
            return w[::-1]
        np.fill_diagonal(sym, diagonal)
    return np.linalg.eigvalsh(sym)[..., ::-1]


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint vertex-index blocks covering [0, n)."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_sizes(cls, *sizes: int) -> "Partition":
        """Consecutive index blocks of the given sizes, e.g. (p, q) parts;
        InvalidPartition unless each size is an integer."""
        if None in map(_as_int, sizes):
            raise InvalidPartition(f"block sizes must be integers, got {sizes}")
        return cls(tuple(tuple(range(end - s, end)) for s, end in zip(sizes, accumulate(sizes))))

    def validate(self, n: int) -> list[list[int]]:
        """The blocks as lists of ints; InvalidPartition unless they partition [0, n)."""
        try:  # one sort accepts a partition; only one that fails is walked again, for the message
            blocks = [list(map(operator.index, block)) for block in self.blocks]
            if blocks and all(blocks) and sorted(chain.from_iterable(blocks)) == list(range(n)):
                return blocks
        except TypeError:  # a non-integer index, or a block that is no sequence
            pass
        if not self.blocks:
            raise InvalidPartition("partition has no blocks")
        blocks = [[_as_int(i) for i in block] for block in self.blocks]
        seen: set[int] = set()
        for block, given in zip(blocks, self.blocks):
            if not block:
                raise InvalidPartition("partition contains an empty block")
            if None in block:
                raise InvalidPartition(f"block {given!r} holds a non-integer index")
            for i in block:
                if not 0 <= i < n:
                    raise InvalidPartition(f"index {i} outside [0, {n})")
                if i in seen:
                    raise InvalidPartition(f"index {i} appears in two blocks")
                seen.add(i)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise InvalidPartition(f"indices not covered: {missing}")
        return blocks


def quotient_matrix(m: np.ndarray, partition: Partition) -> tuple[np.ndarray, bool | np.ndarray]:
    """Quotient of a partitioned matrix, or of each matrix of a stack
    (..., n, n) that shares one partition: average row sums of each block.

    Returns (Q, equitable) where equitable is True iff every block has constant
    row sums within _EQUITABLE_TOL; then every eigenvalue of Q is one of m. For
    a stack, Q has shape (..., b, b) for b blocks and equitable is a bool
    array (...), each matrix's bit for bit as its own call would give: each
    block's rows are summed one at a time in the order the block lists them.
    The partition is validated once. Raises NotSymmetric for an empty or
    non-square array or stack, and InvalidPartition for a partition that is
    no Partition or that does not partition [0, n).
    """
    m = _square(m, stacks=True)
    if not isinstance(partition, Partition):
        raise InvalidPartition(f"expected a Partition, got {partition!r}")
    blocks = partition.validate(m.shape[-1])
    indicator = np.zeros((m.shape[-1], len(blocks)))
    for t, block in enumerate(blocks):
        indicator[block, t] = 1.0
    # by_row[i, ..., t]: the sum of row i of each matrix over block t
    by_row = np.moveaxis(m @ indicator, -2, 0)
    listed = [by_row[block] for block in blocks]
    q = np.stack([rows.sum(axis=0) / len(rows) for rows in listed], axis=-2)
    spread = np.max([rows.max(axis=0) - rows.min(axis=0) for rows in listed], axis=0).max(axis=-1)
    return q, spread <= _EQUITABLE_TOL if m.ndim > 2 else bool(spread <= _EQUITABLE_TOL)
