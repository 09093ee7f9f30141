"""Dense symmetric spectra and quotient matrices.

Symmetric eigenvalues come from LAPACK. Up to order _TWO_STAGE_N, and for
every stack of matrices, np.linalg.eigvalsh (divide and conquer, dsyevd)
computes them. Above it, a single matrix goes to the two-stage solver
dsyevd_2stage, values only, through the LAPACKE interface of the OpenBLAS
that numpy already loads. It reduces to band form with matrix products before
the tridiagonal step, and it overwrites the matrix it is given, where
eigvalsh would copy its input once more. If that library or symbol is
missing (another numpy build) or the call reports an error, eigvalsh solves
an intact copy of the matrix. Both solvers are backward stable, and on the
same matrix their values agree to a few units of roundoff relative to |M|.
Only eigenvalues_symmetric, for matrices from outside, checks shape and
symmetry and solves a symmetrised copy; the matrices resq builds are exactly
symmetric and go straight to _eigenvalues_in_place. A Spectrum holds the
sorted values and groups them into multiplicities when these are first read.
"""

from __future__ import annotations

import ctypes
import functools
import pathlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InvalidPartition, NotSymmetric

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
# eigenvalues_symmetric, as floating-point addition commutes), so its
# C-contiguous array reads the same in column-major order; row-major would
# make LAPACKE transpose it into a hidden n x n copy.
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
    """Real eigenvalues sorted descending; multiplicities grouped within tol when read."""

    values: np.ndarray
    tol: float

    @classmethod
    def from_values(cls, values, tol: float = DEFAULT_GROUP_TOL) -> "Spectrum":
        return cls(values=np.sort(np.asarray(values, dtype=float))[::-1].copy(), tol=tol)

    @functools.cached_property
    def multiplicities(self) -> tuple[tuple[float, int], ...]:
        groups: list[list[float]] = []  # [representative, count, running sum]
        for v in self.values:
            if groups and abs(v - groups[-1][0]) <= self.tol:
                groups[-1][1] += 1
                groups[-1][2] += v
            else:
                groups.append([float(v), 1, float(v)])
        return tuple((g[2] / g[1], int(g[1])) for g in groups)

    def __len__(self) -> int:
        return int(self.values.size)


def eigenvalues_symmetric(m: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix, descending, grouped within
    DEFAULT_GROUP_TOL.

    Rejects non-square and empty arrays, matrices whose asymmetry exceeds
    _SYMMETRY_RTOL relative to max(1, max |m|), and matrices with a NaN or
    infinite entry (whose asymmetry is NaN). Solves a symmetrised copy,
    leaving m as it is, by a backward stable LAPACK solver (see the module
    docstring).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise NotSymmetric(f"expected a non-empty square matrix, got shape {m.shape}")
    scale = np.maximum(1.0, np.maximum(m.max(), -m.min()))  # max |m| without a temporary
    sym = np.empty(m.shape)  # C-contiguous, as the two-stage call requires
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is caught below
        np.subtract(m, m.T, out=sym)
    np.abs(sym, out=sym)
    asym = sym.max() / scale
    if not asym <= _SYMMETRY_RTOL:
        if np.isnan(asym):
            raise NotSymmetric("matrix has a NaN or infinite entry")
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {_SYMMETRY_RTOL:g} relative to max |m|")
    if asym == 0.0:  # m == m^T, so (m + m^T) / 2 is m (up to the sign of a zero)
        np.copyto(sym, m)
    else:
        np.add(m, m.T, out=sym)
        sym /= 2.0
    return Spectrum.from_values(_eigenvalues_in_place(sym, lambda: (m + m.T) / 2.0))


def _eigenvalues_in_place(sym: np.ndarray, intact) -> np.ndarray:
    """Eigenvalues of sym, a C-contiguous and exactly symmetric matrix or a
    stack of them, descending along the last axis; no checks. A single
    matrix above _TWO_STAGE_N goes to the two-stage solver, which overwrites
    it; if that call fails, eigvalsh solves intact() instead. A stack, or a
    matrix of order <= _TWO_STAGE_N, goes to eigvalsh and is left unchanged;
    intact is then not called, and for a stack it may be None.
    """
    n = sym.shape[-1]
    solver = _dsyevd_2stage() if sym.ndim == 2 and n > _TWO_STAGE_N else None
    if solver is not None:
        w = np.empty(n)
        info = solver(_LAPACK_COL_MAJOR, b"N", b"L", n, sym.ctypes.data, n, w.ctypes.data)
        if info == 0:
            return w[::-1]
        sym = intact()
    return np.linalg.eigvalsh(sym)[..., ::-1]


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint vertex-index blocks covering [0, n)."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, blocks) -> "Partition":
        return cls(tuple(tuple(int(i) for i in block) for block in blocks))

    @classmethod
    def from_sizes(cls, *sizes: int) -> "Partition":
        """Consecutive index blocks of the given sizes, e.g. (p, q) parts."""
        return cls(tuple(tuple(range(end - s, end)) for s, end in zip(sizes, accumulate(sizes))))

    def validate(self, n: int) -> None:
        seen: set[int] = set()
        if not self.blocks:
            raise InvalidPartition("partition has no blocks")
        for block in self.blocks:
            if not block:
                raise InvalidPartition("partition contains an empty block")
            for i in block:
                if not 0 <= i < n:
                    raise InvalidPartition(f"index {i} outside [0, {n})")
                if i in seen:
                    raise InvalidPartition(f"index {i} appears in two blocks")
                seen.add(i)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise InvalidPartition(f"indices not covered: {missing}")


def quotient_matrix(m: np.ndarray, partition: Partition) -> tuple[np.ndarray, bool]:
    """Quotient of a partitioned matrix: average row sums of each block.

    Returns (Q, equitable) where equitable is True iff every block has
    constant row sums within _EQUITABLE_TOL. When the partition is equitable, every
    eigenvalue of Q is an eigenvalue of m.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    partition.validate(n)
    indicator = np.zeros((n, len(partition.blocks)))
    for t, block in enumerate(partition.blocks):
        indicator[block, t] = 1.0
    row_sums = m @ indicator  # row_sums[i, t]: sum of row i over block t
    per_block = [row_sums[block, :] for block in partition.blocks]
    q = np.array([rows.mean(axis=0) for rows in per_block])
    return q, all(np.ptp(rows, axis=0).max() <= _EQUITABLE_TOL for rows in per_block)
