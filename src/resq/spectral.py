"""Dense symmetric spectra, quotient matrices, and circulant eigenvalues."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartition, NonRealSpectrum, NotSymmetric

#: Default absolute tolerance when grouping eigenvalues into multiplicities.
DEFAULT_GROUP_TOL = 1e-7

# Relative asymmetry allowed before a matrix is rejected as non-symmetric.
_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted descending, with tolerance-grouped multiplicities."""

    values: np.ndarray
    tol: float
    multiplicities: tuple[tuple[float, int], ...]

    @classmethod
    def from_values(cls, values, tol: float = DEFAULT_GROUP_TOL) -> "Spectrum":
        vals = np.sort(np.asarray(values, dtype=float))[::-1].copy()
        groups: list[list[float]] = []  # [representative, count, running sum]
        for v in vals:
            if groups and abs(v - groups[-1][0]) <= tol:
                groups[-1][1] += 1
                groups[-1][2] += v
            else:
                groups.append([float(v), 1, float(v)])
        mults = tuple((g[2] / g[1], int(g[1])) for g in groups)
        return cls(values=vals, tol=tol, multiplicities=mults)

    def __len__(self) -> int:
        return int(self.values.size)


def eigenvalues_symmetric(m: np.ndarray, tol: float = DEFAULT_GROUP_TOL) -> Spectrum:
    """All eigenvalues of a symmetric matrix, descending.

    Rejects matrices whose asymmetry exceeds 1e-12 relative to the largest
    entry. Backed by the LAPACK symmetric solver, which is backward stable.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    return Spectrum.from_values(_descending_eigenvalues(m), tol=tol)


def _descending_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each matrix in a stack of
    shape (k, n, n), descending along the last axis; no grouping."""
    m = np.asarray(m, dtype=float)
    mt = m.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    asym = np.max(np.abs(m - mt).max(axis=(-2, -1)) / scale)
    if asym > _SYMMETRY_RTOL:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {_SYMMETRY_RTOL:g} relative to max |m|")
    return np.linalg.eigvalsh((m + mt) / 2.0)[..., ::-1]


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
        blocks = []
        start = 0
        for s in sizes:
            blocks.append(tuple(range(start, start + s)))
            start += s
        return cls(tuple(blocks))

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


def quotient_matrix(
    m: np.ndarray, partition: Partition, tol: float = 1e-9
) -> tuple[np.ndarray, bool]:
    """Quotient of a partitioned matrix: average row sums of each block.

    Returns (Q, equitable) where equitable is True iff every block has
    constant row sums within tol. When the partition is equitable, every
    eigenvalue of Q is an eigenvalue of m.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    partition.validate(n)
    k = len(partition.blocks)
    q = np.zeros((k, k))
    equitable = True
    for s, bs in enumerate(partition.blocks):
        for t, bt in enumerate(partition.blocks):
            block = m[np.ix_(bs, bt)]
            row_sums = block.sum(axis=1)
            q[s, t] = row_sums.mean()
            if float(row_sums.max() - row_sums.min()) > tol:
                equitable = False
    return q, equitable


def circulant_eigenvalues(
    first_row, imag_tol: float = 1e-9, tol: float = DEFAULT_GROUP_TOL
) -> Spectrum:
    """Eigenvalues of the circulant matrix with the given first row.

    Evaluates f(w^k) = sum_j c_j * w^(jk) at every n-th root of unity, with
    each root taken as (cos, sin) at angle 2*pi*(jk mod n)/n so no phase
    error accumulates. Imaginary residues above imag_tol raise
    NonRealSpectrum; below, they are discarded (symmetric circulants have
    exactly real spectra).
    """
    c = np.asarray(first_row, dtype=float)
    n = c.size
    k = np.arange(n)
    angles = 2.0 * np.pi * (np.outer(k, k) % n) / n
    real = (np.cos(angles) * c).sum(axis=1)
    imag = (np.sin(angles) * c).sum(axis=1)
    worst = float(np.abs(imag).max()) if n else 0.0
    if worst > imag_tol:
        raise NonRealSpectrum(f"imaginary residue {worst:.3e} exceeds {imag_tol:g}")
    return Spectrum.from_values(real, tol=tol)


def transmission_regular_shift(k: float, r_spectrum: Spectrum, sign: str) -> Spectrum:
    """Spectrum of Diag(k) -/+ R from the spectrum of R, for k-transmission-
    regular graphs (where both Laplacians are k*I -/+ R).

    sign "L" gives the resistance Laplacian values {k - gamma}, sign "Q"
    gives the signless values {k + gamma}; both returned descending.
    """
    if sign == "L":
        values = k - r_spectrum.values
    elif sign == "Q":
        values = k + r_spectrum.values
    else:
        raise ValueError(f"sign must be 'L' or 'Q', got {sign!r}")
    return Spectrum.from_values(values, tol=r_spectrum.tol)
