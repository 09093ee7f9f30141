"""Resistance distances and the matrices built from them.

The resistance distance r(i, j) is the effective resistance between i and j
when every edge carries a unit resistor. It is read off the Moore-Penrose
pseudoinverse of the graph Laplacian:

    r(i, j) = pinv(L)[i, i] + pinv(L)[j, j] - 2 * pinv(L)[i, j]

From the resistance matrix R and the transmissions RTr(v) = sum_u r(u, v)
we form the resistance Laplacian  Diag(RTr) - R  and the resistance
signless Laplacian  Diag(RTr) + R.

The pseudoinverse comes from grounding the last vertex: its row and column
are deleted, which leaves a symmetric positive definite block L_g for a
connected graph. X = inv(L_g), padded with a zero row and column, is a
generalized inverse of L, and centring it gives the pseudoinverse,
pinv(L)[i, j] = X[i, j] - c[i] - c[j] + mean(c), with c the column means of
X; the centring cancels in r(i, j), so R is read off X. L_g is inverted by
recursive 2x2 block elimination, so almost all the work is matrix products,
and a stack of Laplacians of one order recurses as one. Every Schur
complement of a grounded Laplacian is again a grounded Laplacian (Kron
reduction), hence positive definite, and block LU is stable on such
matrices. Shifting by J/n instead, as in inv(L + J/n) - J/n, would put dense
blocks into the elimination whose contributions cancel in the Schur
complements and cost accuracy. At n = 1, L_g is empty and pinv(L) is [[0]].

On the left spine of the recursion (the top split, that of its A11, ...) B is
L's own, mostly zeros on a sparse graph: there W = inv(A11) B and S = A22 - B^T W
go by blocks of 8 columns of B against its nonzero rows only, in each member
where a cost estimate favours them (_sparse_members), so dense graphs keep their
bits. On one core G(n, p) crosses over between p = 0.02 and 0.05 at n = 1000 and
2000, and G(2000, 0.005) is inverted in 200-212 ms instead of 273-297 ms.

All of it runs in the memory of L (of a copy, for laplacian_pseudoinverse):
L_g is inverted in place, one strip of each block product at a time, and R
follows in one pass over pairs of tiles; only laplacian_pseudoinverse
centres and symmetrises X. So the peak is one n x n array plus O(n _TILE)
entries: 113 MB for resq compute --what energy on C_3000, against 130 MB
with a block product of n^2 / 4 entries.

X is checked against the Penrose identity L X L = L applied to one fixed
probe vector v, |L(X(Lv)) - Lv|, which costs O(n^2) instead of a second
O(n^3) matrix product. The nonzero entries L[k, i, j] (at most n + 2m for m
edges) are saved with their positions, block by block of rows, before L is
overwritten, and max |L|, Lv and the probe's products with L are read from
them: 12 bytes a nonzero, and scratch for one block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected
from .graph import Graph, is_connected, laplacian
from .spectral import _symmetric

# Residual ceiling for the Penrose identity L X L = L, relative to |L|.
_PENROSE_RTOL = 1e-8

# Order of the tiles of R and of the symmetrised pseudoinverse, and width of
# the strips of the block products and of the nonzero scan: _TILE x n entries.
_TILE = 256

# Leaf size of the block elimination: blocks up to this order are inverted
# by one np.linalg.inv call. On one core, at n = 200 the split takes 2.1 ms
# against 3.0 ms for a single inv.
_BLOCK_N = 128

# Width of the column blocks of B compressed to their nonzero rows, and the
# cost of the compressed products in dense multiply-adds: _SPARSE_MADD per
# multiply-add kept and _SPARSE_BLOCK (about 15 us) per block, on one core.
_SPARSE_COLS = 8
_SPARSE_MADD = 6
_SPARSE_BLOCK = 400_000


@dataclass(frozen=True)
class ResistanceBundle:
    """Resistance matrix, transmissions, and both derived Laplacians.

    r and rl are two n x n arrays, and R^Q is built on first access as a
    third. The energy report holds none of them: it works in the single
    buffer of resistance_matrix.
    """

    r: np.ndarray
    rtr: np.ndarray
    rl: np.ndarray

    @functools.cached_property
    def rq(self) -> np.ndarray:
        return _signless(self.r, self.rtr)


def _signless(r: np.ndarray, rtr) -> np.ndarray:
    """Diag(RTr) + R in a copy of R, or of each matrix in a stack."""
    return _set_diagonal(r.copy(), rtr)


def _set_diagonal(m: np.ndarray, d) -> np.ndarray:
    """Write d into the diagonal of m, or of each matrix in a stack; returns m.

    R has a zero diagonal, so with d = RTr this turns -R into Diag(RTr) - R
    and R into Diag(RTr) + R bit for bit.
    """
    i = np.arange(m.shape[-1])
    m[..., i, i] = d
    return m


def _grounded_inverse(a: np.ndarray, untouched: bool = True) -> None:
    """Overwrite a symmetric positive definite a, or each matrix of a stack
    (..., n, n), with its inverse; a stack recurses as one.

    Splits a = [[A11, B], [B^T, A22]] at k = n // 2 and inverts A11 and the
    Schur complement S = A22 - B^T inv(A11) B in place, recursively, down to
    blocks of order _BLOCK_N. B is read above the diagonal, at every level
    (S is symmetric only up to rounding), and its transpose copied below it,
    where the products are then kept. Products go by strips of _TILE rows or
    columns: _TILE x n entries of workspace at a time, none while it recurses.
    While a is untouched, W and S may go by B's nonzero rows, member by member.
    """
    n = a.shape[-1]
    if n <= _BLOCK_N:
        a[...] = np.linalg.inv(a)
        return
    k = n // 2
    a11, b, bt, a22 = a[..., :k, :k], a[..., :k, k:], a[..., k:, :k], a[..., k:, k:]
    bt[...] = b.swapaxes(-1, -2)
    _grounded_inverse(a11, untouched)
    sparse = _sparse_members(bt, n) if untouched else {}
    for m, blocks in sparse.items():  # W, then S, by B's nonzero rows; inv(A11) taken as symmetric
        for c, rows, block in blocks:
            b[m][:, c:c + _SPARSE_COLS] = a11[m][rows].T @ block.T
        for c, rows, block in blocks:
            a22[m][c:c + _SPARSE_COLS] -= block @ b[m][rows]
    for m in [m for m in np.ndindex(b.shape[:-2]) if m not in sparse] if sparse else [...]:
        for j in range(0, n - k, _TILE):  # W = inv(A11) B, S = A22 - B^T W by columns
            b[m][..., j:j + _TILE] = a11[m] @ b[m][..., j:j + _TILE]
            a22[m][..., j:j + _TILE] -= bt[m] @ b[m][..., j:j + _TILE]
    _grounded_inverse(a22, False)
    for i in range(0, k, _TILE):  # -V^T for V = W inv(S), by rows of W
        np.negative((b[..., i:i + _TILE, :] @ a22).swapaxes(-1, -2), out=bt[..., i:i + _TILE])
    for i in range(0, k, _TILE):  # inv(A11) + V W^T
        a11[..., i:i + _TILE, :] -= bt[..., i:i + _TILE].swapaxes(-1, -2) @ b.swapaxes(-1, -2)
    b[...] = bt.swapaxes(-1, -2)  # -V


def _sparse_members(bt: np.ndarray, n: int) -> dict:
    """The members of bt, B^T or a stack of them at a split of order n, whose
    compressed products are estimated to cost less than the dense ones,
    k (n - k) n multiply-adds, with at most _TILE rows a block. Each maps to
    (c, rows, B^T[c:c + _SPARSE_COLS, rows]) for each block of _SPARSE_COLS
    columns of B from column c with nonzeros, in rows; elsewhere B, so W, is 0."""
    hits = np.zeros((*bt.shape[:-2], -(-bt.shape[-2] // _SPARSE_COLS), bt.shape[-1]), dtype=bool)
    for i in range(_SPARSE_COLS):  # hits[..., c, :] ORs rows c _SPARSE_COLS + i of bt
        nonzero = bt[..., i::_SPARSE_COLS, :] != 0.0
        hits[..., :nonzero.shape[-2], :] |= nonzero
    counts = hits.sum(axis=-1)
    cost = (_SPARSE_MADD * _SPARSE_COLS * n * counts.sum(axis=-1)
            + _SPARSE_BLOCK * np.count_nonzero(counts, axis=-1))
    sparse = (counts.max(axis=-1) <= _TILE) & (cost < bt.shape[-2] * bt.shape[-1] * n)
    return {m: [(c, rows := np.flatnonzero(hits[m][c // _SPARSE_COLS]),
                 bt[m][c:c + _SPARSE_COLS, rows]) for c in np.flatnonzero(counts[m]) * _SPARSE_COLS]
            for m in np.ndindex(sparse.shape) if sparse[m]}


def _generalized_inverse_in_place(x: np.ndarray) -> np.ndarray:
    """Overwrite x, a connected graph Laplacian or a stack of them (k, n, n),
    with X, inv(L_g) padded with a zero last row and column; returns x.

    The Penrose probe needs L once more after x has been overwritten, so the
    nonzero entries of x are saved first, a block of about 2^18 entries at a
    time.
    Raises Disconnected when some L has nullity >= 2.
    """
    n = x.shape[-1]
    flat = x.reshape(-1, n)
    # L[k, i, j] != 0 sums into (L y)[k, i] and multiplies y[k, j]: each block
    # of step rows keeps the flat positions of its nonzeros (np.nonzero of x is
    # 3-8x slower) and their values, so no array over all nonzeros is made
    step = max(1, 2**18 // n)
    saved = [(a, (at := np.flatnonzero(flat[a:a + step] != 0.0).astype(np.int32)),
              flat[a:a + step].ravel()[at]) for a in range(0, len(flat), step)]
    scale = np.ones(len(flat) // n)  # max(1, max |L|) of each L
    lv = np.empty(len(flat))
    for a, at, entries in saved:
        rows, cols = np.divmod(at, n)
        np.maximum.at(scale, (rows + a) // n, np.abs(entries))
        lv[a:a + step] = np.bincount(rows, entries * np.sin(cols + 1.0), len(lv[a:a + step]))
    lv = lv.reshape(*x.shape[:-1], 1)
    try:
        _grounded_inverse(x[..., :-1, :-1])
    except np.linalg.LinAlgError as exc:
        raise Disconnected("laplacian has nullity >= 2") from exc
    x[..., -1, :] = x[..., :, -1] = 0.0
    # With nullity >= 2, inv() either raises or returns a huge component
    # along a kernel vector of L, which the residual exposes unless the probe
    # is blind to it. The entries v_j = sin(j + 1) bear no relation to how
    # vertices are labelled, and |v| <= 1 keeps the threshold relative to |L|.
    # L P X P L = L X L for the centring P = I - J/n, so this is also the
    # pseudoinverse's residual. The comparison is written so that a NaN
    # residual, from a NaN or an inf entry of x, fails it too.
    y, lxlv = (x @ lv).ravel(), np.empty(lv.size)
    for a, at, entries in saved:  # y[k, j] at k n + j
        rows, cols = np.divmod(at, n)
        lxlv[a:a + step] = np.bincount(rows, entries * y[cols + (rows + a) // n * n],
                                       len(lxlv[a:a + step]))
    residual = np.abs(lxlv.reshape(lv.shape) - lv).reshape(-1, n).max(axis=-1)
    if not np.all(residual <= _PENROSE_RTOL * scale):
        raise Disconnected(f"laplacian has nullity >= 2 (Penrose residual {residual.max():.3e})")
    return x


def laplacian_pseudoinverse(lap: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a connected graph Laplacian, or of each
    Laplacian in a stack of shape (k, n, n), for every order n >= 1.

    Grounds the last vertex, inverts the remaining block by block elimination
    and centres and symmetrises the result (see the module docstring), in a
    copy: lap is left as it is. Raises NotSymmetric as eigenvalues_symmetric
    does, for each L, and Disconnected when some L has nullity >= 2, which is
    detected through the Penrose residual on a probe vector.
    """
    x = _generalized_inverse_in_place(_symmetric(lap, stacks=True))
    c = x.mean(axis=-2)
    x -= c[..., None, :]
    x -= c[..., :, None]
    x += c.mean(axis=-1)[..., None, None]
    for i in range(0, x.shape[-1], _TILE):  # x = (x + x^T) / 2, one pair of tiles at a time
        for j in range(i, x.shape[-1], _TILE):
            tile, mirror = x[..., i:i + _TILE, j:j + _TILE], x[..., j:j + _TILE, i:i + _TILE]
            mean = (tile + mirror.swapaxes(-1, -2)) / 2.0
            tile[...] = mean
            mirror[...] = mean.swapaxes(-1, -2)
    return x


def _resistance(x: np.ndarray) -> np.ndarray:
    """R in the memory of X from _generalized_inverse_in_place; returns it.
    One pass over pairs of tiles writes r_ij = X_ii + X_jj - (X_ij + X_ji) to
    both, so R is exactly symmetric with a zero diagonal."""
    d = np.diagonal(x, axis1=-2, axis2=-1).copy()
    for i in range(0, x.shape[-1], _TILE):
        for j in range(i, x.shape[-1], _TILE):
            tile, mirror = x[..., i:i + _TILE, j:j + _TILE], x[..., j:j + _TILE, i:i + _TILE]
            r = d[..., i:i + _TILE, None] + d[..., None, j:j + _TILE]
            r -= tile + mirror.swapaxes(-1, -2)
            tile[...] = r
            mirror[...] = r.swapaxes(-1, -2)
    return x


def resistance_matrix(g: Graph) -> np.ndarray:
    """Pairwise resistance distances; symmetric with zero diagonal. Built in
    the memory of L."""
    if not is_connected(g):
        raise Disconnected("graph is disconnected; resistance undefined")
    return _resistance(_generalized_inverse_in_place(laplacian(g)))


def resistance_laplacian(g: Graph) -> np.ndarray:
    """Diag(RTr) - R; rows sum to zero. Built in the memory of R."""
    r = resistance_matrix(g)
    rtr = r.sum(axis=-2)
    return _set_diagonal(np.negative(r, out=r), rtr)


def resistance_signless_laplacian(g: Graph) -> np.ndarray:
    """Diag(RTr) + R. Built in the memory of R."""
    r = resistance_matrix(g)
    return _set_diagonal(r, r.sum(axis=-2))


def resistance_bundle(g: Graph) -> ResistanceBundle:
    """Compute R once and derive transmissions and both Laplacians from it."""
    r = resistance_matrix(g)
    rtr = r.sum(axis=-2)
    return ResistanceBundle(r=r, rtr=rtr, rl=_set_diagonal(-r, rtr))
