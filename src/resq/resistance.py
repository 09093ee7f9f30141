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
X. L_g is inverted by recursive 2x2 block elimination, so almost all the
work is matrix products, and a stack of Laplacians of one order recurses as
one. Every Schur complement of a grounded Laplacian is again a grounded
Laplacian (Kron reduction), hence positive definite, and block LU is stable
on such matrices. Shifting by J/n instead, as in inv(L + J/n) - J/n, would
put dense blocks into the elimination whose contributions cancel in the
Schur complements and cost accuracy. At n = 1, L_g is empty and pinv(L) is
[[0]].

All of it runs in the memory of L (laplacian_pseudoinverse, for Laplacians
from outside and for the stacks of resq verify: of a copy): L_g is inverted
in place, and the centring, the symmetrisation and R follow in that buffer,
so the peak is one n x n array and n^2 / 4 entries of workspace.

The pseudoinverse is checked against the Penrose identity L X L = L applied
to one fixed probe vector v, |L(X(Lv)) - Lv|, which costs O(n^2) instead of
a second O(n^3) matrix product. The nonzero entries of L (at most n + 2m for
m edges) are saved before L is overwritten, and the probe applies L from them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, NotSymmetric
from .graph import Graph, is_connected, laplacian

# Residual ceiling for the Penrose identity L X L = L, relative to |L|.
_PENROSE_RTOL = 1e-8

# Order of the tiles (and of the blocks of rows) in which the pseudoinverse is
# symmetrised and R is formed in place: each needs one tile of workspace.
_TILE = 256

# Leaf size of the block elimination: blocks up to this order are inverted
# by one np.linalg.inv call. On one core, at n = 200 the split takes 2.1 ms
# against 3.0 ms for a single inv.
_BLOCK_N = 128


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
        return _set_diagonal(self.r.copy(), self.rtr)


def _set_diagonal(m: np.ndarray, d) -> np.ndarray:
    """Write d into the diagonal of m, or of each matrix in a stack; returns m.

    R has a zero diagonal, so with d = RTr this turns -R into Diag(RTr) - R
    and R into Diag(RTr) + R bit for bit.
    """
    i = np.arange(m.shape[-1])
    m[..., i, i] = d
    return m


def _grounded_inverse(a: np.ndarray) -> None:
    """Overwrite a symmetric positive definite a, or each matrix of a stack
    (..., n, n), with its inverse; a stack recurses as one.

    Splits a = [[A11, B], [B^T, A22]] at k = n // 2 and inverts A11 and the
    Schur complement S = A22 - B^T inv(A11) B in place, recursively, down to
    blocks of order _BLOCK_N. B is read above the diagonal, at every level
    (S is symmetric only up to rounding), and its transpose copied below it,
    where the products are then kept. Each level allocates one product of
    about n^2 / 4 entries at a time, and none while it recurses.
    """
    n = a.shape[-1]
    if n <= _BLOCK_N:
        a[...] = np.linalg.inv(a)
        return
    k = n // 2
    a11, b, bt, a22 = a[..., :k, :k], a[..., :k, k:], a[..., k:, :k], a[..., k:, k:]
    bt[...] = b.swapaxes(-1, -2)
    _grounded_inverse(a11)
    np.matmul(a11, b, out=b)  # W = inv(A11) B
    a22 -= bt @ b  # S = A22 - B^T W
    _grounded_inverse(a22)
    bt[...] = (b @ a22).swapaxes(-1, -2)  # (W inv(S))^T
    a11 += bt.swapaxes(-1, -2) @ b.swapaxes(-1, -2)  # inv(A11) + W inv(S) W^T
    np.negative(bt, out=bt)
    b[...] = bt.swapaxes(-1, -2)  # -W inv(S)


def _pseudoinverse_in_place(x: np.ndarray) -> np.ndarray:
    """Overwrite x, a connected graph Laplacian or a stack of them (k, n, n),
    with its Moore-Penrose pseudoinverse; returns x.

    The Penrose probe needs L once more after x has been overwritten, so the
    nonzero entries of x are saved first. Raises Disconnected when some L has
    nullity >= 2.
    """
    n = x.shape[-1]
    scale = np.maximum(1.0, np.maximum(x.max(axis=(-2, -1)), -x.min(axis=(-2, -1))))
    lv = x @ np.sin(np.arange(1.0, n + 1.0))[:, None]
    nonzero = np.flatnonzero(x != 0.0)  # flat index (k n + i) n + j of each L[k, i, j] != 0
    entries = x.ravel()[nonzero]
    try:
        _grounded_inverse(x[..., :-1, :-1])
    except np.linalg.LinAlgError as exc:
        raise Disconnected("laplacian has nullity >= 2") from exc
    x[..., -1, :] = x[..., :, -1] = 0.0
    c = x.mean(axis=-2)
    x -= c[..., None, :]
    x -= c[..., :, None]
    x += c.mean(axis=-1)[..., None, None]
    # With nullity >= 2, inv() either raises or returns a huge component
    # along a kernel vector of L, which the residual exposes unless the probe
    # is blind to it. The entries sin(1), ..., sin(n) bear no relation to how
    # vertices are labelled, and |v| <= 1 keeps the threshold relative to |L|.
    # The comparison is written so that a NaN residual, from a NaN or an inf
    # entry of x, fails it too.
    at = nonzero // (n * n)  # L[k, i, j] multiplies y[k, j], at k n + j
    at *= n
    at += nonzero % n
    terms = (x @ lv).ravel()[at]
    terms *= entries
    np.floor_divide(nonzero, n, out=at)  # (L y)[k, i] sums the terms of row k n + i
    lxlv = np.bincount(at, terms, lv.size).reshape(lv.shape)
    residual = np.abs(lxlv - lv).max(axis=(-2, -1))
    if not np.all(residual <= _PENROSE_RTOL * scale):
        raise Disconnected(f"laplacian has nullity >= 2 (Penrose residual {residual.max():.3e})")
    for i in range(0, n, _TILE):  # x = (x + x^T) / 2, one pair of tiles at a time
        for j in range(i, n, _TILE):
            tile, mirror = x[..., i:i + _TILE, j:j + _TILE], x[..., j:j + _TILE, i:i + _TILE]
            mean = (tile + mirror.swapaxes(-1, -2)) / 2.0
            tile[...] = mean
            mirror[...] = mean.swapaxes(-1, -2)
    return x


def laplacian_pseudoinverse(lap: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a connected graph Laplacian, or of each
    Laplacian in a stack of shape (k, n, n), for every order n >= 1.

    Grounds the last vertex, inverts the remaining block by block elimination
    and centres the result (see the module docstring), in a copy: lap is left
    as it is. Raises NotSymmetric for an empty or non-square array, and
    Disconnected when some L has nullity >= 2, which is detected through the
    Penrose residual on a probe vector.
    """
    x = np.array(lap, dtype=float, order="C")
    if x.ndim < 2 or x.shape[-1] != x.shape[-2] or x.size == 0:
        raise NotSymmetric(f"expected a non-empty square matrix or stack, got shape {x.shape}")
    return _pseudoinverse_in_place(x)


def _resistance(pinv: np.ndarray) -> np.ndarray:
    """R in the memory of the Laplacian pseudoinverse of a connected graph,
    or of a stack of them, one block of rows at a time; returns it."""
    d = np.diagonal(pinv, axis1=-2, axis2=-1).copy()
    for i in range(0, pinv.shape[-1], _TILE):
        rows = pinv[..., i:i + _TILE, :]
        rows *= 2.0
        np.subtract(d[..., i:i + _TILE, None] + d[..., None, :], rows, out=rows)
    return _set_diagonal(pinv, 0.0)


def _bundle(r: np.ndarray) -> ResistanceBundle:
    """Transmissions and R^L from R, or from a stack of R."""
    rtr = resistance_transmissions(r)
    return ResistanceBundle(r=r, rtr=rtr, rl=_set_diagonal(-r, rtr))


def resistance_matrix(g: Graph) -> np.ndarray:
    """Pairwise resistance distances; symmetric with zero diagonal. Built in
    the memory of L."""
    if not is_connected(g):
        raise Disconnected("graph is disconnected; resistance undefined")
    return _resistance(_pseudoinverse_in_place(laplacian(g)))


def resistance_transmissions(r: np.ndarray) -> np.ndarray:
    """Column sums of a resistance matrix, or of each in a stack:
    RTr(v) = sum_u r(u, v)."""
    return np.asarray(r, dtype=float).sum(axis=-2)


def resistance_laplacian(g: Graph) -> np.ndarray:
    """Diag(RTr) - R; rows sum to zero. Built in the memory of R."""
    r = resistance_matrix(g)
    rtr = resistance_transmissions(r)
    return _set_diagonal(np.negative(r, out=r), rtr)


def resistance_signless_laplacian(g: Graph) -> np.ndarray:
    """Diag(RTr) + R. Built in the memory of R."""
    r = resistance_matrix(g)
    return _set_diagonal(r, resistance_transmissions(r))


def resistance_bundle(g: Graph) -> ResistanceBundle:
    """Compute R once and derive transmissions and both Laplacians from it."""
    return _bundle(resistance_matrix(g))


def _stacked_bundle(laps: np.ndarray) -> ResistanceBundle:
    """resistance_bundle of the graphs of a stack of Laplacians of one order,
    shape (k, n, n), as one bundle of stacks: r and rl of shape (k, n, n),
    rtr of shape (k, n). Equal to the per-graph bundles bit for bit. Raises
    Disconnected if any graph is disconnected."""
    return _bundle(_resistance(laplacian_pseudoinverse(laps)))
