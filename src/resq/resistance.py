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

The pseudoinverse is checked against the Penrose identity L X L = L applied
to one fixed probe vector v, |L(X(Lv)) - Lv|, which costs three
matrix-vector products (O(n^2)) instead of a second O(n^3) matrix product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected
from .graph import Graph, is_connected, laplacian

# Residual ceiling for the Penrose identity L X L = L, relative to |L|.
_PENROSE_RTOL = 1e-8

# Leaf size of the block elimination: blocks up to this order are inverted
# by one np.linalg.inv call. On one core, at n = 200 the split takes 2.1 ms
# against 3.0 ms for a single inv.
_BLOCK_N = 128


@dataclass(frozen=True)
class ResistanceBundle:
    """Resistance matrix, transmissions, and both derived Laplacians.

    R^Q is built on first access, so a caller that reads only R^L (such as
    the energy report) never holds a fourth n x n array.
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


def _spd_inverse(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write inv(a) into out for a symmetric positive definite a, or for each
    matrix of a stack (..., n, n), which then recurses as one.

    Splits a = [[A11, B], [B^T, A22]] at k = n // 2 and inverts A11 and the
    Schur complement S = A22 - B^T inv(A11) B recursively, down to blocks of
    order _BLOCK_N. The blocks of out hold the intermediate products, so each
    level allocates only S, inv(A11) B inv(S) and one product of the size of
    A11.
    """
    n = a.shape[-1]
    if n <= _BLOCK_N:
        out[...] = np.linalg.inv(a)
        return out
    k = n // 2
    b = a[..., :k, k:]
    ai, aib = out[..., :k, :k], out[..., :k, k:]
    _spd_inverse(a[..., :k, :k], ai)
    np.matmul(ai, b, out=aib)
    s = b.swapaxes(-1, -2) @ aib
    np.subtract(a[..., k:, k:], s, out=s)
    si = _spd_inverse(s, out[..., k:, k:])
    del s
    t = aib @ si
    ai += t @ aib.swapaxes(-1, -2)  # inv(A11) + inv(A11) B inv(S) B^T inv(A11)
    np.negative(t, out=aib)  # -inv(A11) B inv(S)
    out[..., k:, :k] = aib.swapaxes(-1, -2)
    return out


def laplacian_pseudoinverse(lap: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a connected graph Laplacian, or of each
    Laplacian in a stack of shape (k, n, n), for every order n >= 1.

    Grounds the last vertex, inverts the remaining block by block elimination
    and centres the result (see the module docstring). Raises Disconnected
    when some L has nullity >= 2, which is detected through the Penrose
    residual on a probe vector.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[-1]
    pinv = np.zeros(lap.shape)
    try:
        _spd_inverse(lap[..., :-1, :-1], pinv[..., :-1, :-1])
    except np.linalg.LinAlgError as exc:
        raise Disconnected("laplacian has nullity >= 2") from exc
    c = pinv.mean(axis=-2)
    pinv -= c[..., None, :]
    pinv -= c[..., :, None]
    pinv += c.mean(axis=-1)[..., None, None]
    scale = np.maximum(1.0, np.abs(lap).max(axis=(-2, -1)))
    # With nullity >= 2, inv() either raises or returns a huge component
    # along a kernel vector of L, which the residual exposes unless the probe
    # is blind to it. The entries sin(1), ..., sin(n) bear no relation to how
    # vertices are labelled, and |v| <= 1 keeps the threshold relative to |L|.
    # The comparison is written so that a NaN residual, from a NaN or an inf
    # entry of pinv, fails it too.
    lv = lap @ np.sin(np.arange(1.0, n + 1.0))[:, None]
    residual = np.abs(lap @ (pinv @ lv) - lv).max(axis=(-2, -1))
    if not np.all(residual <= _PENROSE_RTOL * scale):
        raise Disconnected(f"laplacian has nullity >= 2 (Penrose residual {residual.max():.3e})")
    return (pinv + pinv.swapaxes(-1, -2)) / 2.0


def _resistance(pinv: np.ndarray) -> np.ndarray:
    """R from the Laplacian pseudoinverse of a connected graph, or from a
    stack of them."""
    d = np.diagonal(pinv, axis1=-2, axis2=-1)
    return _set_diagonal(d[..., :, None] + d[..., None, :] - 2.0 * pinv, 0.0)


def _bundle(r: np.ndarray) -> ResistanceBundle:
    """Transmissions and R^L from R, or from a stack of R."""
    rtr = resistance_transmissions(r)
    return ResistanceBundle(r=r, rtr=rtr, rl=_set_diagonal(-r, rtr))


def resistance_matrix(g: Graph) -> np.ndarray:
    """Pairwise resistance distances; symmetric with zero diagonal."""
    if not is_connected(g):
        raise Disconnected("graph is disconnected; resistance undefined")
    return _resistance(laplacian_pseudoinverse(laplacian(g)))


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


def is_transmission_regular(rtr: np.ndarray, tol: float = 1e-9) -> float | None:
    """Return the common transmission k when all entries agree within tol.

    Returns None for irregular graphs (e.g. a path: end vertices transmit
    more than interior ones).
    """
    rtr = np.asarray(rtr, dtype=float)
    if rtr.size == 0:
        return None
    k = float(rtr[0])
    if float(np.abs(rtr - k).max()) <= tol:
        return k
    return None
