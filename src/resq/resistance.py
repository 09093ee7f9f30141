"""Resistance distances and the matrices built from them.

The resistance distance r(i, j) is the effective resistance between i and j
when every edge carries a unit resistor. It is read off the Moore-Penrose
pseudoinverse of the graph Laplacian:

    r(i, j) = pinv(L)[i, i] + pinv(L)[j, j] - 2 * pinv(L)[i, j]

From the resistance matrix R and the transmissions RTr(v) = sum_u r(u, v)
we form the resistance Laplacian  Diag(RTr) - R  and the resistance
signless Laplacian  Diag(RTr) + R.

The pseudoinverse is checked against the Penrose identity L X L = L applied
to one fixed probe vector v, |L(X(Lv)) - Lv|, which costs three
matrix-vector products (O(n^2)) instead of a second O(n^3) matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Disconnected
from .graph import Graph, is_connected, laplacian

# Residual ceiling for the Penrose identity L X L = L, relative to |L|.
_PENROSE_RTOL = 1e-8


@dataclass(frozen=True)
class ResistanceBundle:
    """Resistance matrix, transmissions, and both derived Laplacians."""

    r: np.ndarray
    rtr: np.ndarray
    rl: np.ndarray
    rq: np.ndarray


def laplacian_pseudoinverse(lap: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a connected graph Laplacian.

    Uses the identity pinv(L) = inv(L + J/n) - J/n, exact for connected
    graphs (L + J/n is then nonsingular, since the all-ones kernel of L is
    shifted away). Raises Disconnected when L has nullity >= 2, which is
    detected through the Penrose residual on a probe vector.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if n == 1:
        return np.zeros((1, 1))
    shift = np.full((n, n), 1.0 / n)
    try:
        pinv = np.linalg.inv(lap + shift) - shift
    except np.linalg.LinAlgError as exc:
        raise Disconnected("laplacian has nullity >= 2") from exc
    scale = max(1.0, float(np.abs(lap).max()))
    # With nullity >= 2, inv() either raises or returns a huge component
    # along a kernel vector of L, which the residual exposes unless the probe
    # is blind to it. The entries sin(1), ..., sin(n) bear no relation to how
    # vertices are labelled, and |v| <= 1 keeps the threshold relative to |L|.
    lv = lap @ np.sin(np.arange(1.0, n + 1.0))
    residual = float(np.abs(lap @ (pinv @ lv) - lv).max())
    if residual > _PENROSE_RTOL * scale:
        raise Disconnected(
            f"laplacian has nullity >= 2 (Penrose residual {residual:.3e})"
        )
    return (pinv + pinv.T) / 2.0


def resistance_matrix(g: Graph) -> np.ndarray:
    """Pairwise resistance distances; symmetric with zero diagonal."""
    if not is_connected(g):
        raise Disconnected("graph is disconnected; resistance undefined")
    if g.n == 1:
        return np.zeros((1, 1))
    pinv = laplacian_pseudoinverse(laplacian(g))
    d = np.diag(pinv)
    r = d[:, None] + d[None, :] - 2.0 * pinv
    np.fill_diagonal(r, 0.0)
    return (r + r.T) / 2.0


def resistance_transmissions(r: np.ndarray) -> np.ndarray:
    """Column sums of a resistance matrix: RTr(v) = sum_u r(u, v)."""
    return np.asarray(r, dtype=float).sum(axis=0)


def resistance_laplacian(g: Graph) -> np.ndarray:
    """Diag(RTr) - R; rows sum to zero."""
    r = resistance_matrix(g)
    return np.diag(resistance_transmissions(r)) - r


def resistance_signless_laplacian(g: Graph) -> np.ndarray:
    """Diag(RTr) + R."""
    r = resistance_matrix(g)
    return np.diag(resistance_transmissions(r)) + r


def resistance_bundle(g: Graph) -> ResistanceBundle:
    """Compute R once and derive transmissions and both Laplacians from it."""
    r = resistance_matrix(g)
    rtr = resistance_transmissions(r)
    diag = np.diag(rtr)
    return ResistanceBundle(r=r, rtr=rtr, rl=diag - r, rq=diag + r)


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
