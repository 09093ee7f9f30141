"""Resistance Laplacian energy and its bounds.

The energy is built from the eigenvalues of the resistance Laplacian,
re-centered at the mean transmission: with U_j = RTr(j) and
eta_i = gamma_i - mean(U), the eta sum to zero, their squares sum to 2F,
and LE_R = sum |eta_i|; _eta alone forms them, for the report and for resq
verify. E_R = sum |gamma_i| over the resistance matrix spectrum; for
transmission-regular graphs the two energies coincide.

E_R needs no eigensolve of R. R is a Euclidean distance matrix, so it has
exactly one positive eigenvalue gamma_1 (Bapat, "Resistance matrix of a
weighted graph", MATCH 50, 2004), and trace(R) = 0 makes the negative ones
sum to -gamma_1; hence E_R = 2 * gamma_1, the Perron root of R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeRadicand
from .graph import Graph
from .resistance import _set_diagonal, resistance_matrix
from .spectral import _eigenvalues_in_place

#: Radicands above this (negative) floor are treated as rounding noise and
#: clamped to zero; anything lower raises NegativeRadicand. Equality cases
#: (K_2) sit exactly on the radicand boundary.
RADICAND_FLOOR = -1e-9

BOUND_NAMES = ("lower_2sqrtF", "upper_sqrt2nF", "upper_meanU", "upper_eta1")

# Margin by which LE_R may cross a bound and the bound still count as satisfied.
_BOUND_TOL = 1e-9

_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0

# Iterations before falling back to eigvalsh. |Rv - qv|^2 / q^2 shrinks by
# (|gamma_n| / gamma_1)^2 per step, so 100 suffice whenever that ratio is at
# most 0.83 (0.83^200 < u). 600 random graphs of order 2 to 64 took at most 37
# and the connected graphs of networkx's atlas 44; K_n, C_n and K_{p,p} take 1.
_PERRON_MAX_ITER = 100


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated bound: its value, whether it holds, and the margin.

    slack is the signed margin (le_r - value for lower bounds, value - le_r
    for upper bounds); it is nonnegative, up to tolerance, when satisfied.
    """

    value: float
    satisfied: bool
    slack: float


@dataclass(frozen=True)
class EnergyReport:
    """Everything the energy pipeline produces for one connected graph."""

    n: int
    mean_transmission: float
    eta: np.ndarray
    f: float
    F: float
    le_r: float
    e_r: float
    bounds: dict[str, BoundCheck]


def _energy_moments(r: np.ndarray, rtr: np.ndarray) -> tuple[float, float]:
    """(f, F): squared resistances over unordered pairs, and the corrected
    second moment F = f + (1/2) sum (U_i - mean U)^2; for a stack of R of
    shape (k, n, n) and transmissions (k, n), two arrays of shape (k,).

    R is symmetric with a zero diagonal, so f = (1/2) ||R||_F^2: one dot
    product of the flattened matrix with itself, which a stacked matmul
    forms for each matrix bit for bit as for one alone.
    """
    flat = r.reshape(*r.shape[:-2], 1, -1)
    f = 0.5 * (flat @ flat.swapaxes(-1, -2))[..., 0, 0]
    big_f = f + 0.5 * ((rtr - rtr.mean(axis=-1, keepdims=True)) ** 2).sum(axis=-1)
    return f, big_f


def _eta(rl_values, rtr):
    """(eta, mean U, LE_R) of one graph, or each of a stack, from descending R^L values and RTr."""
    mean_u = rtr.mean(axis=-1)
    eta = rl_values - mean_u[..., None]
    return eta, mean_u, np.abs(eta).sum(axis=-1)


def _safe_sqrt(radicand):
    low = np.min(radicand)
    if low < RADICAND_FLOOR:
        raise NegativeRadicand(f"radicand {low:.3e} below floor {RADICAND_FLOOR:g}")
    return np.sqrt(np.maximum(radicand, 0.0))


def _bound_values(n: int, mean_u, big_f, eta1) -> tuple:
    """The four bounds of BOUND_NAMES, in that order, for one graph or
    elementwise over graphs of order n. The first bounds LE_R from below,
    the others from above."""
    return (
        2.0 * np.sqrt(big_f),
        np.sqrt(2.0 * n * big_f),
        mean_u + _safe_sqrt((n - 1) * (2.0 * big_f - mean_u * mean_u)),
        eta1 + _safe_sqrt((n - 1) * (2.0 * big_f - eta1 * eta1)),
    )


def _check_bounds(n: int, mean_u: float, big_f: float, eta1: float,
                  le_r: float) -> dict[str, BoundCheck]:
    """Evaluate all four energy bounds of one graph against its LE_R.

    lower_2sqrtF and upper_sqrt2nF bracket LE_R by 2*sqrt(F) and
    sqrt(2nF); upper_meanU and upper_eta1 are the mean-transmission and
    eta_1 refinements. Tiny negative radicands (rounding at equality
    cases) are clamped; genuinely negative ones raise NegativeRadicand.
    """
    lower, *uppers = (float(v) for v in _bound_values(n, mean_u, big_f, eta1))
    out = {"lower_2sqrtF": BoundCheck(lower, le_r >= lower - _BOUND_TOL, le_r - lower)}
    for name, value in zip(BOUND_NAMES[1:], uppers):
        out[name] = BoundCheck(value, le_r <= value + _BOUND_TOL, value - le_r)
    return out


def _perron_root(r: np.ndarray):
    """Largest eigenvalue gamma_1 of a resistance matrix, at every order.

    Power iteration from the all-ones vector on the Rayleigh quotient q. As
    every other eigenvalue of R is <= 0 < q, the Kato-Temple inequality gives
    gamma_1 - q <= |Rv - qv|^2 / q, so stopping at |Rv - qv|^2 <= u * q^2
    bounds the relative error of q by the unit roundoff u. A matrix that
    does not converge within _PERRON_MAX_ITER steps goes to eigvalsh.
    """
    n = r.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(_PERRON_MAX_ITER):
        w = r @ v
        q = float(v @ w)
        res = w - q * v
        if float(res @ res) <= _UNIT_ROUNDOFF * q * q:
            return q
        v = w / math.sqrt(float(w @ w))
    return np.linalg.eigvalsh(r)[-1]


def resistance_laplacian_energy(g: Graph) -> EnergyReport:
    """Full energy report for a connected graph: eta, f, F, LE_R, E_R and
    all four bounds with satisfaction flags and signed slack.

    Works in the one n x n buffer of resistance_matrix: RTr, f, F and the
    Perron root are read from R, which is then turned into R^L in place and
    handed to the eigensolver to overwrite.
    """
    r = resistance_matrix(g)
    rtr = r.sum(axis=-2)
    f, big_f = _energy_moments(r, rtr)
    e_r = float(2.0 * _perron_root(r))
    rl = _set_diagonal(np.negative(r, out=r), rtr)
    eta, mean_u, le_r = _eta(_eigenvalues_in_place(rl), rtr)
    mean_u, big_f, le_r = float(mean_u), float(big_f), float(le_r)
    return EnergyReport(
        n=eta.size,
        mean_transmission=mean_u,
        eta=eta,
        f=float(f),
        F=big_f,
        le_r=le_r,
        e_r=e_r,
        bounds=_check_bounds(eta.size, mean_u, big_f, float(eta[0]), le_r),
    )
