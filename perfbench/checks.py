"""Correctness checks on the program's outputs and an independent oracle.

Nothing here imports resq.  Every tolerance has the form c * n * u * scale,
where u is the unit roundoff and scale the size of the quantities compared,
so that the checks stay meaningful as n grows (a fixed 1e-9 does not).

The oracle builds R from ``numpy.linalg.eigh(L)`` through the spectral
pseudoinverse and takes spectra from LAPACK's MRRR solver
(``scipy.linalg.eigvalsh(driver="evr")``); resq uses ``inv(L + J/n)`` and
numpy's divide-and-conquer ``eigvalsh``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh

UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
#: Constant c of the tolerances; a backward-stable dense kernel keeps its
#: error well below c * n * u * scale.
C_TOL = 16.0


def tolerance(n: int, scale: float, c: float = C_TOL) -> float:
    return c * n * UNIT_ROUNDOFF * scale


def read_edge_list(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Vertex count and edge endpoints of an edge-list file written by gen.py."""
    with open(path, encoding="ascii") as fh:
        n = int(fh.readline())
        pairs = np.array(fh.read().split(), dtype=np.int64).reshape(-1, 2)
    return n, pairs[:, 0], pairs[:, 1]


def read_csv_matrix(path: str) -> np.ndarray:
    """A square matrix written as one comma-separated row per line."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split()
    rows = len(lines)
    values = np.array(",".join(lines).split(","), dtype=float)
    if values.size != rows * rows:
        raise ValueError(f"{rows} rows but {values.size} values; not square")
    return values.reshape(rows, rows)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), np.finfo(float).tiny)


def _bounds_hold(n: int, le_r: float, big_f: float, mean_u: float, eta1: float, tol: float):
    """Failures among the four LE_R bounds, recomputed from the report's moments."""
    problems = []
    if le_r < 2.0 * math.sqrt(max(big_f, 0.0)) - tol:
        problems.append("lower bound 2*sqrt(F) violated")
    if le_r > math.sqrt(max(2.0 * n * big_f, 0.0)) + tol:
        problems.append("upper bound sqrt(2nF) violated")
    for name, lead in (("mean U", mean_u), ("eta_1", eta1)):
        radicand = (n - 1) * (2.0 * big_f - lead * lead)
        if le_r > lead + math.sqrt(max(radicand, 0.0)) + tol:
            problems.append(f"upper bound with {name} violated")
    return problems


def check_energy_report(doc: dict, n: int) -> list[str]:
    """Problems found in one JSON energy report of a graph on n vertices."""
    eta = np.asarray(doc["eta"], dtype=float)
    if doc["n"] != n or eta.size != n:
        return [f"report has n={doc['n']} and {eta.size} eta for a graph on {n} vertices"]
    if not np.isfinite(eta).all():
        return ["eta holds non-finite values"]
    le_r, big_f, mean_u = doc["le_r"], doc["F"], doc["mean_transmission"]
    lam_max = float(np.abs(eta).max()) + abs(mean_u)
    problems = []
    eta_sum = abs(float(eta.sum())) / n
    if eta_sum > tolerance(n, lam_max):
        problems.append(f"|sum eta|/n = {eta_sum:.3e}")
    square_gap = abs(float((eta**2).sum()) - 2.0 * big_f)
    if square_gap > tolerance(n, 2.0 * le_r * lam_max + 2.0 * big_f):
        problems.append(f"|sum eta^2 - 2F| = {square_gap:.3e}")
    if abs(float(np.abs(eta).sum()) - le_r) > tolerance(n, le_r):
        problems.append("le_r differs from sum |eta|")
    if not all(doc["satisfied"].values()):
        problems.append(f"report flags a bound as violated: {doc['satisfied']}")
    problems += _bounds_hold(n, le_r, big_f, mean_u, float(eta[0]), tolerance(n, le_r))
    return problems


def check_resistance_laplacian(m: np.ndarray, n: int) -> list[str]:
    """Problems found in an exported R^L matrix of a graph on n vertices."""
    if m.shape != (n, n):
        return [f"matrix is {m.shape}, expected {(n, n)}"]
    if not np.isfinite(m).all():
        return ["matrix holds non-finite values"]
    diag = np.diag(m)
    problems = []
    asym = float(np.abs(m - m.T).max())
    if asym > tolerance(n, float(np.abs(m).max())):
        problems.append(f"asymmetry {asym:.3e}")
    row_sum = float(np.abs(m.sum(axis=1)).max())
    if row_sum > tolerance(n, float(diag.max())):
        problems.append(f"row sum {row_sum:.3e}")
    if (diag <= 0).any() or (m - np.diag(diag) > 0).any():
        problems.append("sign pattern of R^L broken (diagonal > 0, off-diagonal <= 0)")
    return problems


def oracle_resistance(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """R through the spectral pseudoinverse of L, and kappa = mu_max / mu_2."""
    lap = np.zeros((n, n))
    lap[u, v] = lap[v, u] = -1.0
    lap[np.diag_indices(n)] = -lap.sum(axis=1)
    mu, vec = np.linalg.eigh(lap)
    if mu[1] <= tolerance(n, mu[-1]):
        raise ValueError("graph is disconnected")
    pinv = (vec[:, 1:] / mu[1:]) @ vec[:, 1:].T
    d = np.diag(pinv)
    r = d[:, None] + d[None, :] - 2.0 * pinv
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 0.0)
    return r, float(mu[-1] / mu[1])


def oracle_energy(r: np.ndarray) -> dict:
    rtr = r.sum(axis=0)
    lam = eigvalsh(np.diag(rtr) - r, driver="evr")[::-1]
    gamma = eigvalsh(r, driver="evr")
    eta = lam - rtr.mean()
    iu = np.triu_indices(r.shape[0], k=1)
    f = float((r[iu] ** 2).sum())
    return {
        "eta": eta,
        "mean_transmission": float(rtr.mean()),
        "F": f + 0.5 * float(((rtr - rtr.mean()) ** 2).sum()),
        "le_r": float(np.abs(eta).sum()),
        "e_r": float(np.abs(gamma).sum()),
    }


def compare_energy(doc: dict, oracle: dict, n: int, kappa: float) -> tuple[list[str], dict]:
    """Problems and relative errors of a report against the oracle's values.

    The forward error of R grows with kappa(L) times the backward error, so
    the tolerance is c * n * u * kappa relative to each quantity.
    """
    rel_tol = tolerance(n, kappa)
    errors = {key: _rel(doc[key], oracle[key]) for key in ("le_r", "e_r", "F", "mean_transmission")}
    scale = float(np.abs(oracle["eta"]).max()) + abs(oracle["mean_transmission"])
    eta_err = float(np.abs(np.asarray(doc["eta"]) - oracle["eta"]).max()) / scale
    problems = [f"{k} relative error {e:.3e} > {rel_tol:.3e}" for k, e in errors.items() if e > rel_tol]
    if eta_err > rel_tol:
        problems.append(f"eta error {eta_err:.3e} > {rel_tol:.3e}")
    return problems, {"le_r_rel_err": errors["le_r"], "e_r_rel_err": errors["e_r"],
                      "eta_rel_err": eta_err}


def compare_resistance_laplacian(m: np.ndarray, r: np.ndarray, kappa: float) -> tuple[list[str], float]:
    """Problems and relative max-norm error of an R^L matrix against the oracle's R."""
    expected = np.diag(r.sum(axis=0)) - r
    err = float(np.abs(m - expected).max()) / float(np.abs(expected).max())
    rel_tol = tolerance(r.shape[0], kappa)
    return ([f"R^L relative error {err:.3e} > {rel_tol:.3e}"] if err > rel_tol else []), err
