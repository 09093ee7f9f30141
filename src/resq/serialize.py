"""CSV and JSON serialization with full numeric precision.

CSV carries floats as %.17g; JSON numbers use Python's shortest
round-trip representation. Both reproduce the underlying doubles exactly.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .energy import EnergyReport
from .graph import Graph, format_edge_list
from .spectral import Spectrum


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def matrix_to_csv(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=float)
    # One %-format per row; converting the whole matrix with tolist() at once
    # would hold every entry as a Python float.
    row_fmt = ",".join(["%.17g"] * m.shape[1])
    return "\n".join(row_fmt % tuple(row.tolist()) for row in m)


def matrix_to_json(m: np.ndarray, kind: str) -> dict:
    m = np.asarray(m, dtype=float)
    return {"n": int(m.shape[0]), "kind": kind, "data": [float(x) for x in m.ravel()]}


def spectrum_to_csv(s: Spectrum) -> str:
    return ",".join(format_float(v) for v in s.values)


def spectrum_to_json(s: Spectrum) -> dict:
    return {
        "values": [float(v) for v in s.values],
        "multiplicities": [[float(v), int(c)] for v, c in s.multiplicities],
        "tol": float(s.tol),
    }


def energy_report_to_json(report: EnergyReport, graph_tag: str) -> dict:
    return {
        "graph": graph_tag,
        "n": report.n,
        "mean_transmission": report.mean_transmission,
        "eta": [float(v) for v in report.eta],
        "f": report.f,
        "F": report.F,
        "le_r": report.le_r,
        "e_r": report.e_r,
        "bounds": {name: b.value for name, b in report.bounds.items()},
        "satisfied": {name: b.satisfied for name, b in report.bounds.items()},
        "slack": {name: b.slack for name, b in report.bounds.items()},
    }


def energy_report_to_csv(report: EnergyReport, graph_tag: str) -> str:
    lines = [
        f"graph,{graph_tag}",
        f"n,{report.n}",
        f"mean_transmission,{format_float(report.mean_transmission)}",
        "eta," + ",".join(format_float(v) for v in report.eta),
        f"f,{format_float(report.f)}",
        f"F,{format_float(report.F)}",
        f"le_r,{format_float(report.le_r)}",
        f"e_r,{format_float(report.e_r)}",
    ]
    for name in report.bounds:
        b = report.bounds[name]
        lines.append(
            f"bound,{name},{format_float(b.value)},"
            f"{'satisfied' if b.satisfied else 'violated'},{format_float(b.slack)}"
        )
    return "\n".join(lines)


def graph_hash(g: Graph) -> str:
    """Short stable identifier for a graph: sha256 of its edge-list text."""
    digest = hashlib.sha256(format_edge_list(g).encode("ascii")).hexdigest()
    return digest[:16]


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, no trailing whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
