"""CSV and JSON serialization with full numeric precision.

CSV carries floats as %.17g; JSON numbers use Python's shortest
round-trip representation. Both reproduce the underlying doubles exactly.
A bitwise-symmetric matrix (R, R^L, R^Q) has each unordered pair of entries
formatted once for CSV, with the same bytes as formatting every entry.
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


# Bytes per CSV cell: the widest %.17g, such as -1.2345678901234567e-100, and
# the comma after it.
_CELL = 25
_CELL_FMT = b"%24.17g,"


def matrix_to_csv(m: np.ndarray) -> str:
    """Rows of %.17g values joined by commas and newlines, no final newline.

    Every value is formatted into a cell of _CELL bytes, padded on the left
    with spaces, with one bytes-% call per row. A bitwise-symmetric matrix
    has only the cells of its upper triangle formatted; row i takes the cells
    left of its diagonal from column i of the rows above. No %.17g output
    contains a space, so dropping the padding leaves the CSV bytes.
    Symmetry is decided on the bit patterns because -0.0 == 0.0 while they
    print as -0 and 0.
    """
    m = np.asarray(m, dtype=float)
    rows, cols = m.shape
    if m.size == 0:
        return "\n" * max(rows - 1, 0)
    symmetric = rows == cols and np.array_equal(m.view(np.int64), m.T.view(np.int64))
    buf = np.empty((rows, cols, _CELL), dtype=np.uint8)
    row_fmt = _CELL_FMT * cols
    for i in range(rows):
        j = i if symmetric else 0
        text = row_fmt[len(_CELL_FMT) * j :] % tuple(m[i, j:].tolist())
        buf[i, j:] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _CELL)
        buf[i, :j] = buf[:j, i]
    buf[:, -1, -1] = ord("\n")
    # Drop the padding a block of rows at a time, moving the kept bytes to
    # the front of buf: the bytes kept from the rows before a block never
    # reach past the block's start, and each block's bytes are copied out by
    # the mask before they are written back.
    flat = buf.reshape(rows, cols * _CELL)
    out = buf.reshape(-1)
    step = max(1, (1 << 20) // (cols * _CELL))
    end = 0
    for a in range(0, rows, step):
        block = flat[a : a + step]
        kept = block[block != ord(" ")]
        out[end : end + kept.size] = kept
        end += kept.size
    return str(out[: end - 1].data, "ascii")


def matrix_to_json(m: np.ndarray, kind: str) -> dict:
    m = np.asarray(m, dtype=float)
    return {"n": int(m.shape[0]), "kind": kind, "data": m.ravel().tolist()}


def spectrum_to_csv(s: Spectrum) -> str:
    return ",".join(format_float(v) for v in s.values)


def spectrum_to_json(s: Spectrum) -> dict:
    return {
        "values": s.values.tolist(),
        "multiplicities": [[float(v), int(c)] for v, c in s.multiplicities],
        "tol": float(s.tol),
    }


def energy_report_to_json(report: EnergyReport, graph_tag: str) -> dict:
    return {
        "graph": graph_tag,
        "n": report.n,
        "mean_transmission": report.mean_transmission,
        "eta": report.eta.tolist(),
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
