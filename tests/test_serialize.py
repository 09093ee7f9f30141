import json

import numpy as np
import pytest

from resq.energy import resistance_laplacian_energy
from resq.graph import FamilySpec, generate
from resq.resistance import resistance_laplacian
from resq.serialize import (
    dumps,
    energy_report_to_csv,
    energy_report_to_json,
    format_float,
    graph_hash,
    matrix_to_csv,
    matrix_to_json,
    spectrum_to_csv,
    spectrum_to_json,
)
from resq.spectral import Spectrum


def test_format_float_full_precision():
    assert format_float(1.0) == "1"
    assert format_float(-1.0) == "-1"
    # %.17g round-trips doubles exactly
    for x in (0.1, 2.0 / 3.0, 3.5000000000000004, 1e-300):
        assert float(format_float(x)) == x


def test_matrix_csv_k2():
    rl = resistance_laplacian(generate(FamilySpec.complete(2)))
    assert matrix_to_csv(rl) == "1,-1\n-1,1"


@pytest.mark.parametrize(
    "m",
    [
        np.array([[-0.0, 5e-324, 1e300, 0.1], [0.1, -1e300, 2.0 / 3.0, -0.0]]),
        np.zeros((0, 0)),
        np.zeros((3, 0)),
        np.array([[1.0 / 3.0]]),
    ],
    ids=["extremes", "0x0", "3x0", "1x1"],
)
def test_matrix_csv_matches_per_element_format(m):
    reference = "\n".join(",".join(format_float(x) for x in row) for row in m)
    assert matrix_to_csv(m) == reference


def test_matrix_json_schema_and_roundtrip():
    m = np.array([[0.0, 2.0 / 3.0], [2.0 / 3.0, 0.0]])
    payload = matrix_to_json(m, "resistance")
    assert payload["n"] == 2
    assert payload["kind"] == "resistance"
    assert len(payload["data"]) == 4
    decoded = json.loads(dumps(payload))
    assert decoded["data"] == payload["data"]  # exact float round-trip


def test_spectrum_serialization():
    s = Spectrum.from_values([2.0, 2.0, 0.0])
    assert spectrum_to_csv(s) == "2,2,0"
    payload = spectrum_to_json(s)
    assert payload["values"] == [2.0, 2.0, 0.0]
    assert payload["multiplicities"] == [[2.0, 2], [0.0, 1]]
    assert payload["tol"] == s.tol


def test_energy_report_serialization():
    g = generate(FamilySpec.complete(4))
    report = resistance_laplacian_energy(g)
    payload = energy_report_to_json(report, graph_hash(g))
    for key in ("graph", "n", "mean_transmission", "eta", "f", "F", "le_r", "e_r"):
        assert key in payload
    assert set(payload["bounds"]) == {
        "lower_2sqrtF",
        "upper_sqrt2nF",
        "upper_meanU",
        "upper_eta1",
    }
    assert set(payload["satisfied"]) == set(payload["bounds"])
    assert set(payload["slack"]) == set(payload["bounds"])
    text = energy_report_to_csv(report, graph_hash(g))
    le_r_line = next(ln for ln in text.splitlines() if ln.startswith("le_r,"))
    assert float(le_r_line.split(",")[1]) == pytest.approx(3.0, abs=1e-9)
    assert text.count("\nbound,") == 4


def test_graph_hash_stable_and_distinct():
    a = generate(FamilySpec.cycle(5))
    b = generate(FamilySpec.path(5))
    assert graph_hash(a) == graph_hash(a)
    assert graph_hash(a) != graph_hash(b)
    assert len(graph_hash(a)) == 16


def test_dumps_deterministic():
    payload = {"b": 1.5, "a": [1.0, 2.0]}
    assert dumps(payload) == dumps(dict(sorted(payload.items())))
