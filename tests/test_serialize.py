import dataclasses
import json
from decimal import ROUND_HALF_EVEN, Context, Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resq import serialize
from resq.energy import resistance_laplacian_energy
from resq.graph import FamilySpec, generate, random_connected_graph
from resq.resistance import resistance_laplacian
from resq.serialize import (
    dumps,
    energy_report_to_csv,
    energy_report_to_json,
    format_float,
    graph_hash,
    matrix_to_csv,
    spectrum_to_csv,
    spectrum_to_json,
)
from resq.spectral import DEFAULT_GROUP_TOL, Spectrum


def test_format_float_full_precision():
    assert format_float(1.0) == "1"
    assert format_float(-1.0) == "-1"
    # %.17g round-trips doubles exactly
    for x in (0.1, 2.0 / 3.0, 3.5000000000000004, 1e-300):
        assert float(format_float(x)) == x


def test_matrix_csv_k2():
    rl = resistance_laplacian(generate(FamilySpec.complete(2)))
    assert matrix_to_csv(rl) == "1,-1\n-1,1"


def csv_reference(m):
    """The CSV of m formatted one element at a time."""
    return "\n".join(",".join(format_float(x) for x in row) for row in m)


def symmetric_with(corner):
    """A 3x3 bitwise-symmetric matrix whose (0, 1) and (1, 0) entries are corner."""
    m = np.array([[1.0, corner, 0.5], [corner, -2.0, 0.25], [0.5, 0.25, 3.0]])
    assert np.array_equal(m.view(np.int64), m.T.view(np.int64))
    return m


@pytest.mark.parametrize(
    "m",
    [
        np.array([[-0.0, 5e-324, 1e300, 0.1], [0.1, -1e300, 2.0 / 3.0, -0.0]]),
        np.array([[1.0, 0.0], [-0.0, 1.0]]),
        symmetric_with(-1.2345678901234567e-100),
        symmetric_with(5e-324),
        symmetric_with(-1e300),
        symmetric_with(np.nan),
        symmetric_with(np.inf),
        np.array([[np.inf, -np.inf, np.nan]] * 3),
        np.zeros((0, 0)),
        np.zeros((3, 0)),
        np.zeros((0, 3)),
        np.array([[1.0 / 3.0]]),
        np.arange(8.0).reshape(2, 4) / 7.0,
        (np.arange(16.0).reshape(4, 4) / 7.0)[::-1, ::-1].T,
    ],
    ids=[
        "extremes",
        "signed-zero-pair",
        "widest-cell",
        "smallest-subnormal",
        "minus-1e300",
        "nan",
        "inf",
        "nonfinite-asymmetric",
        "0x0",
        "3x0",
        "0x3",
        "1x1",
        "2x4",
        "strided-view",
    ],
)
def test_matrix_csv_matches_per_element_format(m):
    assert matrix_to_csv(m) == csv_reference(m)


def test_matrix_csv_symmetric_rl_300():
    rl = resistance_laplacian(random_connected_graph(300, 10 / 300, seed=5))
    assert np.array_equal(rl, rl.T)
    # Compared line by line: pytest's diff of two megabyte strings takes minutes.
    assert matrix_to_csv(rl).split("\n") == csv_reference(rl).split("\n")


def halfway_values(count, seed):
    """Doubles I + j / 2**k whose exact decimal has 18 significant digits and
    ends in 5: the 17th digit is a tie, which %.17g rounds half to even."""
    rng = np.random.default_rng(seed)
    values = []
    while len(values) < count:
        k = int(rng.integers(1, 19))
        whole = int(rng.integers(10 ** (17 - k), 10 ** (18 - k))) if k < 18 else 0
        x = whole + (2 * int(rng.integers(0, 2 ** (k - 1))) + 1) / 2**k
        digits = Decimal(x).normalize().as_tuple().digits
        if len(digits) == 18 and digits[-1] == 5:
            values.append(x)
    return values


def kernel_edges():
    """Powers of ten one ulp either side for 10**-8 to 10**17, and the ends
    of the kernel's range 1e-5 <= |x| < 1e15."""
    values = [10000000.0009765625]
    for x in [10.0**k for k in range(-8, 18)] + [1e-5, 1e15]:
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    return values + [-x for x in values]


@pytest.mark.parametrize("values", [halfway_values(400, 0), kernel_edges()],
                         ids=["halfway", "powers-of-ten"])
def test_matrix_csv_exact_on_ties_and_range_edges(values):
    m = np.array(values).reshape(1, -1)
    assert matrix_to_csv(m) == csv_reference(m)
    assert matrix_to_csv(m.T) == csv_reference(m.T)


def test_halfway_values_round_half_to_even():
    values = halfway_values(50, 1)
    text = matrix_to_csv(np.array([values]))
    ties = Context(prec=17, rounding=ROUND_HALF_EVEN)
    assert [Decimal(t) for t in text.split(",")] == [ties.plus(Decimal(x)) for x in values]
    assert matrix_to_csv(np.array([[10000000.0009765625]])) == "10000000.000976562"


@st.composite
def float_matrices(draw):
    """Matrices of any doubles (NaN, infinities, signed zeros, subnormals)
    mixed with doubles of the kernel's range, in 1 to 6 columns."""
    values = draw(st.lists(st.floats() | st.floats(1e-5, 1e15, exclude_max=True)
                           | st.floats(-1e15, -1e-5, exclude_min=True), min_size=1, max_size=60))
    cols = draw(st.integers(1, min(6, len(values))))
    return np.array(values[: len(values) // cols * cols]).reshape(-1, cols)


@given(float_matrices())
@settings(max_examples=300, deadline=None)
def test_matrix_csv_matches_per_element_format_on_any_doubles(m):
    assert matrix_to_csv(m) == csv_reference(m)


@pytest.mark.parametrize("n", [1, 7, 23])
def test_matrix_text_over_row_blocks_with_mixed_exponents(n, monkeypatch):
    # Blocks of 5 rows for n = 23 (the last of 3 rows), 1 row for n = 7.
    monkeypatch.setattr(serialize, "_BLOCK", 5 * n if n > 7 else 1)
    rng = np.random.default_rng(n)
    m = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-6, 16, (n, n))
    m[rng.random((n, n)) < 0.1] = 0.0
    m[::3] = np.round(m[::3])
    assert matrix_to_csv(m).split("\n") == csv_reference(m).split("\n")
    blocks = list(serialize._row_blocks(m))
    assert [len(b) for b in blocks] == ([5] * 4 + [3] if n == 23 else [1] * n)
    assert b"".join(serialize.matrix_chunks(m, "rq", "csv")) == (csv_reference(m) + "\n").encode()
    expected = {"n": n, "kind": "rq", "data": m.ravel().tolist()}
    assert b"".join(serialize.matrix_chunks(m, "rq", "json")) == (dumps(expected) + "\n").encode()


def decade_values(decade):
    """Doubles of one decimal exponent, 10**decade <= |x| < 10**(decade + 1),
    of either sign."""
    low, high = 10.0**decade, 10.0 ** (decade + 1)
    return st.floats(low, high, exclude_max=True) | st.floats(-high, -low, exclude_min=True)


# Values that leave a block's common decade: decade boundaries and the
# doubles next to them, 17th-digit ties, signed zeros, subnormals, the ends
# of the kernel's range and non-finite values.
_STRAYS = (kernel_edges() + halfway_values(40, 2) + [0.0, -0.0, 5e-324, -2.5e-320, 1e-310]
           + [np.inf, -np.inf, np.nan])


@st.composite
def decade_blocks(draw):
    """(m, rows per block): 2 to 4 blocks of whole rows, each dominated by
    its own decimal exponent from -5 to 14, with values of other decades
    and strays put in."""
    cols, rows = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    blocks = []
    for decade in draw(st.lists(st.integers(-5, 14), min_size=2, max_size=4)):
        odd = st.floats(1e-5, 1e15, exclude_max=True) | st.sampled_from(_STRAYS)
        values = draw(st.lists(_mostly(decade_values(decade), odd), min_size=rows * cols,
                               max_size=rows * cols))
        blocks.append(np.array(values).reshape(rows, cols))
    return np.concatenate(blocks), rows


def _mostly(common, rare):
    """common, and one draw in four rare."""
    return st.one_of(common, common, common, rare)


@given(decade_blocks())
@settings(max_examples=300, deadline=None)
def test_common_decade_blocks_match_per_element_format(case):
    m, rows = case
    with mock.patch.object(serialize, "_BLOCK", rows * m.shape[1]):
        assert len(list(serialize._row_blocks(m))) == len(m) // rows
        text = matrix_to_csv(m)
        assert text == csv_reference(m)
        assert b"".join(serialize.matrix_chunks(m, "rl", "csv")) == (text + "\n").encode()


@given(st.lists(st.floats() | decade_values(-2), max_size=40))
@settings(max_examples=200, deadline=None)
def test_spectrum_and_eta_rows_match_the_per_value_join(values):
    joined = ",".join(format_float(v) for v in values)
    assert spectrum_to_csv(Spectrum(np.array(values, dtype=float))) == joined
    report = resistance_laplacian_energy(generate(FamilySpec.cycle(4)))
    text = energy_report_to_csv(dataclasses.replace(report, eta=np.array(values, dtype=float)), "g")
    assert text.splitlines()[3] == "eta," + joined


def test_matrix_json_schema_and_roundtrip():
    m = np.array([[0.0, 2.0 / 3.0], [2.0 / 3.0, 0.0]])
    payload = json.loads(b"".join(serialize.matrix_chunks(m, "resistance", "json")))
    assert payload["n"] == 2
    assert payload["kind"] == "resistance"
    assert payload["data"] == m.ravel().tolist()  # exact float round-trip


def test_json_lists_print_as_per_element_floats():
    m = np.array([[-0.0, 5e-324, 1e300], [0.1, -1.2345678901234567e-100, 2.0 / 3.0]])
    expected = {"n": 2, "kind": "rl", "data": [float(x) for x in m.ravel()]}
    assert b"".join(serialize.matrix_chunks(m, "rl", "json")) == (dumps(expected) + "\n").encode()
    s = Spectrum.from_values(m.ravel())
    assert dumps(spectrum_to_json(s)["values"]) == dumps([float(v) for v in s.values])
    g = generate(FamilySpec.cycle(5))
    report = resistance_laplacian_energy(g)
    eta = energy_report_to_json(report, graph_hash(g))["eta"]
    assert dumps(eta) == dumps([float(v) for v in report.eta])


def test_spectrum_serialization():
    s = Spectrum.from_values([2.0, 2.0, 0.0])
    assert spectrum_to_csv(s) == "2,2,0"
    payload = spectrum_to_json(s)
    assert payload["values"] == [2.0, 2.0, 0.0]
    assert payload["multiplicities"] == [[2.0, 2], [0.0, 1]]
    assert payload["tol"] == DEFAULT_GROUP_TOL == 1e-7


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
