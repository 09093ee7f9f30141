import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resq.resistance
from resq.cli import COMPUTE_TARGETS, main
from resq.graph import format_edge_list, parse_edge_list, random_connected_graph
from resq.resistance import (
    resistance_laplacian,
    resistance_matrix,
    resistance_signless_laplacian,
)
from resq import serialize
from resq.serialize import dumps, format_float, matrix_to_json

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@st.composite
def edge_list_texts(draw):
    """A vertex count n <= 12 and at most 39 more lines: distinct edges, with
    a path through all vertices in half the draws so that many graphs are
    connected, and up to three junk lines put anywhere among them."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=30)) if pairs else set()
    if draw(st.booleans()):
        edges |= {(i, i + 1) for i in range(n - 1)}
    lines = [f"{u} {v}" if draw(st.booleans()) else f"{v} {u}" for u, v in sorted(edges)]
    junk = st.one_of(
        st.sampled_from(["", "# comment", "\r", "1 2 3", "0 x"]),
        st.tuples(st.integers(-1, n), st.integers(-1, n)).map(lambda e: f"{e[0]} {e[1]}"),
        st.text(alphabet=" \t#-+.0123456789eabc", max_size=8),
    )
    for line in draw(st.lists(junk, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join([str(n), *lines[:39]]).encode()


@settings(deadline=None)  # max_examples is left to the profile
@given(
    data=st.one_of(st.binary(max_size=300), edge_list_texts()),
    what=st.sampled_from(COMPUTE_TARGETS),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_compute_fuzz(data, what, fmt):
    """Any input file ends in exit code 0, 2 or 3, never in an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.el")
        with open(path, "wb") as fh:
            fh.write(data)
        out = os.path.join(tmp, "out")
        assert main(["compute", path, "--what", what, "--format", fmt, "--out", out]) in (0, 2, 3)


class TestGenerate:
    def test_cycle_to_stdout(self, capsys):
        assert main(["generate", "--family", "cycle", "--n", "5"]) == 0
        out = capsys.readouterr().out
        g = parse_edge_list(out)
        assert g.n == 5 and g.edge_count == 5

    def test_bipartite_counts(self, capsys):
        assert main(["generate", "--family", "bipartite", "--p", "2", "--q", "3"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.edge_count == 6

    def test_to_file(self, tmp_path, capsys):
        out = tmp_path / "c6.el"
        assert main(["generate", "--family", "cycle", "--n", "6", "--out", str(out)]) == 0
        assert "6 vertices, 6 edges" in capsys.readouterr().out
        assert parse_edge_list(out.read_text()).edge_count == 6

    def test_invalid_params_exit_2(self, capsys):
        assert main(["generate", "--family", "cycle", "--n", "2"]) == 2
        assert "InvalidFamilyParams" in capsys.readouterr().err

    def test_missing_params_exit_2(self, capsys):
        assert main(["generate", "--family", "bipartite", "--p", "2"]) == 2

    @pytest.mark.parametrize("family, n", [("cycle", "20001"), ("complete", "1000000000")])
    def test_order_above_cap_exit_2(self, capsys, family, n):
        start = time.perf_counter()
        assert main(["generate", "--family", family, "--n", n]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: InvalidFamilyParams: order {n} exceeds 20000"
        ]

    def test_order_at_cap_written(self, tmp_path, capsys):
        out = tmp_path / "p20000.el"
        assert main(["generate", "--family", "path", "--n", "20000", "--out", str(out)]) == 0
        assert parse_edge_list(out.read_text()).edge_count == 19999


class TestCompute:
    def test_rl_csv_k2(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k2.el", "2\n0 1\n")
        assert main(["compute", path, "--what", "rl", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "1,-1\n-1,1\n"

    @pytest.mark.parametrize("what", ["resistance", "rl", "rq"])
    def test_matrix_csv_matches_per_element_format(self, what, tmp_path, capsys):
        g = random_connected_graph(300, 10 / 300, seed=2)
        path = write_graph(tmp_path, "g300.el", format_edge_list(g))
        matrix = {
            "resistance": resistance_matrix,
            "rl": resistance_laplacian,
            "rq": resistance_signless_laplacian,
        }[what](g)
        # Lines, with the final "" after the last newline: pytest's diff of
        # two megabyte strings takes minutes.
        expected = [",".join(format_float(x) for x in row) for row in matrix] + [""]
        out = tmp_path / f"{what}.csv"
        assert main(["compute", path, "--what", what, "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text(encoding="ascii").split("\n") == expected
        assert main(["compute", path, "--what", what, "--format", "csv"]) == 0
        assert capsys.readouterr().out.split("\n") == expected

    @pytest.mark.parametrize("what", ["resistance", "rl", "rq"])
    def test_matrix_json_streamed_over_row_blocks_matches_reference(self, what, tmp_path, capsys):
        g = random_connected_graph(300, 10 / 300, seed=4)
        path = write_graph(tmp_path, "g300.el", format_edge_list(g))
        matrix = {
            "resistance": resistance_matrix,
            "rl": resistance_laplacian,
            "rq": resistance_signless_laplacian,
        }[what](g)
        assert len(list(serialize._row_blocks(matrix))) == 3
        expected = dumps({"n": 300, "kind": what, "data": [float(x) for x in matrix.ravel()]}) + "\n"
        assert expected == dumps(matrix_to_json(matrix, what)) + "\n"
        out = tmp_path / f"{what}.json"
        assert main(["compute", path, "--what", what, "--format", "json", "--out", str(out)]) == 0
        # Compared item by item: pytest's diff of two megabyte strings takes minutes.
        assert out.read_text(encoding="ascii").split(",") == expected.split(",")
        assert main(["compute", path, "--what", what, "--format", "json"]) == 0
        assert capsys.readouterr().out.split(",") == expected.split(",")

    def test_error_leaves_existing_out_file(self, tmp_path, capsys):
        path = write_graph(tmp_path, "disc.el", "4\n0 1\n2 3\n")
        out = tmp_path / "keep.csv"
        out.write_text("old")
        assert main(["compute", path, "--what", "rl", "--out", str(out)]) == 3
        assert out.read_text() == "old"

    def test_energy_json_k4(self, tmp_path, capsys):
        path = write_graph(tmp_path, "k4.el", "4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        assert main(["compute", path, "--what", "energy", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["le_r"] == pytest.approx(3.0, abs=1e-9)
        assert payload["n"] == 4
        assert all(payload["satisfied"].values())

    def test_spectrum_json_c4(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c4.el", "4\n0 1\n1 2\n2 3\n0 3\n")
        assert main(["compute", path, "--what", "spectrum-rl", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["values"], [3.5, 3.5, 3.0, 0.0], atol=1e-9)

    def test_disconnected_exit_3(self, tmp_path, capsys):
        path = write_graph(tmp_path, "disc.el", "4\n0 1\n2 3\n")
        assert main(["compute", path, "--what", "resistance"]) == 3
        assert "Disconnected" in capsys.readouterr().err

    def test_oversized_vertex_count_exit_2(self, tmp_path, capsys):
        path = write_graph(tmp_path, "huge.el", "1000000000\n0 1\n")
        start = time.perf_counter()
        assert main(["compute", path, "--what", "energy"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "exceeds 20000" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bad.el", "3\n0 zero\n")
        assert main(["compute", path, "--what", "rl"]) == 2

    def test_non_utf8_bytes_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.el"
        path.write_bytes(b"3\n0 1\n\xff\xfe 2\n")
        assert main(["compute", str(path), "--what", "energy"]) == 2
        assert "GraphInputError" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["compute", "nope.el", "--what", "rl"]) == 2

    def test_output_bit_stable(self, tmp_path, capsys):
        path = write_graph(tmp_path, "p4.el", "4\n0 1\n1 2\n2 3\n")
        assert main(["compute", path, "--what", "resistance", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["compute", path, "--what", "resistance", "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_compute_to_file(self, tmp_path):
        path = write_graph(tmp_path, "k2.el", "2\n0 1\n")
        out = tmp_path / "rl.csv"
        assert main(["compute", path, "--what", "rl", "--out", str(out)]) == 0
        assert out.read_text() == "1,-1\n-1,1\n"


class TestVerify:
    def test_families_pass(self, capsys):
        assert main(["verify", "--scope", "families", "--max-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "PASS closed_form_matrices" in out
        assert "K_{2,2}" in out  # discrepancy report rows are printed
        assert "MISMATCH" in out

    def test_random_pass(self, capsys):
        assert main(
            ["verify", "--scope", "random", "--seed", "1", "--max-n", "8", "--count", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "edge_addition_monotonicity" in out

    def test_jsonl_output(self, capsys):
        assert main(
            ["verify", "--scope", "random", "--seed", "2", "--max-n", "7",
             "--count", "25", "--jsonl"]
        ) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        records = [json.loads(ln) for ln in lines]
        assert all(r["status"] == "pass" for r in records)
        assert any(r["name"] == "tree_distance_equality" for r in records)

    @pytest.mark.parametrize("args", [["--max-n", "1"], ["--count", "-1"], ["--max-n", "30000"]])
    def test_out_of_range_arguments_exit_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *args])
        assert exc.value.code == 2
        assert "must be >=" in capsys.readouterr().err

    def test_empty_corpus_skips(self, capsys):
        assert main(["verify", "--scope", "random", "--count", "0", "--jsonl"]) == 0
        captured = capsys.readouterr()
        records = {r["name"]: r for r in map(json.loads, captured.out.splitlines())}
        corpus_checks = [
            "random_corpus", "rl_positive_semidefinite", "rl_zero_row_sums",
            "rl_spectral_radius_at_least_2", "resistance_below_distance",
            "resistance_triangle_inequality", "rl_trace_identity", "eta_sum_zero",
            "eta_square_sum_2F", "energy_bounds",
        ]
        for name in corpus_checks:
            assert records[name]["status"] == "skip", name
        for name in corpus_checks[1:]:
            assert records[name]["measured"] is None, name
        assert records["tree_distance_equality"]["status"] == "pass"
        assert "10 skipped, 0 failed" in captured.err

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RESQ_TOL", "1e-3")
        assert main(
            ["verify", "--scope", "random", "--seed", "3", "--max-n", "6",
             "--count", "10", "--jsonl"]
        ) == 0
        records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        psd = next(r for r in records if r["name"] == "rl_positive_semidefinite")
        assert psd["tolerance"] == 1e-3

    @pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf", ""])
    def test_invalid_env_tolerance_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("RESQ_TOL", value)
        assert main(["verify", "--scope", "families", "--max-n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "RESQ_TOL" in captured.err

    def test_zero_env_tolerance_accepted(self, capsys, monkeypatch):
        # 0 is a valid tolerance; rounding then fails the closed-form checks.
        monkeypatch.setenv("RESQ_TOL", "0")
        assert main(["verify", "--scope", "families", "--max-n", "3", "--jsonl"]) == 4
        records = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert records[0]["name"] == "closed_form_matrices" and records[0]["tolerance"] == 0.0

    def test_fault_injection_fails_with_named_check(self, capsys, monkeypatch):
        # simulate a build with a broken sign in the signless Laplacian
        def broken(bundle):
            return resq.resistance._set_diagonal(-bundle.r, bundle.rtr)  # wrong sign

        monkeypatch.setattr(resq.resistance.ResistanceBundle, "rq", property(broken))
        assert main(["verify", "--scope", "families", "--max-n", "5"]) == 4
        out = capsys.readouterr().out
        assert "FAIL closed_form_matrices" in out
        assert "violating graph" in out


class TestSubprocessEntryPoint:
    def test_module_invocation(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "resq", "generate", "--family", "complete", "--n", "3"],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0
        assert parse_edge_list(proc.stdout).edge_count == 3

    def test_module_invocation_bad_args(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "resq", "compute", "nope.el", "--what", "bogus"],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reader_closing_early_prints_no_traceback(self, tmp_path, fmt):
        g = random_connected_graph(300, 10 / 300, seed=4)
        path = write_graph(tmp_path, "g300.el", format_edge_list(g))
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "resq", "compute", path, "--what", "rl", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(1000)) == 1000  # the output is megabytes long
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err == "error: [Errno 32] Broken pipe\n"
