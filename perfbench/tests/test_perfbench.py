"""Tests of the benchmark's own helpers, and a tiny-n smoke run of each workload.

Run with:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import checks
import gen
import reference
import run
import spans
from resq import energy, graph, resistance, serialize


def _graph(n, p, seed):
    u, v = gen.random_connected_edges(n, p, np.random.default_rng(seed))
    return graph.Graph.from_edges(n, list(zip(u.tolist(), v.tolist())))


# --- medians, rates and self times -------------------------------------------

def test_ops_per_second():
    assert run.ops_per_second(10, 4.0) == 2.5
    assert run.ops_per_second(3, 0.0) == 0.0


def test_self_times_subtract_direct_children_only():
    span_list = [
        ["cli", 0.0, 10.0, -1, 1],
        ["resistance.matrix", 1.0, 4.0, 0, 1],
        ["resistance.pinv", 2.0, 3.0, 1, 1],
        ["serialize.out", 5.0, 9.0, 0, 1],
    ]
    assert spans.self_times(span_list) == [3.0, 2.0, 1.0, 4.0]


def test_stage_medians_count_a_missing_stage_as_zero():
    span_list = [
        ["cli", 0.0, 4.0, -1, 1], ["energy", 1.0, 2.0, 0, 1],
        ["cli", 10.0, 13.0, -1, 2], ["energy", 10.0, 12.0, 1 + 1, 2],
        ["cli", 20.0, 21.0, -1, 3],
    ]
    per_op = spans.stage_self_by_op(span_list, {"cli"})
    assert per_op[1] == {"cli": 3.0, "energy": 1.0, "cli.wall": 4.0}
    assert spans.stage_medians(per_op, ["energy", "cli", "graph.bfs"]) == {
        "energy": 1.0, "cli": 1.0, "graph.bfs": 0.0}
    assert spans.stage_medians({}, ["energy"]) == {"energy": 0.0}


# --- the reference kernel ------------------------------------------------------

def test_normalised_scales_to_the_kernels_nominal_time():
    kernel = {"nominal_s": 0.2}
    assert reference.normalised(2.0, 0.2, kernel) == 2.0
    assert reference.normalised(2.0, 0.4, kernel) == pytest.approx(1.0)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_reference_process_times_each_workloads_kernel_and_ends(name):
    with reference.ReferenceProcess(run.WORKLOADS[name]["reference"]) as ref:
        times = [ref.time(), ref.time()]
        proc = ref.proc
    assert all(t > 0 for t in times)
    assert proc.returncode == 0


# --- tracing the layers from outside ------------------------------------------

def test_patched_traces_calls_made_inside_the_program_and_restores():
    original = energy.resistance_bundle
    recorder = spans.Recorder()
    g = _graph(12, 0.4, 1)
    with spans.patched(recorder.wrap), recorder.span("cli"):
        energy.resistance_laplacian_energy(g)
    assert energy.resistance_bundle is original
    names = [s[0] for s in recorder.spans]
    assert names == ["cli", "energy", "resistance.bundle", "resistance.matrix", "graph.bfs",
                     "graph.laplacian", "resistance.pinv", "spectral.eig_rl", "spectral.eig_r"]
    parent = {s[0]: recorder.spans[s[3]][0] for s in recorder.spans if s[3] >= 0}
    assert parent["resistance.pinv"] == "resistance.matrix"
    assert parent["spectral.eig_r"] == "energy"
    assert all(s[2] >= s[1] > 0 for s in recorder.spans)


def test_patched_skips_functions_a_module_no_longer_defines():
    stages = {("resq.resistance", "no_such_function"): "x", ("resq.graph", "laplacian"): "lap"}
    recorder = spans.Recorder()
    with spans.patched(recorder.wrap, stages):
        resistance.resistance_matrix(_graph(6, 0.5, 2))
    assert [s[0] for s in recorder.spans] == ["lap"]


def test_peak_recorder_sees_the_resistance_and_spectral_allocations():
    peaks = spans.PeakRecorder()
    tracemalloc.start()
    try:
        with spans.patched(peaks.wrap):
            energy.resistance_laplacian_energy(_graph(80, 0.1, 3))
    finally:
        tracemalloc.stop()
    assert peaks.peaks["resistance"] >= 3 * 80 * 80 * 8
    assert peaks.peaks["spectral"] >= 80 * 80 * 8


# --- correctness checks and oracle --------------------------------------------

def test_tolerance_scales_with_n_and_magnitude():
    base = checks.tolerance(100, 1.0)
    assert checks.tolerance(200, 1.0) == pytest.approx(2 * base)
    assert checks.tolerance(100, 3.0) == pytest.approx(3 * base)
    assert 1e-14 < base < 1e-11


def test_energy_report_check_accepts_resq_and_rejects_tampering():
    g = _graph(40, 0.2, 4)
    doc = json.loads(serialize.dumps(serialize.energy_report_to_json(
        energy.resistance_laplacian_energy(g), "tag")))
    assert checks.check_energy_report(doc, 40) == []
    assert checks.check_energy_report(dict(doc, le_r=doc["le_r"] * (1 + 1e-9)), 40)
    shifted = list(doc["eta"])
    shifted[0] += 1e-9 * abs(shifted[0])
    assert checks.check_energy_report(dict(doc, eta=shifted), 40)
    assert checks.check_energy_report(dict(doc, F=doc["F"] * 0.5), 40)
    assert checks.check_energy_report(doc, 41)


def test_resistance_laplacian_check_and_csv_round_trip(tmp_path):
    g = _graph(30, 0.2, 5)
    rl = resistance.resistance_laplacian(g)
    path = tmp_path / "rl.csv"
    path.write_text(serialize.matrix_to_csv(rl) + "\n")
    back = checks.read_csv_matrix(str(path))
    assert np.array_equal(back, rl)
    assert checks.check_resistance_laplacian(back, 30) == []
    bad = back.copy()
    bad[0, 1] += 1e-9
    assert checks.check_resistance_laplacian(bad, 30)
    assert checks.check_resistance_laplacian(back[:-1, :-1], 30)


def test_oracle_agrees_with_resq_within_tolerance():
    n = 60
    u, v = gen.random_connected_edges(n, 0.1, np.random.default_rng(6))
    g = graph.Graph.from_edges(n, list(zip(u.tolist(), v.tolist())))
    r, kappa = checks.oracle_resistance(n, u, v)
    assert kappa > 1
    assert np.abs(r - resistance.resistance_matrix(g)).max() <= checks.tolerance(n, kappa * r.max())
    doc = serialize.energy_report_to_json(energy.resistance_laplacian_energy(g), "tag")
    problems, errors = checks.compare_energy(doc, checks.oracle_energy(r), n, kappa)
    assert problems == [] and errors["le_r_rel_err"] < 1e-12
    problems, _ = checks.compare_energy(dict(doc, e_r=doc["e_r"] * (1 + 1e-8)),
                                        checks.oracle_energy(r), n, kappa)
    assert problems
    assert checks.compare_resistance_laplacian(resistance.resistance_laplacian(g), r, kappa)[0] == []


def test_oracle_rejects_a_disconnected_graph():
    with pytest.raises(ValueError):
        checks.oracle_resistance(4, np.array([0, 2]), np.array([1, 3]))


# --- input generation ---------------------------------------------------------

def test_generator_is_seeded_and_connected(tmp_path):
    first = gen.write_graphs(50, 0.08, 7, 0, 3, str(tmp_path / "a"))
    second = gen.write_graphs(50, 0.08, 7, 0, 3, str(tmp_path / "b"))
    other = gen.write_graphs(50, 0.08, 7, 1, 1, str(tmp_path / "c"))
    texts = [open(item["path"]).read() for item in first]
    assert texts == [open(item["path"]).read() for item in second]
    assert open(other[0]["path"]).read() != texts[0]
    for item, text in zip(first, texts):
        g = graph.parse_edge_list(text)
        assert graph.is_connected(g) and g.edge_count == item["m"]


# --- tiny-n smoke runs ---------------------------------------------------------

TINY = {
    "energy_large": dict(run.WORKLOADS["energy_large"], n=30, floor_op_s=0.05),
    "matrix_export": dict(run.WORKLOADS["matrix_export"], n=30, floor_op_s=0.05),
    "verify_suite": dict(run.WORKLOADS["verify_suite"], verify=dict(
        run.WORKLOADS["verify_suite"]["verify"], max_n=5, count=5, tree_count=5,
        max_tree_n=6, pair_count=5, max_pq=3)),
}


def _specs(kind):
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())[kind]


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_untraced_run(name):
    report = run.Runner(name, TINY[name], seed=3, seconds=1.0, trace=False,
                        deadline=float("inf")).run()
    assert report["problems"] == [] and report["failed"] == 0
    assert report["attempted"] >= 1 and len(report["setup_trials_s"]) == run.SETUP_TRIALS
    _, metrics = run.summarise(report, _specs("end_to_end"))
    assert list(metrics) == [spec["name"] for spec in _specs("end_to_end")]
    assert all(m["value"] > 0 for m in metrics.values())
    if name != "verify_suite":
        assert report["oracle"]


@pytest.mark.parametrize("name,stages", [
    ("energy_large", ["graph.parse_s", "resistance.pinv_s", "spectral.eig_rl_s",
                      "spectral.eig_r_s", "energy.self_s", "serialize.out_s", "cli.self_s",
                      "resistance.peak_mb", "spectral.peak_mb"]),
    ("matrix_export", ["resistance.pinv_s", "resistance.bundle_self_s", "serialize.out_mb",
                       "resistance.penrose_rel_residual"]),
    ("verify_suite", ["graph.bfs_s", "spectral.quotient_s", "closed_forms.family_s",
                      "verify.self_s", "verify.random_corpus_ms"]),
])
def test_tiny_traced_run(name, stages):
    report = run.Runner(name, TINY[name], seed=4, seconds=1.0, trace=True,
                        deadline=float("inf")).run()
    assert report["problems"] == []
    _, metrics = run.summarise(report, _specs("per_layer"))
    assert list(metrics) == [spec["name"] for spec in _specs("per_layer")]
    assert all(metrics[s]["value"] > 0 for s in stages), {s: metrics[s] for s in stages}
    assert metrics["trace.coverage"]["value"] > 0.3
    assert metrics["energy.le_r_rel_err"]["value"] < 1e-12
    assert (run.WORK_DIR / f"{name}.spans.json").is_file()


def test_exits_without_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_suite",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
