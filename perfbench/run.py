"""Benchmark of resq: three closed-loop workloads and a per-layer stage trace.

    python3 perfbench/run.py --workload energy_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

Run it from a checkout of the repository: it imports resq from ``src/`` of
the checkout and nowhere else, and exits non-zero without a result when that
source is missing.  It writes only under ``.perfbench_work/`` of the checkout.

Workloads (each one client in one process, closed loop, every process of
the benchmark pinned to one core and so one BLAS thread; see pin_to_one_core):

  energy_large   ``resq compute G --what energy --format json`` on a seeded
                 G(n=2000, p=10/n), redrawn until connected.  The dense O(n^3)
                 kernels (pseudoinverse, two eigensolves) do nearly all the
                 work: the pinv and eigensolver changes show here.
  matrix_export  ``resq compute G --what rl --format csv`` on G(1000, 10/n).
                 Same resistance layer and no eigensolve; CSV output does over
                 half the work, so a change moving cost into the resistance
                 derivation or into serialisation shows here and not above.
  verify_suite   ``run_verify`` with every argument pinned; op i uses seed + i.
                 Hundreds of graphs with n <= 15: per-call Python overhead
                 dominates and LAPACK time is negligible, so the small-graph
                 engine shows here and the large-n kernels must not.

With ``--trace 0`` the run prints, per workload:

  setup_s        median over 3 set-ups of generating the inputs, importing
                 resq and running one warm-up op, each in a fresh process,
                 normalised by the reference kernel (see below)
  op_p50_norm_s  median op, each op normalised by the reference kernel timed
                 right before and after it, with the sample count
  op_mean_norm_s mean op over the mean of its kernel timings, times the
                 kernel's nominal time: the inverse of a normalised ops_per_s,
                 so that a stall the median hides shows here
  op_p50_s       median op, wall time as measured
  op_min_s       fastest op, wall time as measured
  ops_per_s      ops completed / wall time of the timed phase, less the time
                 spent in the reference kernel
  fail_ratio     failed / attempted ops (non-zero exit, exception, failed
                 verify check, or output failing checks.py)
  peak_rss_mb    peak RSS (VmHWM) of the workload process at the end of the
                 timed phase

The last line carries the metrics BENCHMARK.json lists: setup_s,
op_p50_norm_s, op_mean_norm_s and peak_rss_mb.  On a shared 2-core host the
speed of a core swings by up to 1.8x within seconds and from minute to
minute, so raw wall times spread from run to run by more than a useful bound
(the quartile spread over ten seeds of op_p50_s reached 0.10 to 0.18 and of
op_min_s 0.18 to 0.28, depending on the workload).  A fixed reference kernel
per workload (reference.py), timed on the same core in a process of its own
around every op and set-up, gauges the speed of the moment; an op's time
divided by the kernel's, times the kernel's nominal time, is the op's time
at nominal speed.  In the same runs op_p50_norm_s spread by 0.02 to 0.06 and
op_mean_norm_s by 0.02 to 0.07.  The raw median, minimum and rate are
printed beside them.  fail_ratio is 0 when all is well and travels in the
last line as ``failed`` / ``attempted``.

With ``--trace 1`` untraced and traced ops alternate (see spans.py for how the
layer calls are traced from outside), followed by a tracemalloc pass of one
op, and the last line carries the per-layer metrics: stage self times
(medians over traced ops; 0 for a stage the workload does not run), peaks,
accuracy against the oracle, trace coverage and overhead.

Inputs come from gen.py in a separate process, so the workload process
receives only edge-list files.  Every op's output is checked (checks.py) and
the first op of the untraced phase is compared with an independent oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
from reference import ReferenceProcess, normalised

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"

#: Every parameter of every workload, pinned here rather than taken from
#: library defaults.  floor_op_s sizes the pre-generated input set: the run
#: holds ceil(seconds / floor_op_s) fresh inputs per timed phase, five times
#: what today's op time needs; a phase that runs out of them ends early.
#: ``reference`` is the workload's reference kernel (reference.py); its
#: nominal_s is about the kernel's median time on one core of a 2-vCPU cloud
#: host (Intel Xeon, OpenBLAS with one thread).
WORKLOADS = {
    "energy_large": {"kind": "cli", "what": "energy", "format": "json",
                     "n": 2000, "edge_factor": 10.0, "floor_op_s": 0.4,
                     "reference": {"lapack_n": [1000], "rows": 0, "nominal_s": 0.22}},
    "matrix_export": {"kind": "cli", "what": "rl", "format": "csv",
                      "n": 1000, "edge_factor": 10.0, "floor_op_s": 0.25,
                      "reference": {"lapack_n": [700], "rows": 300, "nominal_s": 0.15}},
    "verify_suite": {"kind": "verify", "verify": {
        "scope": "all", "max_n": 12, "count": 200, "tree_count": 100,
        "max_tree_n": 15, "pair_count": 200, "max_pq": 8, "tol": 1e-9},
        "reference": {"lapack_n": [700], "rows": 300, "nominal_s": 0.15}},
}

SETUP_TRIALS = 3
#: Budget of one workload's run; a child process still running then is killed.
DEADLINE_S = 170.0

STAGE_METRICS = {
    "graph.parse": "graph.parse_s",
    "graph.bfs": "graph.bfs_s",
    "graph.laplacian": "graph.laplacian_s",
    "resistance.pinv": "resistance.pinv_s",
    "resistance.matrix": "resistance.matrix_self_s",
    "resistance.bundle": "resistance.bundle_self_s",
    "spectral.eig_rl": "spectral.eig_rl_s",
    "spectral.eig_r": "spectral.eig_r_s",
    "spectral.quotient": "spectral.quotient_s",
    "closed_forms.family": "closed_forms.family_s",
    "energy": "energy.self_s",
    "serialize.out": "serialize.out_s",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def ops_per_second(completed: int, seconds: float) -> float:
    return completed / seconds if seconds > 0 else 0.0


def blas_threads() -> int:
    """The BLAS thread cap of the workload process: the cores it may use."""
    return len(os.sched_getaffinity(0))


def pin_to_one_core() -> None:
    """Bind this process, and so every process it starts, to one core.

    The workload process and the reference kernel then run on the same
    core, so the kernel gauges the speed the op saw, and the other cores'
    neighbours cannot stall a BLAS call that waits on its slowest thread.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "pinned_core": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Runner:
    """One benchmark run of one workload: spawns the generator and workload
    processes, checks their outputs and reduces them to metrics."""

    def __init__(self, name: str, spec: dict, seed: int, seconds: float, trace: bool,
                 deadline: float) -> None:
        self.name, self.spec, self.seed = name, spec, seed
        self.seconds, self.trace, self.deadline = seconds, trace, deadline
        self.run_dir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads())

    def _child(self, args: list[str]) -> float:
        """Run a python child to completion; return its wall time."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("out of time before starting a child process")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], env=self.env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{args[0]} ran past the deadline") from exc
        if proc.returncode != 0:
            raise BenchmarkError(f"{' '.join(args)} exited with {proc.returncode}")
        return time.perf_counter() - start

    def _input_count(self) -> int:
        # A warm-up input, one per timed op, and in trace mode one more for
        # the tracemalloc pass (the timed phase then takes 0.8 of the seconds).
        if self.trace:
            return 2 + math.ceil(0.8 * self.seconds / self.spec["floor_op_s"])
        return 1 + math.ceil(self.seconds / self.spec["floor_op_s"])

    def _trial(self, stream: int, mode: str) -> tuple[float, dict]:
        """Generate inputs, then run a workload process; return its raw set-up
        time (generation + import + warm-up op) and its result."""
        trial_dir = self.run_dir / f"trial{stream}"
        trial_dir.mkdir(parents=True)
        cfg = {"workload": self.name, "kind": self.spec["kind"], "mode": mode,
               "src": str(ROOT / "src"), "seconds": self.seconds, "seed": self.seed,
               "reference": self.spec["reference"],
               "result": str(trial_dir / "result.json"),
               "spans": str(trial_dir / "spans.json")}
        gen_s = 0.0
        if self.spec["kind"] == "cli":
            n = self.spec["n"]
            gen_s = self._child([str(BENCH_DIR / "gen.py"), "--n", str(n),
                                 "--p", repr(self.spec["edge_factor"] / n),
                                 "--seed", str(self.seed), "--stream", str(stream),
                                 "--count", str(self._input_count()),
                                 "--out-dir", str(trial_dir / "inputs")])
            cfg["inputs"] = json.loads((trial_dir / "inputs" / "manifest.json").read_text())
            cfg.update(what=self.spec["what"], format=self.spec["format"],
                       out_dir=str(trial_dir))
        else:
            cfg["verify"] = self.spec["verify"]
        (trial_dir / "config.json").write_text(json.dumps(cfg))
        self._child([str(BENCH_DIR / "worker.py"), str(trial_dir / "config.json")])
        result = json.loads((trial_dir / "result.json").read_text())
        return gen_s + result["import_s"] + result["warmup_s"], result

    def _normalised_setups(self) -> tuple[list[float], list[float], dict]:
        """Set up SETUP_TRIALS times, the last time with the timed phase; each
        set-up is scaled by the reference kernel timed right before it (here)
        and right after its warm-up op (in the workload process)."""
        setups, raw_setups = [], []
        kernel = self.spec["reference"]
        with ReferenceProcess(kernel, self.env) as reference:
            for t in range(SETUP_TRIALS):
                before = reference.time()
                setup_s, result = self._trial(t, "measure" if t == SETUP_TRIALS - 1 else "setup")
                raw_setups.append(setup_s)
                setups.append(normalised(setup_s, (before + result["ref_after_setup_s"]) / 2,
                                         kernel))
        return setups, raw_setups, result

    def _problems(self, rec: dict) -> list[str]:
        if rec.get("rc") != 0:
            return [rec.get("error") or f"exit code {rec.get('rc')}"]
        if self.spec["kind"] == "verify":
            return [f"verify check {c['name']} failed" for c in rec["checks"]
                    if c["status"] == "fail"]
        try:
            if self.spec["what"] == "energy":
                with open(rec["out"], encoding="ascii") as fh:
                    return checks.check_energy_report(json.load(fh), rec["n"])
            return checks.check_resistance_laplacian(checks.read_csv_matrix(rec["out"]), rec["n"])
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _oracle(self, rec: dict) -> tuple[list[str], dict]:
        """Compare one op's output with the independent oracle."""
        n, u, v = checks.read_edge_list(rec["input"])
        r, kappa = checks.oracle_resistance(n, u, v)
        if self.spec["what"] == "energy":
            with open(rec["out"], encoding="ascii") as fh:
                doc = json.load(fh)
            return checks.compare_energy(doc, checks.oracle_energy(r), n, kappa)
        problems, err = checks.compare_resistance_laplacian(
            checks.read_csv_matrix(rec["out"]), r, kappa)
        return problems, {"rl_rel_err": err}

    def _check_all(self, records: list[dict], report: dict) -> list[list[str]]:
        """Problems of every op, the first one also against the oracle; record
        the bytes each op wrote."""
        found = [self._problems(rec) for rec in records]
        for rec in records:
            if self.spec["kind"] == "cli" and os.path.isfile(rec["out"]):
                rec["bytes_written"] = os.path.getsize(rec["out"])
        if self.spec["kind"] == "cli" and records and not found[0]:
            try:
                problems, report["oracle"] = self._oracle(records[0])
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"oracle could not run: {exc!r}"]
            found[0] += [f"against the oracle: {p}" for p in problems]
        return found

    def run(self) -> dict:
        load_start = os.getloadavg()
        self.run_dir.mkdir(parents=True, exist_ok=True)
        report = {"workload": self.name, "seed": self.seed, "seconds": self.seconds,
                  "trace": self.trace, "params": self.spec}
        try:
            # Set up several times; the last process also runs the timed phase.
            if self.trace:
                setup_s, result = self._trial(0, "trace")
                setups = raw_setups = [setup_s]
            else:
                setups, raw_setups, result = self._normalised_setups()
            records = result["ops"] + result.get("traced_ops", [])
            if "memory_op" in result:
                records.append(result["memory_op"])
            found = self._check_all(records, report)
            problems = [f"warm-up op: {p}" for p in self._problems(result["warmup"])]
            problems += [f"op {rec['i']}: {p}" for rec, ps in zip(records, found) for p in ps]
            failed = sum(bool(ps) for ps in found)
            if self.trace:
                spans_file = self.run_dir / "trial0" / "spans.json"
                shutil.copyfile(spans_file, WORK_DIR / f"{self.name}.spans.json")
                span_list = json.loads(spans_file.read_text())
                report["per_layer"] = self._per_layer(result, report, span_list)
            else:
                report["end_to_end"] = self._end_to_end(result, setups, failed)
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        report.update(setup_trials_s=setups, setup_raw_s=raw_setups,
                      attempted=len(records), failed=failed,
                      problems=problems,
                      environment=dict(environment(), load_start=load_start,
                                       load_end=os.getloadavg()),
                      ops=[{k: v for k, v in rec.items() if k != "checks"} for rec in records])
        (WORK_DIR / f"{self.name}.result.json").write_text(json.dumps(report, indent=1))
        return report

    def _end_to_end(self, result: dict, setups, failed: int) -> dict:
        walls = [rec["wall_s"] for rec in result["ops"]]
        if not walls:
            raise BenchmarkError("the timed phase completed no op")
        kernel = self.spec["reference"]
        return {
            "setup_s": statistics.median(setups),
            "op_p50_norm_s": statistics.median(
                normalised(rec["wall_s"], rec["ref_s"], kernel) for rec in result["ops"]),
            "op_mean_norm_s": normalised(
                statistics.fmean(walls), statistics.fmean(rec["ref_s"] for rec in result["ops"]),
                kernel),
            "op_p50_s": statistics.median(walls),
            "op_min_s": min(walls),
            "ops_per_s": ops_per_second(len(walls) - failed,
                                        result["phase_s"] - result["ref_phase_s"]),
            "fail_ratio": failed / len(walls),
            "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
        }

    def _per_layer(self, result: dict, report: dict, span_list: list) -> dict:
        untraced = [rec["wall_s"] for rec in result["ops"]]
        if not untraced or not result["traced_ops"]:
            raise BenchmarkError("a phase of the traced run completed no op")
        op_p50 = statistics.median(untraced)
        root = "cli" if self.spec["kind"] == "cli" else "verify"
        per_op = spans.stage_self_by_op(span_list, {root})
        stages = spans.stage_medians(per_op, STAGE_METRICS)
        covered = sum(stages.values())
        metrics = {STAGE_METRICS[name]: value for name, value in stages.items()}
        # The entry layer's own time is the root span's self time, measured
        # directly: the difference of the untraced and summed-stage medians
        # is swamped by run-to-run noise on energy_large.
        metrics[f"{root}.self_s"] = spans.stage_medians(per_op, [root])[root]
        metrics["trace.coverage"] = covered / op_p50
        metrics["trace.overhead_ratio"] = statistics.median(
            stages_of_op[root + ".wall"] for stages_of_op in per_op.values()) / op_p50
        metrics["resistance.peak_mb"] = result["peaks"].get("resistance", 0) / 1e6
        metrics["spectral.peak_mb"] = result["peaks"].get("spectral", 0) / 1e6
        metrics["resistance.penrose_rel_residual"] = result.get("penrose_rel_residual", 0.0)
        oracle = report.get("oracle", {})
        metrics["energy.le_r_rel_err"] = oracle.get("le_r_rel_err", 0.0)
        metrics["energy.e_r_rel_err"] = oracle.get("e_r_rel_err", 0.0)
        if self.spec["kind"] == "cli":
            sizes = [rec["bytes_written"] for rec in result["ops"] if "bytes_written" in rec]
            metrics["serialize.out_mb"] = statistics.median(sizes) / 1e6 if sizes else 0.0
        else:
            outcomes = [c for rec in result["ops"] if rec.get("rc") == 0 for c in rec["checks"]]
            for name in dict.fromkeys(c["name"] for c in outcomes):
                metrics[f"verify.{name}_ms"] = statistics.median(
                    c["elapsed_ms"] for c in outcomes if c["name"] == name)
            metrics["verify.checks_failed"] = sum(c["status"] == "fail" for c in outcomes)
            metrics["verify.checks_skipped"] = sum(c["status"] == "skip" for c in outcomes)
        return metrics


def work_summary(report: dict) -> str:
    ops = [rec for rec in report["ops"] if rec.get("rc") == 0]
    if not ops:
        return "work: no op completed"
    if "n" in ops[0]:
        ms = [rec["m"] for rec in ops]
        size = statistics.median(rec.get("bytes_written", 0) for rec in ops)
        return (f"work: n={ops[0]['n']}, m={min(ms)}..{max(ms)}, "
                f"median output {size / 1e6:.3f} MB per op")
    params = report["params"]["verify"]
    random_graphs = params["count"] + 2 * params["pair_count"] + params["tree_count"]
    return (f"work: {random_graphs} random graphs per op "
            f"(corpus {params['count']}, {params['pair_count']} edge-addition pairs, "
            f"{params['tree_count']} trees), seeds {ops[0]['seed']}..{ops[-1]['seed']}")


#: Units of the end-to-end figures printed for every untraced run; the last
#: line carries only those BENCHMARK.json lists (see the module docstring).
E2E_UNITS = {"setup_s": "s", "op_p50_norm_s": "s", "op_mean_norm_s": "s", "op_p50_s": "s",
             "op_min_s": "s", "ops_per_s": "1/s", "fail_ratio": "ratio", "peak_rss_mb": "MB"}


def summarise(report: dict, specs: list[dict]) -> tuple[list[str], dict]:
    """Human-readable lines and the metrics object of one workload's report."""
    values = report.get("per_layer") or report["end_to_end"]
    lines = [f"{report['workload']}  seed={report['seed']}  seconds={report['seconds']:g}  "
             f"trace={int(report['trace'])}"]
    n_ops, failed = len(report["ops"]), report["failed"]
    notes = {"setup_s": f"median of {len(report['setup_trials_s'])} set-ups, normalised",
             "op_p50_norm_s": f"median of {n_ops} ops, normalised",
             "op_mean_norm_s": f"mean of {n_ops} ops over mean of {n_ops} kernel brackets",
             "op_min_s": f"fastest of {n_ops} ops",
             "op_p50_s": f"median of {n_ops} ops",
             "ops_per_s": f"{n_ops - failed} ops completed in the timed phase",
             "fail_ratio": f"{failed} of {n_ops} ops failed"}
    units = {spec["name"]: spec["unit"] for spec in specs}
    shown = units if report["trace"] else E2E_UNITS
    for name, unit in shown.items():
        lines.append(f"  {name:<40} {values.get(name, 0.0):>14.6g} {unit:<6} "
                     f"{'' if report['trace'] else notes.get(name, '')}")
    lines.append("  " + work_summary(report))
    if "oracle" in report:
        lines.append("  oracle: " + ", ".join(f"{k}={v:.3g}" for k, v in report["oracle"].items()))
    lines.append("  env: " + ", ".join(f"{k}={v}" for k, v in report["environment"].items()))
    lines += [f"  FAILED {p}" for p in report["problems"][:20]]
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    return lines, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="resq benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_to_one_core()
    if not (ROOT / "src" / "resq" / "__init__.py").is_file():
        print(f"error: no resq source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = doc["per_layer"] if args.trace else doc["end_to_end"]
    seconds = args.seconds if args.seconds is not None else doc["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            report = Runner(name, WORKLOADS[name], args.seed, seconds, bool(args.trace),
                            time.monotonic() + DEADLINE_S).run()
            lines, metrics = summarise(report, specs)
            print("\n".join(lines), flush=True)
            total["correct"] &= not report["problems"]
            total["attempted"] += report["attempted"]
            total["failed"] += report["failed"]
            prefix = "" if len(names) == 1 else name + "."
            total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
