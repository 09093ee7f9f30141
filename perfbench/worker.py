"""The workload process: imports resq, warms up, then runs ops in a closed loop.

One client in one process: the next op starts when the previous one ends,
and each op gets an input this process has not seen before.  The process
reads one JSON config (written by run.py) and writes one JSON result; the
checks on the outputs run later, in run.py, so that they add nothing to
this process's peak RSS.

Modes:
  setup    import resq and run the warm-up op only
  measure  set up, then the untraced timed phase, with the reference kernel
           (reference.py) timed right before and after every op

In every mode but trace, the reference kernel is also timed right after the
warm-up op, to scale the set-up time.
  trace    set up, then a timed phase in which untraced and traced ops
           (spans around every layer call) alternate, then a tracemalloc
           pass of one op
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
import traceback
import tracemalloc

import spans
from reference import ReferenceProcess


class CliOps:
    """``resq compute INPUT --what W --format F --out OUT`` through ``resq.cli.main``."""

    root = "cli"

    def __init__(self, cfg: dict) -> None:
        from resq import cli

        self._main = cli.main
        self.inputs = cfg["inputs"]
        self.what, self.fmt = cfg["what"], cfg["format"]
        self.out_dir = cfg["out_dir"]

    def indices(self):
        return iter(range(1, len(self.inputs)))

    def run(self, i: int) -> dict:
        item = self.inputs[i]
        out = os.path.join(self.out_dir, f"out{i:04d}.{self.fmt}")
        rec = {"i": i, "input": item["path"], "out": out, "n": item["n"], "m": item["m"]}
        argv = ["compute", item["path"], "--what", self.what, "--format", self.fmt, "--out", out]
        try:
            rec["rc"] = self._main(argv)
        except SystemExit as exc:
            rec["rc"] = exc.code
        except Exception:
            rec["rc"], rec["error"] = None, traceback.format_exc(limit=4)
        return rec


class VerifyOps:
    """``run_verify`` with every parameter pinned; op i uses seed + i."""

    root = "verify"

    def __init__(self, cfg: dict) -> None:
        from resq import verify

        self._verify = verify
        self.params, self.seed = cfg["verify"], cfg["seed"]

    def indices(self):
        return itertools.count(1)

    def run(self, i: int) -> dict:
        rec = {"i": i, "seed": self.seed + i}
        try:
            outcomes = self._verify.run_verify(seed=self.seed + i, **self.params)
        except Exception:
            rec["rc"], rec["error"] = None, traceback.format_exc(limit=4)
            return rec
        rec["rc"] = 0
        rec["checks"] = [
            {"name": o.name, "status": o.status, "elapsed_ms": o.elapsed_ms, "measured": o.measured}
            for o in outcomes
        ]
        return rec


def timed(ops, i: int) -> dict:
    t0 = time.perf_counter()
    rec = ops.run(i)
    rec["wall_s"] = time.perf_counter() - t0
    return rec


def closed_loop(run_one, indices, seconds: float, limit=None) -> tuple[list, float]:
    """Run ops back to back until ``seconds`` pass or the inputs run out."""
    records = []
    start = time.perf_counter()
    for i in itertools.islice(indices, limit):
        if time.perf_counter() - start >= seconds:
            break
        records.append(run_one(i))
    return records, time.perf_counter() - start


def penrose_residual(path: str) -> float:
    """max |L X L - L| / max |L| for X = resq's pseudoinverse of the graph's L."""
    import numpy as np
    from resq import graph, resistance

    with open(path, encoding="ascii") as fh:
        lap = graph.laplacian(graph.parse_edge_list(fh.read()))
    x = resistance.laplacian_pseudoinverse(lap)
    return float(np.abs(lap @ x @ lap - lap).max() / np.abs(lap).max())


def peak_rss_kb() -> int:
    """Peak RSS of this process's own address space (VmHWM).

    ru_maxrss would do, but Linux carries it over from the parent across
    fork and exec, so it reads at least run.py's own peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def run(cfg: dict) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, cfg["src"])
    import resq

    where = os.path.realpath(resq.__file__)
    if not where.startswith(os.path.realpath(cfg["src"]) + os.sep):
        raise RuntimeError(f"resq was imported from {where}, not from {cfg['src']}")
    ops = CliOps(cfg) if cfg["kind"] == "cli" else VerifyOps(cfg)
    import_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    warmup = ops.run(0)
    result = {"import_s": import_s, "warmup_s": time.perf_counter() - t1, "warmup": warmup}
    indices = ops.indices()
    seconds = cfg["seconds"]
    if cfg["mode"] != "trace":
        with ReferenceProcess(cfg["reference"]) as reference:
            refs = [reference.time()]
            result["ref_after_setup_s"] = refs[0]
            if cfg["mode"] == "setup":
                return result

            def bracketed(i: int) -> dict:
                rec = timed(ops, i)
                refs.append(reference.time())
                rec["ref_s"] = (refs[-2] + refs[-1]) / 2
                return rec

            result["ops"], result["phase_s"] = closed_loop(bracketed, indices, seconds)
        result["ref_phase_s"] = sum(refs[1:])
        result["peak_rss_kb"] = peak_rss_kb()
        return result

    # Trace mode: untraced (odd i) and traced (even i) ops alternate, so that
    # both sample the same stretch of the run; one input is kept back for the
    # tracemalloc pass.
    recorder = spans.Recorder()

    def alternate(i: int) -> dict:
        if i % 2:
            return timed(ops, i)
        recorder.op = i
        with spans.patched(recorder.wrap), recorder.span(ops.root):
            return timed(ops, i)

    limit = None if cfg["kind"] == "verify" else len(cfg["inputs"]) - 2
    records, _ = closed_loop(alternate, indices, seconds * 0.8, limit)
    result["ops"] = [rec for rec in records if rec["i"] % 2]
    result["traced_ops"] = [rec for rec in records if not rec["i"] % 2]
    peaks = spans.PeakRecorder()
    tracemalloc.start()
    try:
        with spans.patched(peaks.wrap):
            result["memory_op"] = ops.run(next(indices))
    finally:
        tracemalloc.stop()
    result["peaks"] = peaks.peaks
    if cfg["kind"] == "cli" and result["traced_ops"]:
        result["penrose_rel_residual"] = penrose_residual(result["traced_ops"][0]["input"])
    with open(cfg["spans"], "w", encoding="ascii") as fh:
        json.dump(recorder.spans, fh)
    return result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(argv[0], encoding="ascii") as fh:
        cfg = json.load(fh)
    result = run(cfg)
    with open(cfg["result"], "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
