"""Stage spans recorded around the calls into each resq layer.

The benchmark does not change the program to trace it.  ``patched`` swaps
each public layer function named in ``STAGES`` for a wrapper, in every resq
module namespace that holds it, so that calls made inside the program (for
example ``resistance_bundle`` calling ``resistance_matrix``) are seen too.
Spans live in memory as ``[name, start, end, parent, op]`` lists and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager


def eig_stage(m, *args, **kwargs) -> str:
    """R has a zero diagonal; R^L (and every other matrix solved) does not."""
    return "spectral.eig_r" if float(m[0][0]) == 0.0 else "spectral.eig_rl"


#: (module, function) -> stage name, or a callable naming the stage from the
#: call's arguments.
STAGES = {
    ("resq.graph", "parse_edge_list"): "graph.parse",
    ("resq.graph", "is_connected"): "graph.bfs",
    ("resq.graph", "laplacian"): "graph.laplacian",
    ("resq.resistance", "laplacian_pseudoinverse"): "resistance.pinv",
    ("resq.resistance", "resistance_matrix"): "resistance.matrix",
    # Deriving RTr, R^L and R^Q from R, whichever function the caller uses.
    ("resq.resistance", "resistance_bundle"): "resistance.bundle",
    ("resq.resistance", "resistance_laplacian"): "resistance.bundle",
    ("resq.resistance", "resistance_signless_laplacian"): "resistance.bundle",
    ("resq.spectral", "eigenvalues_symmetric"): eig_stage,
    ("resq.spectral", "quotient_matrix"): "spectral.quotient",
    ("resq.closed_forms", "closed_form"): "closed_forms.family",
    ("resq.energy", "resistance_laplacian_energy"): "energy",
    ("resq.serialize", "matrix_to_csv"): "serialize.out",
    ("resq.serialize", "matrix_to_json"): "serialize.out",
    ("resq.serialize", "energy_report_to_json"): "serialize.out",
    ("resq.serialize", "energy_report_to_csv"): "serialize.out",
    ("resq.serialize", "graph_hash"): "serialize.out",
    ("resq.serialize", "dumps"): "serialize.out",
}

#: Stages whose tracemalloc peak is recorded in the memory pass.
PEAK_STAGES = {"resistance.bundle": "resistance", "spectral.eig_rl": "spectral",
               "spectral.eig_r": "spectral"}


class Recorder:
    """Collects spans; ``op`` tags every span with the current op index."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def wrap(self, fn, stage):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(stage(*args, **kwargs) if callable(stage) else stage)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start)

        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end


class PeakRecorder:
    """Largest tracemalloc peak, in bytes, seen inside each group of stages.

    Stages it wraps must not nest inside one another, since each call resets
    the peak; ``PEAK_STAGES`` holds no such pair.
    """

    def __init__(self) -> None:
        self.peaks: dict[str, int] = {}

    def wrap(self, fn, stage):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = stage(*args, **kwargs) if callable(stage) else stage
            group = PEAK_STAGES.get(name)
            if group is None:
                return fn(*args, **kwargs)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[group] = max(self.peaks.get(group, 0), peak)

        return wrapper


@contextmanager
def patched(make_wrapper, stages=STAGES):
    """Replace every resq module global bound to a function in ``stages``
    with ``make_wrapper(fn, stage)``; restore all of them on exit.

    A function that a module no longer defines is skipped, and its stage
    then records nothing.
    """
    modules = [m for name, m in sys.modules.items() if name == "resq" or name.startswith("resq.")]
    wrappers: dict[int, tuple] = {}
    for (module_name, attr), stage in stages.items():
        fn = getattr(sys.modules.get(module_name), attr, None)
        if callable(fn):
            wrappers[id(fn)] = (fn, make_wrapper(fn, stage))
    saved = []
    try:
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((module, key, value))
                    setattr(module, key, hit[1])
        yield
    finally:
        for module, key, value in reversed(saved):
            setattr(module, key, value)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans of one process never overlap their siblings, so the children's
    durations add up to the part of the parent they cover.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def stage_self_by_op(spans, roots) -> dict[int, dict[str, float]]:
    """Per op: summed self time of every stage, and of each root under its name."""
    per_op: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        stages = per_op.setdefault(span[4], {})
        stages[span[0]] = stages.get(span[0], 0.0) + own
    for span in spans:
        if span[0] in roots and span[3] < 0:
            per_op[span[4]][span[0] + ".wall"] = span[2] - span[1]
    return per_op


def stage_medians(per_op: dict[int, dict[str, float]], names) -> dict[str, float]:
    """Median over ops of each stage's time; a stage absent from an op counts 0."""
    return {
        name: statistics.median(stages.get(name, 0.0) for stages in per_op.values())
        for name in names
    } if per_op else {name: 0.0 for name in names}
