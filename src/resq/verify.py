"""Batch verification of structural, spectral and energy properties.

Every check returns a VerifyOutcome instead of raising; failures carry the
violating graph serialized inline so they can be replayed. The family
checks compare the closed forms against the numeric pipeline; the random
checks exercise the order-independent properties (positive
semidefiniteness, monotonicity under edge addition, metric axioms, energy
identities and bounds) on seeded corpora.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import closed_forms as cf
from . import energy as energy_mod
from . import graph as graph_mod
from . import resistance
from . import spectral
from .graph import FamilySpec, Graph, format_edge_list

DEFAULT_TOL = 1e-9
SPECTRUM_TOL = 1e-8
CONTAINMENT_TOL = 1e-7
ENERGY_EQUALITY_TOL = 1e-8
ETA_SUM_TOL = 1e-8  # scaled by n
ETA_SQUARE_RTOL = 1e-7


@dataclass
class VerifyOutcome:
    """Result of one verification check."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    measured: float | None
    tolerance: float | None
    elapsed_ms: float
    detail: str = ""
    failing_graph: str | None = None

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "elapsed_ms": self.elapsed_ms,
            "detail": self.detail,
            "failing_graph": self.failing_graph,
        }


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed_ms = (time.perf_counter() - self.start) * 1000.0


def _outcome(name, timer, ok, measured, tol, detail="", failing=None) -> VerifyOutcome:
    # The checks start their worst case at -inf, so it is still -inf only
    # when the check examined no instance: that is a skip, not a pass.
    examined = measured != -math.inf
    return VerifyOutcome(
        name=name,
        status=("pass" if ok else "fail") if examined else "skip",
        measured=float(measured) if examined else None,
        tolerance=float(tol),
        elapsed_ms=timer.elapsed_ms,
        detail=detail if examined else "no instance examined",
        failing_graph=failing,
    )


def family_specs(max_n: int) -> list[FamilySpec]:
    """Complete, cycle and bipartite instances of order at most max_n."""
    specs = [FamilySpec.complete(n) for n in range(2, max_n + 1)]
    specs += [FamilySpec.cycle(n) for n in range(3, max_n + 1)]
    specs += [
        FamilySpec.bipartite(p, q)
        for p in range(1, max_n)
        for q in range(p, max_n)
        if p + q <= max_n
    ]
    return specs


def _check_closed_form_matrices(specs, tol) -> VerifyOutcome:
    worst, worst_graph, worst_label = -math.inf, None, ""
    with _Timer() as t:
        for spec in specs:
            g = graph_mod.generate(spec)
            closed = cf.closed_form(spec)
            rl_num = resistance.resistance_laplacian(g)
            rq_num = resistance.resistance_signless_laplacian(g)
            err = max(
                float(np.abs(closed.rl_matrix - rl_num).max()),
                float(np.abs(closed.rq_matrix - rq_num).max()),
            )
            if err > worst:
                worst, worst_graph, worst_label = err, g, spec.label()
    ok = worst <= tol
    detail = "" if ok else f"worst instance {worst_label}"
    failing = None if ok else format_edge_list(worst_graph)
    return _outcome("closed_form_matrices", t, ok, worst, tol, detail, failing)


def _check_closed_form_spectra(specs) -> VerifyOutcome:
    worst, worst_graph, worst_label = -math.inf, None, ""
    with _Timer() as t:
        for spec in specs:
            g = graph_mod.generate(spec)
            closed = cf.closed_form(spec)
            rl_vals = spectral.eigenvalues_symmetric(resistance.resistance_laplacian(g)).values
            rq_vals = spectral.eigenvalues_symmetric(
                resistance.resistance_signless_laplacian(g)
            ).values
            err = max(
                float(np.abs(closed.rl_spectrum.values - rl_vals).max()),
                float(np.abs(closed.rq_spectrum.values - rq_vals).max()),
            )
            if err > worst:
                worst, worst_graph, worst_label = err, g, spec.label()
    ok = worst <= SPECTRUM_TOL
    detail = "" if ok else f"worst instance {worst_label}"
    failing = None if ok else format_edge_list(worst_graph)
    return _outcome("closed_form_spectra", t, ok, worst, SPECTRUM_TOL, detail, failing)


def _check_complete_energy(max_n, tol) -> VerifyOutcome:
    worst, worst_graph = -math.inf, None
    with _Timer() as t:
        for n in range(2, max_n + 1):
            g = graph_mod.generate(FamilySpec.complete(n))
            report = energy_mod.resistance_laplacian_energy(g)
            err = abs(report.le_r - 4.0 * (1.0 - 1.0 / n))
            if err > worst:
                worst, worst_graph = err, g
    ok = worst <= tol
    failing = None if ok else format_edge_list(worst_graph)
    return _outcome("complete_energy_formula", t, ok, worst, tol, "", failing)


def _check_transmission_regular_energy(max_n) -> VerifyOutcome:
    specs = [FamilySpec.complete(n) for n in range(2, max_n + 1)]
    specs += [FamilySpec.cycle(n) for n in range(3, max_n + 1)]
    specs += [FamilySpec.bipartite(p, p) for p in range(1, max_n // 2 + 1)]
    worst, worst_graph, worst_label = -math.inf, None, ""
    with _Timer() as t:
        for spec in specs:
            g = graph_mod.generate(spec)
            report = energy_mod.resistance_laplacian_energy(g)
            err = abs(report.le_r - report.e_r)
            if err > worst:
                worst, worst_graph, worst_label = err, g, spec.label()
    ok = worst <= ENERGY_EQUALITY_TOL
    detail = "" if ok else f"worst instance {worst_label}"
    failing = None if ok else format_edge_list(worst_graph)
    return _outcome(
        "transmission_regular_energy", t, ok, worst, ENERGY_EQUALITY_TOL, detail, failing
    )


def _real_eigenvalues(m: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvals(m)
    return np.sort(w.real)[::-1]


def _containment_error(parent: np.ndarray, candidates: np.ndarray) -> float:
    return max(float(np.abs(parent - c).min()) for c in candidates)


def _check_quotient_containment(max_pq) -> VerifyOutcome:
    worst, worst_graph, worst_label = -math.inf, None, ""
    with _Timer() as t:
        for p in range(1, max_pq + 1):
            for q in range(p, max_pq + 1):
                g = graph_mod.generate(FamilySpec.bipartite(p, q))
                partition = spectral.Partition.from_sizes(p, q)
                matrices = (
                    graph_mod.laplacian(g),
                    resistance.resistance_laplacian(g),
                    resistance.resistance_signless_laplacian(g),
                )
                for m in matrices:
                    quotient, equitable = spectral.quotient_matrix(m, partition)
                    parent = spectral.eigenvalues_symmetric(m).values
                    err = _containment_error(parent, _real_eigenvalues(quotient))
                    if not equitable:
                        err = math.inf
                    if err > worst:
                        worst, worst_graph = err, g
                        worst_label = f"K_{{{p},{q}}}"
    ok = worst <= CONTAINMENT_TOL
    detail = "" if ok else f"worst instance {worst_label}"
    failing = None if ok else format_edge_list(worst_graph)
    return _outcome("quotient_containment", t, ok, worst, CONTAINMENT_TOL, detail, failing)


def rq_quotient_report(max_pq: int = 8) -> list[dict]:
    """Compare both closed-form routes to the two non-repeated R^Q(K_{p,q})
    eigenvalues against the numeric spectrum.

    The block row-sum quotient route must match to 1e-8. The legacy +/-
    radical formula is evaluated alongside; it is expected not to match in
    general (already at p = q = 2) and its disagreement is reported, not
    treated as a failure.
    """
    rows = []
    for p in range(1, max_pq + 1):
        for q in range(p, max_pq + 1):
            g = graph_mod.generate(FamilySpec.bipartite(p, q))
            numeric = spectral.eigenvalues_symmetric(
                resistance.resistance_signless_laplacian(g)
            ).values
            quotient_pair = cf.bipartite_rq_quotient_eigenvalues(p, q)
            quotient_err = _containment_error(numeric, np.array(quotient_pair))
            pm_pair = cf.bipartite_rq_pm_formula(p, q)
            if any(math.isnan(v) for v in pm_pair):
                pm_err = math.inf
            else:
                pm_err = _containment_error(numeric, np.array(pm_pair))
            rows.append(
                {
                    "p": p,
                    "q": q,
                    "quotient": [float(v) for v in quotient_pair],
                    "quotient_err": float(quotient_err),
                    "pm": [float(v) for v in pm_pair],
                    "pm_err": float(pm_err),
                    "pm_matches": bool(pm_err <= SPECTRUM_TOL),
                }
            )
    return rows


def _check_rq_quotient_vs_pm(max_pq) -> VerifyOutcome:
    with _Timer() as t:
        rows = rq_quotient_report(max_pq)
        worst = max(row["quotient_err"] for row in rows)
        lines = []
        for row in rows:
            pm_note = (
                "matches"
                if row["pm_matches"]
                else f"MISMATCH (err={row['pm_err']:.3g}; expected, reported only)"
            )
            lines.append(
                "K_{%d,%d}: quotient=(%.12g, %.12g) err=%.3g; pm=(%.12g, %.12g) %s"
                % (
                    row["p"],
                    row["q"],
                    row["quotient"][0],
                    row["quotient"][1],
                    row["quotient_err"],
                    row["pm"][0],
                    row["pm"][1],
                    pm_note,
                )
            )
    ok = worst <= SPECTRUM_TOL
    return _outcome(
        "rq_bipartite_quotient_report", t, ok, worst, SPECTRUM_TOL, "\n".join(lines)
    )


@dataclass
class _Prepared:
    graph: Graph
    bundle: resistance.ResistanceBundle
    rl_spectrum: spectral.Spectrum
    dist: np.ndarray
    report: energy_mod.EnergyReport


def _random_graphs(count, max_n, seed, min_n=2) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        p = rng.uniform(0.2, 0.9)
        out.append(graph_mod.random_connected_graph(n, p, rng.randrange(2**31)))
    return out


def _prepare(g: Graph) -> _Prepared:
    bundle = resistance.resistance_bundle(g)
    rl_spectrum = spectral.eigenvalues_symmetric(bundle.rl)
    return _Prepared(
        graph=g,
        bundle=bundle,
        rl_spectrum=rl_spectrum,
        dist=graph_mod.classical_distance_matrix(g),
        report=energy_mod._energy_report(g.n, bundle, rl_spectrum, DEFAULT_TOL),
    )


def _worst_over(prepared, measure):
    worst, worst_graph = -math.inf, None
    for item in prepared:
        value = measure(item)
        if value > worst:
            worst, worst_graph = value, item.graph
    return worst, worst_graph


def _corpus_check(name, prepared, measure, tol) -> VerifyOutcome:
    with _Timer() as t:
        worst, worst_graph = _worst_over(prepared, measure)
    ok = worst <= tol
    failing = None if ok else format_edge_list(worst_graph)
    return _outcome(name, t, ok, worst, tol, "", failing)


def _psd_measure(item: _Prepared) -> float:
    values = item.rl_spectrum.values
    norm = max(float(np.abs(values).max()), 1e-300)
    return float(-values.min()) / norm


def _row_sum_measure(item: _Prepared) -> float:
    values = item.rl_spectrum.values
    norm = max(float(np.abs(values).max()), 1e-300)
    return float(np.abs(item.bundle.rl.sum(axis=1)).max()) / norm


def _radius_measure(item: _Prepared) -> float:
    return 2.0 - float(item.rl_spectrum.values[0])


def _resistance_distance_measure(item: _Prepared) -> float:
    return float((item.bundle.r - item.dist).max())


def _triangle_measure(item: _Prepared) -> float:
    r = item.bundle.r
    sums = r[:, :, None] + r[None, :, :]  # sums[i, k, j] = r[i,k] + r[k,j]
    return float((r - sums.min(axis=1)).max())


def _trace_measure(item: _Prepared) -> float:
    total = float(item.bundle.rtr.sum())
    return abs(float(np.trace(item.bundle.rl)) - total) / max(1.0, total)


def _eta_sum_measure(item: _Prepared) -> float:
    return abs(float(item.report.eta.sum())) / item.graph.n


def _eta_square_measure(item: _Prepared) -> float:
    two_f = 2.0 * item.report.F
    return abs(float((item.report.eta**2).sum()) - two_f) / max(two_f, 1e-300)


def _bounds_measure(item: _Prepared) -> float:
    return max(-b.slack for b in item.report.bounds.values())


def _check_edge_monotonicity(pair_count, max_n, seed, tol) -> VerifyOutcome:
    rng = random.Random(seed)
    worst, worst_graph = -math.inf, None
    with _Timer() as t:
        made = 0
        while made < pair_count:
            n = rng.randint(3, max(3, max_n))
            g = graph_mod.random_connected_graph(
                n, rng.uniform(0.2, 0.8), rng.randrange(2**31)
            )
            missing = graph_mod.non_edges(g)
            if not missing:
                continue
            made += 1
            u, v = missing[rng.randrange(len(missing))]
            bigger = graph_mod.add_edge(g, u, v)
            r_before = resistance.resistance_matrix(g)
            r_after = resistance.resistance_matrix(bigger)
            spec_before = spectral.eigenvalues_symmetric(
                np.diag(r_before.sum(axis=0)) - r_before
            ).values
            spec_after = spectral.eigenvalues_symmetric(
                np.diag(r_after.sum(axis=0)) - r_after
            ).values
            err = max(
                float((r_after - r_before).max()),
                float((spec_after - spec_before).max()),
            )
            if err > worst:
                worst, worst_graph = err, g
    ok = worst <= tol
    failing = None if ok else format_edge_list(worst_graph)
    return _outcome("edge_addition_monotonicity", t, ok, worst, tol, "", failing)


def _check_tree_distance(tree_count, max_tree_n, seed, tol) -> VerifyOutcome:
    rng = random.Random(seed)
    worst, worst_graph = -math.inf, None
    with _Timer() as t:
        for _ in range(tree_count):
            n = rng.randint(2, max_tree_n)
            tree = graph_mod.random_tree(n, rng.randrange(2**31))
            r = resistance.resistance_matrix(tree)
            d = graph_mod.classical_distance_matrix(tree)
            rl = np.diag(r.sum(axis=0)) - r
            dl = np.diag(d.sum(axis=0)) - d
            err = max(float(np.abs(r - d).max()), float(np.abs(rl - dl).max()))
            if err > worst:
                worst, worst_graph = err, tree
    ok = worst <= tol
    failing = None if ok else format_edge_list(worst_graph)
    return _outcome("tree_distance_equality", t, ok, worst, tol, "", failing)


def run_verify(
    scope: str = "all",
    seed: int = 0,
    max_n: int = 12,
    count: int = 200,
    tol: float = DEFAULT_TOL,
    tree_count: int = 100,
    max_tree_n: int = 15,
    pair_count: int = 200,
    max_pq: int = 8,
) -> list[VerifyOutcome]:
    """Run the verification suite and return one outcome per check.

    scope "families" runs the closed-form and quotient checks, "random"
    runs the seeded-corpus property checks, "all" runs both. Results are
    deterministic for a fixed seed.
    """
    if scope not in ("families", "random", "all"):
        raise ValueError(f"scope must be families, random or all, got {scope!r}")
    outcomes: list[VerifyOutcome] = []
    if scope in ("families", "all"):
        specs = family_specs(max_n)
        outcomes.append(_check_closed_form_matrices(specs, tol))
        outcomes.append(_check_closed_form_spectra(specs))
        outcomes.append(_check_complete_energy(max_n, tol))
        outcomes.append(_check_transmission_regular_energy(max_n))
        outcomes.append(_check_quotient_containment(max_pq))
        outcomes.append(_check_rq_quotient_vs_pm(max_pq))
    if scope in ("random", "all"):
        with _Timer() as prep_timer:
            prepared = [_prepare(g) for g in _random_graphs(count, max_n, seed)]
        outcomes.append(
            VerifyOutcome(
                name="random_corpus",
                status="pass" if prepared else "skip",
                measured=float(len(prepared)),
                tolerance=None,
                elapsed_ms=prep_timer.elapsed_ms,
                detail=f"{len(prepared)} connected graphs, 2 <= n <= {max_n}, seed {seed}",
            )
        )
        outcomes.append(_corpus_check("rl_positive_semidefinite", prepared, _psd_measure, tol))
        outcomes.append(_corpus_check("rl_zero_row_sums", prepared, _row_sum_measure, tol))
        outcomes.append(
            _corpus_check("rl_spectral_radius_at_least_2", prepared, _radius_measure, tol)
        )
        outcomes.append(
            _corpus_check(
                "resistance_below_distance", prepared, _resistance_distance_measure, tol
            )
        )
        outcomes.append(
            _corpus_check("resistance_triangle_inequality", prepared, _triangle_measure, tol)
        )
        outcomes.append(_corpus_check("rl_trace_identity", prepared, _trace_measure, tol))
        outcomes.append(_corpus_check("eta_sum_zero", prepared, _eta_sum_measure, ETA_SUM_TOL))
        outcomes.append(
            _corpus_check("eta_square_sum_2F", prepared, _eta_square_measure, ETA_SQUARE_RTOL)
        )
        outcomes.append(_corpus_check("energy_bounds", prepared, _bounds_measure, tol))
        outcomes.append(_check_edge_monotonicity(pair_count, max_n, seed + 1, tol))
        outcomes.append(_check_tree_distance(tree_count, max_tree_n, seed + 2, tol))
    return outcomes
