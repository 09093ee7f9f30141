"""Batch verification of structural, spectral and energy properties.

Every check returns a VerifyOutcome instead of raising. All but the corpus
count go through one runner, _check, which judges the worst of the (value,
graph, label) triples a check yields: a failure carries the violating graph
serialized inline so it can be replayed, and a check that examined nothing
is a skip. The family checks compare the closed forms against the numeric
pipeline, computing each family instance once for all checks; the random
checks exercise the order-independent properties (positive
semidefiniteness, monotonicity under edge addition, metric axioms, energy
identities and bounds) on seeded corpora. The graphs of each order run as
one (k, n, n) stack: one stacked computation gives R, RTr, R^L and its
spectra, and every measure (distances, energy fields and bounds included)
is an array reduction over the stack, one value per graph in input order.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import asdict, dataclass

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
        return asdict(self)


def _check(name, tol, measured) -> VerifyOutcome:
    """Time measured(), an iterable of (value, graph, label) triples, and
    judge its worst value against tol. A failure names the worst graph and,
    when it has a label, the instance; no triple at all is a skip."""
    start = time.perf_counter()
    worst, worst_graph, worst_label = -math.inf, None, None
    for value, g, label in measured():
        if value > worst:
            worst, worst_graph, worst_label = value, g, label
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if worst == -math.inf:
        return VerifyOutcome(name, "skip", None, float(tol), elapsed_ms, "no instance examined")
    ok = worst <= tol
    detail = "" if ok or worst_label is None else f"worst instance {worst_label}"
    failing = None if ok or worst_graph is None else format_edge_list(worst_graph)
    status = "pass" if ok else "fail"
    return VerifyOutcome(name, status, float(worst), float(tol), elapsed_ms, detail, failing)


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


@dataclass
class _Family:
    spec: FamilySpec
    graph: Graph
    rl: np.ndarray
    rq: np.ndarray
    rl_values: np.ndarray  # descending
    rq_values: np.ndarray

    @functools.cached_property
    def energy(self) -> energy_mod.EnergyReport:
        # R^L = Diag(RTr) - R with a zero diagonal in R, so RTr and R are
        # read back from R^L exactly.
        rtr = np.diag(self.rl).copy()
        r = np.diag(rtr) - self.rl
        bundle = resistance.ResistanceBundle(r=r, rtr=rtr, rl=self.rl)
        e_r = 2.0 * energy_mod._perron_root(r)
        return energy_mod._energy_report(bundle, self.rl_values, e_r, DEFAULT_TOL)


class _Families(dict):
    """Each family spec's R^L, R^Q and their spectra, computed on first use
    and shared by the family checks. R^L and R^Q come from the public
    functions behind `resq compute --what rl|rq`, looked up at call time, so
    the checks verify what that command prints."""

    def __missing__(self, spec: FamilySpec) -> _Family:
        g = graph_mod.generate(spec)
        rl = resistance.resistance_laplacian(g)
        rq = resistance.resistance_signless_laplacian(g)
        values = spectral._descending_eigenvalues(np.stack([rl, rq]))
        self[spec] = family = _Family(spec, g, rl, rq, *values)
        return family


def _over_families(families, specs, measure):
    # Every instance is computed before any is measured: interleaving the
    # two made closed_form_matrices about 15% slower.
    for fam in [families[spec] for spec in specs]:
        yield measure(fam), fam.graph, fam.spec.label()


def _closed_matrix_error(fam: _Family) -> float:
    closed = cf.closed_form(fam.spec)
    return max(
        float(np.abs(closed.rl_matrix - fam.rl).max()),
        float(np.abs(closed.rq_matrix - fam.rq).max()),
    )


def _closed_spectrum_error(fam: _Family) -> float:
    closed = cf.closed_form(fam.spec)
    return max(
        float(np.abs(closed.rl_spectrum.values - fam.rl_values).max()),
        float(np.abs(closed.rq_spectrum.values - fam.rq_values).max()),
    )


def _complete_energy_error(fam: _Family) -> float:
    return abs(fam.energy.le_r - 4.0 * (1.0 - 1.0 / fam.graph.n))


def _energy_equality_error(fam: _Family) -> float:
    return abs(fam.energy.le_r - fam.energy.e_r)


def _containment_error(parent: np.ndarray, candidates: np.ndarray) -> float:
    return max(float(np.abs(parent - c).min()) for c in candidates)


def _quotient_containment_error(fam: _Family) -> float:
    """Worst containment of the (p, q) quotient spectrum in the spectra of
    L, R^L and R^Q of K_{p,q}; inf if a partition is not equitable."""
    partition = spectral.Partition.from_sizes(*fam.spec.params)
    lap = graph_mod.laplacian(fam.graph)
    worst = -math.inf
    for m, parent in (
        (lap, spectral.eigenvalues_symmetric(lap).values),
        (fam.rl, fam.rl_values),
        (fam.rq, fam.rq_values),
    ):
        quotient, equitable = spectral.quotient_matrix(m, partition)
        err = _containment_error(parent, np.linalg.eigvals(quotient).real)
        worst = max(worst, err if equitable else math.inf)
    return worst


def _bipartite_specs(max_pq: int) -> list[FamilySpec]:
    return [
        FamilySpec.bipartite(p, q) for p in range(1, max_pq + 1) for q in range(p, max_pq + 1)
    ]


def rq_quotient_report(max_pq: int = 8) -> list[dict]:
    """Compare both closed-form routes to the two non-repeated R^Q(K_{p,q})
    eigenvalues against the numeric spectrum.

    The block row-sum quotient route must match to 1e-8. The legacy +/-
    radical formula is evaluated alongside; it is expected not to match in
    general (already at p = q = 2) and its disagreement is reported, not
    treated as a failure.
    """
    return _rq_quotient_rows(_Families(), max_pq)


def _rq_quotient_rows(families, max_pq) -> list[dict]:
    rows = []
    for spec in _bipartite_specs(max_pq):
        p, q = spec.params
        numeric = families[spec].rq_values
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


def _check_rq_quotient_vs_pm(families, max_pq) -> VerifyOutcome:
    lines = []

    def measured():
        for row in _rq_quotient_rows(families, max_pq):
            pm_note = (
                "matches"
                if row["pm_matches"]
                else f"MISMATCH (err={row['pm_err']:.3g}; expected, reported only)"
            )
            lines.append(
                "K_{%d,%d}: quotient=(%.12g, %.12g) err=%.3g; pm=(%.12g, %.12g) %s"
                % (row["p"], row["q"], *row["quotient"], row["quotient_err"], *row["pm"], pm_note)
            )
            yield row["quotient_err"], None, None

    outcome = _check("rq_bipartite_quotient_report", SPECTRUM_TOL, measured)
    if lines:
        outcome.detail = "\n".join(lines)
    return outcome


def _random_graphs(count, max_n, seed, min_n=2) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        p = rng.uniform(0.2, 0.9)
        out.append(graph_mod.random_connected_graph(n, p, rng.randrange(2**31)))
    return out


def _by_order(graphs: list[Graph], solve) -> list:
    """Call solve(n, indices) once for the graphs of each order n and return
    its per-graph results in input order."""
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        groups.setdefault(g.n, []).append(i)
    out: list = [None] * len(graphs)
    for n, idx in groups.items():
        for i, x in zip(idx, solve(n, idx)):
            out[i] = x
    return out


#: The corpus checks, in the column order of _corpus_measures, with their
#: tolerance; None stands for the tol argument of run_verify.
_CORPUS_CHECKS = (
    ("rl_positive_semidefinite", None),
    ("rl_zero_row_sums", None),
    ("rl_spectral_radius_at_least_2", None),
    ("resistance_below_distance", None),
    ("resistance_triangle_inequality", None),
    ("rl_trace_identity", None),
    ("eta_sum_zero", ETA_SUM_TOL),
    ("eta_square_sum_2F", ETA_SQUARE_RTOL),
    ("energy_bounds", None),
)


def _corpus_measures(graphs: list[Graph], n: int) -> np.ndarray:
    """The measures of the _CORPUS_CHECKS on connected graphs that all have
    order n: one row per graph, one column per check, each the worst
    violation of its property on that graph (<= 0 when it holds exactly).
    PSD and zero row sums are relative to max |lambda(R^L)|, the trace
    identity to max(1, sum RTr) and sum eta^2 = 2F to 2F."""
    b = resistance._stacked_bundle(graphs, n)
    r, rtr = b.r, b.rtr
    values = spectral._descending_eigenvalues(b.rl)
    norm = np.maximum(np.abs(values).max(axis=-1), 1e-300)
    # shortest[g, i, j] = min over m of r[g, i, m] + r[g, m, j], one m at a
    # time, so that memory stays at one stack and not n of them
    shortest = np.full(r.shape, np.inf)
    for m in range(n):
        np.minimum(shortest, r[:, :, m, None] + r[:, None, m, :], out=shortest)
    total = rtr.sum(axis=-1)
    mean_u = rtr.mean(axis=-1)
    eta = values - mean_u[:, None]
    _, big_f = energy_mod.energy_moments(r, rtr)
    le_r = np.abs(eta).sum(axis=-1)
    lower, *uppers = energy_mod._bound_values(n, mean_u, big_f, eta[:, 0])
    return np.column_stack([
        -values.min(axis=-1) / norm,
        np.abs(b.rl.sum(axis=-1)).max(axis=-1) / norm,
        2.0 - values[:, 0],
        (r - graph_mod._distances(graphs, n)).max(axis=(-2, -1)),
        (r - shortest).max(axis=(-2, -1)),
        np.abs(np.trace(b.rl, axis1=-2, axis2=-1) - total) / np.maximum(1.0, total),
        np.abs(eta.sum(axis=-1)) / n,
        np.abs((eta**2).sum(axis=-1) - 2.0 * big_f) / np.maximum(2.0 * big_f, 1e-300),
        np.max([lower - le_r, *(le_r - u for u in uppers)], axis=0),
    ])


def _edge_addition_errors(pair_count, max_n, seed):
    rng = random.Random(seed)
    smaller, bigger = [], []
    while len(smaller) < pair_count:
        n = rng.randint(3, max(3, max_n))
        g = graph_mod.random_connected_graph(n, rng.uniform(0.2, 0.8), rng.randrange(2**31))
        missing = graph_mod.non_edges(g)
        if missing:
            u, v = missing[rng.randrange(len(missing))]
            smaller.append(g)
            bigger.append(graph_mod.add_edge(g, u, v))

    def solve(n, idx):
        k = len(idx)
        b = resistance._stacked_bundle([smaller[i] for i in idx] + [bigger[i] for i in idx], n)
        values = spectral._descending_eigenvalues(b.rl)
        return np.maximum(
            (b.r[k:] - b.r[:k]).max(axis=(-2, -1)), (values[k:] - values[:k]).max(axis=-1)
        ).tolist()

    return zip(_by_order(smaller, solve), smaller, itertools.repeat(None))


def _tree_distance_errors(tree_count, max_tree_n, seed):
    rng = random.Random(seed)
    trees = [
        graph_mod.random_tree(rng.randint(2, max_tree_n), rng.randrange(2**31))
        for _ in range(tree_count)
    ]

    def solve(n, idx):
        group = [trees[i] for i in idx]
        b = resistance._stacked_bundle(group, n)
        d = resistance._bundle(graph_mod._distances(group, n))  # D and Diag(DTr) - D
        return np.maximum(
            np.abs(b.r - d.r).max(axis=(-2, -1)), np.abs(b.rl - d.rl).max(axis=(-2, -1))
        ).tolist()

    return zip(_by_order(trees, solve), trees, itertools.repeat(None))


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
        specs, families = family_specs(max_n), _Families()
        complete = [FamilySpec.complete(n) for n in range(2, max_n + 1)]
        regular = complete + [FamilySpec.cycle(n) for n in range(3, max_n + 1)]
        regular += [FamilySpec.bipartite(p, p) for p in range(1, max_n // 2 + 1)]
        for name, subset, measure, check_tol in (
            ("closed_form_matrices", specs, _closed_matrix_error, tol),
            ("closed_form_spectra", specs, _closed_spectrum_error, SPECTRUM_TOL),
            ("complete_energy_formula", complete, _complete_energy_error, tol),
            ("transmission_regular_energy", regular, _energy_equality_error, ENERGY_EQUALITY_TOL),
            ("quotient_containment", _bipartite_specs(max_pq), _quotient_containment_error,
             CONTAINMENT_TOL),
        ):
            outcomes.append(
                _check(name, check_tol, lambda: _over_families(families, subset, measure))
            )
        outcomes.append(_check_rq_quotient_vs_pm(families, max_pq))
    if scope in ("random", "all"):
        start = time.perf_counter()
        graphs = _random_graphs(count, max_n, seed)
        measures = _by_order(
            graphs, lambda n, idx: _corpus_measures([graphs[i] for i in idx], n).tolist()
        )
        outcomes.append(
            VerifyOutcome(
                name="random_corpus",
                status="pass" if graphs else "skip",
                measured=float(len(graphs)),
                tolerance=None,
                elapsed_ms=(time.perf_counter() - start) * 1000.0,
                detail=f"{len(graphs)} connected graphs, 2 <= n <= {max_n}, seed {seed}",
            )
        )
        for j, (name, check_tol) in enumerate(_CORPUS_CHECKS):
            outcomes.append(
                _check(name, tol if check_tol is None else check_tol,
                       lambda: ((row[j], g, None) for row, g in zip(measures, graphs)))
            )
        outcomes.append(
            _check("edge_addition_monotonicity", tol,
                   lambda: _edge_addition_errors(pair_count, max_n, seed + 1))
        )
        outcomes.append(
            _check("tree_distance_equality", tol,
                   lambda: _tree_distance_errors(tree_count, max_tree_n, seed + 2))
        )
    return outcomes
