"""Batch verification of structural, spectral and energy properties.

Every check returns a VerifyOutcome instead of raising. All but the corpus
count go through one runner, _check, which judges the worst of the (value,
instance) pairs a check yields: a failure carries the violating graph
serialized inline so it can be replayed, and a check that examined nothing
is a skip. The family checks compare the closed forms of K_n, C_n and
K_{p,q} against the numeric pipeline; the random checks exercise the
order-independent properties (positive semidefiniteness, monotonicity under
edge addition, metric axioms, energy identities and bounds) on seeded
corpora. Both run on one engine: the graphs of each order form one
(k, n, n) stack, one stacked computation gives R, RTr, R^L (R^Q for the
families) and their spectra, and every measure is an array reduction over
the stack or is read from a member's slices while the stack is alive. The
first family check builds and measures all family instances, so its
elapsed time carries their cost.
"""

from __future__ import annotations

import functools
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
    """Time measured(), an iterable of (value, instance) pairs, and judge its
    worst value against tol; the first NaN counts as worst, so it fails. The
    instance is the graph examined, the FamilySpec it was built from, or
    None. A failure serializes the worst graph and names a family instance;
    no pair at all is a skip."""
    start = time.perf_counter()
    worst, worst_instance = -math.inf, None
    for value, instance in measured():
        if not (math.isnan(worst) or value <= worst):
            worst, worst_instance = value, instance
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if worst == -math.inf:
        return VerifyOutcome(name, "skip", None, float(tol), elapsed_ms, "no instance examined")
    if worst <= tol:
        return VerifyOutcome(name, "pass", float(worst), float(tol), elapsed_ms)
    detail, failing = "", worst_instance
    if isinstance(failing, FamilySpec):
        detail, failing = f"worst instance {failing.label()}", graph_mod.generate(failing)
    failing = None if failing is None else format_edge_list(failing)
    return VerifyOutcome(name, "fail", float(worst), float(tol), elapsed_ms, detail, failing)


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
    """A family instance as its checks read it: slices of its order's stacks."""

    spec: FamilySpec
    lap: np.ndarray
    r: np.ndarray
    rl: np.ndarray
    rq: np.ndarray
    rl_values: np.ndarray  # descending
    rq_values: np.ndarray
    le_r: float

    @functools.cached_property
    def closed(self) -> cf.ClosedForm:
        return cf.closed_form(self.spec)


def _family_measures(jobs) -> dict[FamilySpec, list]:
    """Map every spec of the (specs, measure) jobs to its measure(family) per
    job, None where a job lacks the spec. Per order: one stacked bundle, one
    stacked eigensolve each of R^L and R^Q and LE_R as an array reduction;
    each measure is taken while its order's stacks are alive, so no n x n
    array (and no graph) outlives its order."""
    wanted = list(dict.fromkeys(spec for specs, _ in jobs for spec in specs))
    jobs = [(set(specs), measure) for specs, measure in jobs]

    def solve(n, idx):
        group = [wanted[i] for i in idx]
        lap = graph_mod._laplacians([graph_mod.generate(spec) for spec in group], n)
        b = resistance._stacked_bundle(lap)
        rl_values = spectral._eigenvalues_in_place(b.rl, None)
        rq_values = spectral._eigenvalues_in_place(b.rq, None)
        le_r = energy_mod._eta(rl_values, b.rtr)[2]
        fams = (_Family(spec, lap[k], b.r[k], b.rl[k], b.rq[k], rl_values[k], rq_values[k],
                        float(le_r[k])) for k, spec in enumerate(group))
        return [[measure(f) if f.spec in specs else None for specs, measure in jobs] for f in fams]

    return dict(zip(wanted, _by_order(wanted, solve, order=lambda spec: spec.order)))


def _closed_matrix_error(fam: _Family) -> float:
    return max(
        float(np.abs(fam.closed.rl_matrix - fam.rl).max()),
        float(np.abs(fam.closed.rq_matrix - fam.rq).max()),
    )


def _closed_spectrum_error(fam: _Family) -> float:
    return max(
        float(np.abs(fam.closed.rl_spectrum.values - fam.rl_values).max()),
        float(np.abs(fam.closed.rq_spectrum.values - fam.rq_values).max()),
    )


def _complete_energy_error(fam: _Family) -> float:
    return abs(fam.le_r - 4.0 * (1.0 - 1.0 / fam.spec.order))


def _energy_equality_error(fam: _Family) -> float:
    return abs(fam.le_r - float(2.0 * energy_mod._perron_root(fam.r)))


def _containment_error(parent: np.ndarray, candidates: np.ndarray) -> float:
    return max(float(np.abs(parent - c).min()) for c in candidates)


def _quotient_containment_error(fam: _Family) -> float:
    """Worst containment of the (p, q) quotient spectrum in the spectra of
    L, R^L and R^Q of K_{p,q}; inf if a partition is not equitable."""
    partition = spectral.Partition.from_sizes(*fam.spec.params)
    worst = -math.inf
    for m, parent in (
        (fam.lap, spectral.eigenvalues_symmetric(fam.lap).values),
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
    specs = _bipartite_specs(max_pq)
    table = _family_measures([(specs, _rq_quotient_row)])
    return [table[spec][0] for spec in specs]


def _rq_quotient_row(fam: _Family) -> dict:
    p, q = fam.spec.params
    quotient_pair = cf.bipartite_rq_quotient_eigenvalues(p, q)
    quotient_err = _containment_error(fam.rq_values, np.array(quotient_pair))
    pm_pair = cf.bipartite_rq_pm_formula(p, q)
    if any(math.isnan(v) for v in pm_pair):
        pm_err = math.inf
    else:
        pm_err = _containment_error(fam.rq_values, np.array(pm_pair))
    return {
        "p": p,
        "q": q,
        "quotient": [float(v) for v in quotient_pair],
        "quotient_err": float(quotient_err),
        "pm": [float(v) for v in pm_pair],
        "pm_err": float(pm_err),
        "pm_matches": bool(pm_err <= SPECTRUM_TOL),
    }


def _check_rq_quotient_vs_pm(rows) -> VerifyOutcome:
    lines = []

    def measured():
        for row in rows():
            pm_note = (
                "matches"
                if row["pm_matches"]
                else f"MISMATCH (err={row['pm_err']:.3g}; expected, reported only)"
            )
            lines.append(
                "K_{%d,%d}: quotient=(%.12g, %.12g) err=%.3g; pm=(%.12g, %.12g) %s"
                % (row["p"], row["q"], *row["quotient"], row["quotient_err"], *row["pm"], pm_note)
            )
            yield row["quotient_err"], None

    outcome = _check("rq_bipartite_quotient_report", SPECTRUM_TOL, measured)
    if lines:
        outcome.detail = "\n".join(lines)
    return outcome


def _random_graphs(count, max_n, seed) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        p = rng.uniform(0.2, 0.9)
        out.append(graph_mod.random_connected_graph(n, p, rng.randrange(2**31)))
    return out


def _by_order(items: list, solve, order=lambda g: g.n) -> list:
    """Call solve(n, indices) once for the items (graphs, by default) of each
    order n and return its per-item results in input order."""
    groups: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(order(item), []).append(i)
    out: list = [None] * len(items)
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
    lap = graph_mod._laplacians(graphs, n)
    b = resistance._stacked_bundle(lap)
    r, rtr = b.r, b.rtr
    values = spectral._eigenvalues_in_place(b.rl, None)
    norm = np.maximum(np.abs(values).max(axis=-1), 1e-300)
    # shortest[g, i, j] = min over m of r[g, i, m] + r[g, m, j], one m at a
    # time, so that memory stays at one stack and not n of them
    shortest = np.full(r.shape, np.inf)
    for m in range(n):
        np.minimum(shortest, r[:, :, m, None] + r[:, None, m, :], out=shortest)
    total = rtr.sum(axis=-1)
    eta, mean_u, le_r = energy_mod._eta(values, rtr)
    _, big_f = energy_mod.energy_moments(r, rtr)
    lower, *uppers = energy_mod._bound_values(n, mean_u, big_f, eta[:, 0])
    return np.column_stack([
        -values.min(axis=-1) / norm,
        np.abs(b.rl.sum(axis=-1)).max(axis=-1) / norm,
        2.0 - values[:, 0],
        (r - graph_mod._distances(lap)).max(axis=(-2, -1)),
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
        pairs = [smaller[i] for i in idx] + [bigger[i] for i in idx]
        b = resistance._stacked_bundle(graph_mod._laplacians(pairs, n))
        values = spectral._eigenvalues_in_place(b.rl, None)
        return np.maximum(
            (b.r[k:] - b.r[:k]).max(axis=(-2, -1)), (values[k:] - values[:k]).max(axis=-1)
        ).tolist()

    return zip(_by_order(smaller, solve), smaller)


def _tree_distance_errors(tree_count, max_tree_n, seed):
    rng = random.Random(seed)
    trees = [
        graph_mod.random_tree(rng.randint(2, max_tree_n), rng.randrange(2**31))
        for _ in range(tree_count)
    ]

    def solve(n, idx):
        lap = graph_mod._laplacians([trees[i] for i in idx], n)
        b = resistance._stacked_bundle(lap)
        d = resistance._bundle(graph_mod._distances(lap))  # D and Diag(DTr) - D
        return np.maximum(
            np.abs(b.r - d.r).max(axis=(-2, -1)), np.abs(b.rl - d.rl).max(axis=(-2, -1))
        ).tolist()

    return zip(_by_order(trees, solve), trees)


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
    deterministic for a fixed seed. The random scope needs max_n >= 2 and
    max_tree_n >= 2.
    """
    if scope not in ("families", "random", "all"):
        raise ValueError(f"scope must be families, random or all, got {scope!r}")
    for name, value in (("max_n", max_n), ("max_tree_n", max_tree_n)):
        if scope != "families" and value < 2:
            raise ValueError(f"{name} must be >= 2 for the random scope, got {value}")
    outcomes: list[VerifyOutcome] = []
    if scope in ("families", "all"):
        specs, bipartite = family_specs(max_n), _bipartite_specs(max_pq)
        complete = [FamilySpec.complete(n) for n in range(2, max_n + 1)]
        regular = complete + [FamilySpec.cycle(n) for n in range(3, max_n + 1)]
        regular += [FamilySpec.bipartite(p, p) for p in range(1, max_n // 2 + 1)]
        checks = (
            ("closed_form_matrices", specs, _closed_matrix_error, tol),
            ("closed_form_spectra", specs, _closed_spectrum_error, SPECTRUM_TOL),
            ("complete_energy_formula", complete, _complete_energy_error, tol),
            ("transmission_regular_energy", regular, _energy_equality_error, ENERGY_EQUALITY_TOL),
            ("quotient_containment", bipartite, _quotient_containment_error, CONTAINMENT_TOL),
            ("rq_bipartite_quotient_report", bipartite, _rq_quotient_row, SPECTRUM_TOL),
        )
        # built by the first check that reads it, which is charged its time
        table = functools.cache(lambda: _family_measures([(s, m) for _, s, m, _ in checks]))
        for j, (name, subset, _, check_tol) in enumerate(checks[:-1]):  # the report: own runner
            outcomes.append(
                _check(name, check_tol, lambda: ((table()[spec][j], spec) for spec in subset))
            )
        outcomes.append(_check_rq_quotient_vs_pm(lambda: [table()[spec][-1] for spec in bipartite]))
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
                       lambda: ((row[j], g) for row, g in zip(measures, graphs)))
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
