"""Batch verification of structural, spectral and energy properties.

Every check returns a VerifyOutcome instead of raising. All but the corpus
count go through one runner, _check, which judges the worst of the (value,
instance) pairs a check yields: a failure carries the violating graph
serialized inline so it can be replayed, and a check that examined nothing
is a skip. The family checks compare the closed forms of K_n, C_n and
K_{p,q} against the numeric pipeline; the random checks exercise the
order-independent properties (positive semidefiniteness, monotonicity under
edge addition, metric axioms, energy identities and bounds) on seeded
corpora. All of them read one pass of one engine, _measures. It groups
each of its sources (family instances, the random corpus, the trees, the
edge-addition pairs) by order n, and each order is one (k, n, n) stack of
Laplacians: one stacked computation gives R, RTr, R^L and the R^L spectra
of all of them, and R^Q with its spectra for the family slice. Every
measure is an array reduction over its source's slice of the stack while
the stack is alive: each family check's over the instances it examines,
with their closed forms stacked, and the quotient
check's from one quotient_matrix call and one eigvals on the (k, 3, n, n)
stack of L, R^L and R^Q of the order's K_{p,q}; only E_R is one Perron root
per transmission-regular instance.
The random graphs are drawn first, under the random_corpus timer, the
corpus and the pairs from one tuple of vertex pairs per order for the run
(_vertex_pairs); each g + uv enters the stack as a second copy of g with
uv's entries added. The pass runs under the first check of the run
(closed_form_matrices, or random_corpus in the random scope), whose elapsed
time therefore carries the engine's; the checks after it only take the
worst of values already computed.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import asdict, dataclass
from itertools import accumulate, combinations, filterfalse

import numpy as np

from . import closed_forms as cf
from . import energy as energy_mod
from . import graph as graph_mod
from . import resistance
from . import spectral
from .graph import Edge, FamilySpec, Graph, format_edge_list

#: The values of run_verify's scope, and of resq verify --scope.
SCOPES = ("families", "random", "all")
DEFAULT_TOL = 1e-9
SPECTRUM_TOL = 1e-8
CONTAINMENT_TOL = 1e-7
ENERGY_EQUALITY_TOL = 1e-8
ETA_SUM_TOL = 1e-8  # scaled by n
ETA_SQUARE_RTOL = 1e-7


def _as_tol(x) -> float | None:
    """x by float() if a finite number >= 0, else None: the rule for tol and RESQ_TOL."""
    try:
        tol = float(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return tol if 0.0 <= tol < math.inf else None


def _read(name: str, x, read=graph_mod._as_int, rule: str = "an integer"):
    """x by read; ValueError naming the argument and rule where read gives None."""
    value = read(x)
    if value is None:
        raise ValueError(f"{name} must be {rule}, got {x!r}")
    return value


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
        """The fields, a non-finite measure as "inf", "-inf" or "nan" (JSON has no such number)."""
        out = asdict(self)
        if self.measured is not None and not math.isfinite(self.measured):
            out["measured"] = str(self.measured)
        return out


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
    specs += [FamilySpec.bipartite(p, q) for p in range(1, max_n) for q in range(p, max_n - p + 1)]
    return specs


class _FamilyOrder:
    """The family instances of one order as the family checks read them:
    their specs and their slices of the order's stacks, L, the bundle b and
    the descending R^L values. The R^Q spectra and LE_R of the whole slice
    are computed on first read, and each instance's closed form once. Each
    family measure below takes one and the instances idx it examines there
    (a non-empty list of indices) and returns their measures, one array
    reduction over their stacks."""

    def __init__(self, specs, lap, b, rl_values):
        self.specs, self.lap, self.b, self.rl_values = specs, lap, b, rl_values
        self.closed_form = functools.cache(lambda k: cf.closed_form(specs[k]))  # by index

    @functools.cached_property
    def rq_values(self) -> np.ndarray:
        return spectral._eigenvalues_in_place(self.b.rq)

    @functools.cached_property
    def le_r(self) -> np.ndarray:
        return energy_mod._eta(self.rl_values, self.b.rtr)[2]

    def closed(self, idx, read) -> np.ndarray:
        """read(closed form) of the instances idx, stacked."""
        return np.stack([read(self.closed_form(k)) for k in idx])


def _closed_matrix_errors(f: _FamilyOrder, idx) -> list:
    rl, rq = f.closed(idx, lambda c: c.rl_matrix), f.closed(idx, lambda c: c.rq_matrix)
    return np.maximum(np.abs(rl - f.b.rl[idx]).max(axis=(-2, -1)),
                      np.abs(rq - f.b.rq[idx]).max(axis=(-2, -1))).tolist()


def _closed_spectrum_errors(f: _FamilyOrder, idx) -> list:
    rl = f.closed(idx, lambda c: c.rl_spectrum.values)
    rq = f.closed(idx, lambda c: c.rq_spectrum.values)
    return np.maximum(np.abs(rl - f.rl_values[idx]).max(axis=-1),
                      np.abs(rq - f.rq_values[idx]).max(axis=-1)).tolist()


def _complete_energy_errors(f: _FamilyOrder, idx) -> list:
    return np.abs(f.le_r[idx] - 4.0 * (1.0 - 1.0 / f.lap.shape[-1])).tolist()


def _energy_equality_errors(f: _FamilyOrder, idx) -> list:
    e_r = [2.0 * energy_mod._perron_root(f.b.r[k]) for k in idx]
    return np.abs(f.le_r[idx] - e_r).tolist()


def _containment_error(parent: np.ndarray, candidates: np.ndarray):
    """Largest distance from a candidate to its nearest value of parent; of
    each pair of a stack of spectra (..., n) and candidates (..., c)."""
    return np.abs(parent[..., :, None] - candidates[..., None, :]).min(axis=-2).max(axis=-1)


def _quotient_containment_errors(f: _FamilyOrder, idx) -> list:
    """Worst containment of the (p, q) quotient spectrum of each K_{p,q} in
    the spectra of its L, R^L and R^Q, all of them stacked as (k, 3, n, n)
    for one quotient_matrix call, one eigvals and one eigensolve of L; inf
    where a partition is not equitable."""
    lap = f.lap[idx]
    quotients, equitable = spectral.quotient_matrix(
        np.stack([lap, f.b.rl[idx], f.b.rq[idx]], axis=1),
        [spectral.Partition.from_sizes(*f.specs[k].params) for k in idx])
    parents = np.stack([spectral._eigenvalues_in_place(lap), f.rl_values[idx], f.rq_values[idx]],
                       axis=1)
    err = _containment_error(parents, np.linalg.eigvals(quotients).real)
    return np.where(equitable, err, math.inf).max(axis=-1).tolist()


def _rq_quotient_rows(f: _FamilyOrder, idx) -> list[dict]:
    """The rq_quotient_report row of each K_{p,q}: both routes' pairs and
    their containment in its R^Q spectrum, from one reduction. The specs
    were validated when their graphs were built."""
    params = [f.specs[k].params for k in idx]
    pairs = [(cf._rq_quotient_eigenvalues(p, q), cf.bipartite_rq_pm_formula.__wrapped__(p, q))
             for p, q in params]
    errors = _containment_error(f.rq_values[idx, None, :], np.array(pairs)).tolist()
    return [{
        "p": p,
        "q": q,
        "quotient": [float(v) for v in quotient_pair],
        "quotient_err": quotient_err,
        "pm": [float(v) for v in pm_pair],
        "pm_err": pm_err,
        "pm_matches": bool(pm_err <= SPECTRUM_TOL),
    } for (p, q), (quotient_pair, pm_pair), (quotient_err, pm_err) in zip(params, pairs, errors)]


def _bipartite_specs(max_pq: int) -> list[FamilySpec]:
    return [FamilySpec.bipartite(p, q) for p in range(1, max_pq + 1) for q in range(p, max_pq + 1)]


def rq_quotient_report(max_pq: int = 8) -> list[dict]:
    """Compare both closed-form routes to the two non-repeated R^Q(K_{p,q})
    eigenvalues against the numeric spectrum.

    The block row-sum quotient route must match to 1e-8. The legacy +/-
    radical formula is evaluated alongside; it is expected not to match in
    general (already at p = q = 2) and its disagreement is reported, not
    treated as a failure.
    """
    specs = _bipartite_specs(_read("max_pq", max_pq))
    rows = _measures([(specs, _rq_quotient_rows)])[0][0]
    return [rows[spec] for spec in specs]


def _check_rq_quotient_vs_pm(rows) -> VerifyOutcome:
    lines = []

    def measured():
        for row in rows():
            pm_note = "matches" if row["pm_matches"] else (
                f"MISMATCH (err={row['pm_err']:.3g}; expected, reported only)")
            lines.append("K_{%d,%d}: quotient=(%.12g, %.12g) err=%.3g; pm=(%.12g, %.12g) %s" % (
                row["p"], row["q"], *row["quotient"], row["quotient_err"], *row["pm"], pm_note))
            yield row["quotient_err"], None

    outcome = _check("rq_bipartite_quotient_report", SPECTRUM_TOL, measured)
    if lines:
        outcome.detail = "\n".join(lines)
    return outcome


def _vertex_pairs():
    """A map n -> tuple(combinations(range(n), 2)), built on first read; one
    per run, shared by its draws, whose edge lists then hold its tuples."""
    return functools.cache(lambda n: tuple(combinations(range(n), 2)))


def _random_graphs(count, max_n, seed, vertex_pairs=None) -> list[Graph]:
    rng, of_order = random.Random(seed), vertex_pairs or _vertex_pairs()
    # arguments are drawn left to right: n, edge probability, seed
    return graph_mod._graphs([(n := rng.randint(2, max_n), graph_mod._random_connected(
        n, rng.uniform(0.2, 0.9), rng.randrange(2**31), of_order(n))) for _ in range(count)])


def _edge_pairs(pair_count, max_n, seed, vertex_pairs=None) -> list[tuple[Graph, Edge]]:
    """Seeded pairs (g, uv) of a connected g and one of its non-edges uv."""
    rng, of_order = random.Random(seed), vertex_pairs or _vertex_pairs()
    drawn, added = [], []
    while len(drawn) < pair_count:
        n = rng.randint(3, max(3, max_n))
        every = of_order(n)
        edges = graph_mod._random_connected(n, rng.uniform(0.2, 0.8), rng.randrange(2**31), every)
        missing = list(filterfalse(set(edges).__contains__, every))  # graph.non_edges(g)
        if missing:
            drawn.append((n, edges))
            added.append(missing[rng.randrange(len(missing))])
    return list(zip(graph_mod._graphs(drawn), added))


def _random_trees(count, max_n, seed) -> list[Graph]:
    rng = random.Random(seed)
    return graph_mod._graphs([(n := rng.randint(2, max_n),
                               graph_mod._random_tree(n, rng.randrange(2**31)))
                              for _ in range(count)])


def _measures(jobs, corpus=(), pairs=(), trees=()) -> tuple[list, list, list, list]:
    """One pass over every graph the run examines. Returns, for each (specs,
    measure) job, a map from each of its specs to its measure (a family
    measure above), the _corpus_measures row of each corpus graph, the
    distance error of each tree and the monotonicity error of each
    edge-addition pair (g, uv) from g to g + uv, each in input order. The
    four sources are grouped by order into one map n -> the indices of each
    source's members of order n. Per order: one (k, n, n) stack of
    Laplacians, [family | corpus | trees | g | g + uv], one stacked bundle
    and one R^L eigensolve for all of them, one distance sweep for the
    corpus and the trees, and one call of each job's measure on the family
    instances of the order it examines; each source's results go back to
    its indices. g is assembled twice, and its second copy gets the edge uv
    added in place, exactly. Every measure is taken while its order's stacks
    are alive, so no n x n array (and no family graph) outlives its order."""
    wanted = list(dict.fromkeys(spec for specs, _ in jobs for spec in specs))
    at = {spec: i for i, spec in enumerate(wanted)}
    jobs = [({at[spec] for spec in specs}, measure) for specs, measure in jobs]
    orders: dict[int, tuple[list[int], ...]] = {}
    for s, ns in enumerate(([spec.order for spec in wanted], [g.n for g in corpus],
                            [g.n for g in trees], [g.n for g, _ in pairs])):
        for i, n in enumerate(ns):
            orders.setdefault(n, ([], [], [], []))[s].append(i)
    table = [{} for _ in jobs]
    rows, tree_errors, edge_errors = {}, {}, {}  # by input index
    for n, (fam, corp, tree, pair) in orders.items():
        specs, smaller = [wanted[i] for i in fam], [pairs[i][0] for i in pair]
        lap = graph_mod._laplacians(
            [graph_mod.generate(spec) for spec in specs] + [corpus[i] for i in corp]
            + [trees[i] for i in tree] + smaller + smaller, n)
        cuts = [0, *accumulate(map(len, (fam, corp, tree, pair, pair)))]
        fs, cs, ts, small, big = map(slice, cuts, cuts[1:])
        if pair:  # g + uv: g's rows with the entries of the edge uv added, exact integers
            k, (u, v) = np.arange(big.start, big.stop), np.array([pairs[i][1] for i in pair]).T
            lap[k, u, v] = lap[k, v, u] = -1.0
            lap[k, u, u] += 1.0
            lap[k, v, v] += 1.0
        b = resistance._stacked_bundle(lap)
        values = spectral._eigenvalues_in_place(b.rl)

        def part(s):  # the bundle of one source's slice
            return resistance.ResistanceBundle(b.r[s], b.rtr[s], b.rl[s])

        family = _FamilyOrder(specs, lap[fs], part(fs), values[fs])
        for measured, (subset, measure) in zip(table, jobs):
            idx = [k for k, i in enumerate(fam) if i in subset]
            if idx:
                measured.update(zip([specs[k] for k in idx], measure(family, idx)))
        if corp or tree:  # one distance sweep serves both, and none runs without them
            dist, d = np.split(graph_mod._distances(lap[cs.start:ts.stop]), [len(corp)])
            if corp:  # the bounds reject an empty stack
                rows.update(zip(corp, _corpus_measures(part(cs), values[cs], dist).tolist()))
            tree_errors.update(zip(tree, np.maximum(  # a tree's R is its D, so its RTr is DTr
                np.abs(b.r[ts] - d).max(axis=(-2, -1)),
                np.abs(b.rtr[ts] - d.sum(axis=-2)).max(axis=-1)).tolist()))
            del dist, d
        if pair:
            edge_errors.update(zip(pair, np.maximum(
                (b.r[big] - b.r[small]).max(axis=(-2, -1)),
                (values[big] - values[small]).max(axis=-1)).tolist()))
        del lap, b, values, family  # this order's stacks go before the next order's come
    return table, *([o[i] for i in range(len(o))] for o in (rows, tree_errors, edge_errors))


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


def _corpus_measures(b, values, dist) -> np.ndarray:
    """The measures of the _CORPUS_CHECKS on connected graphs of one order,
    from their slices of its stacks: the bundle b, the descending R^L values
    and the shortest-path distances. One row per graph, one column per
    check, each the worst violation of its property on that graph (<= 0 when
    it holds exactly). PSD and zero row sums are relative to max
    |lambda(R^L)|, the trace identity to max(1, sum RTr) and sum eta^2 = 2F
    to 2F."""
    r, rtr = b.r, b.rtr
    n = r.shape[-1]
    norm = np.maximum(np.abs(values).max(axis=-1), 1e-300)
    # shortest[g, i, j] = min over m of r[g, i, m] + r[g, m, j], one m at a
    # time, so that memory stays at one stack and not n of them
    shortest = np.full(r.shape, np.inf)
    for m in range(n):
        np.minimum(shortest, r[:, :, m, None] + r[:, None, m, :], out=shortest)
    total = rtr.sum(axis=-1)
    eta, mean_u, le_r = energy_mod._eta(values, rtr)
    _, big_f = energy_mod._energy_moments(r, rtr)
    lower, *uppers = energy_mod._bound_values(n, mean_u, big_f, eta[:, 0])
    return np.column_stack([
        -values.min(axis=-1) / norm,
        np.abs(b.rl.sum(axis=-1)).max(axis=-1) / norm,
        2.0 - values[:, 0],
        (r - dist).max(axis=(-2, -1)),
        (r - shortest).max(axis=(-2, -1)),
        np.abs(np.trace(b.rl, axis1=-2, axis2=-1) - total) / np.maximum(1.0, total),
        np.abs(eta.sum(axis=-1)) / n,
        np.abs((eta**2).sum(axis=-1) - 2.0 * big_f) / np.maximum(2.0 * big_f, 1e-300),
        np.max([lower - le_r, *(le_r - u for u in uppers)], axis=0),
    ])


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
    runs the seeded-corpus property checks, "all" runs both (SCOPES).
    Results are deterministic for a fixed seed. ValueError unless the other
    arguments are integers, tol is a finite number >= 0 and, for the random
    scope, max_n >= 2 and max_tree_n >= 2.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {', '.join(SCOPES)}, got {scope!r}")
    seed, max_n, count, tree_count, max_tree_n, pair_count, max_pq = (_read(*arg) for arg in (
        ("seed", seed), ("max_n", max_n), ("count", count), ("tree_count", tree_count),
        ("max_tree_n", max_tree_n), ("pair_count", pair_count), ("max_pq", max_pq)))
    tol = _read("tol", tol, _as_tol, "a finite number >= 0")
    randoms = scope != "families"
    for name, value in (("max_n", max_n), ("max_tree_n", max_tree_n)):
        if randoms and value < 2:
            raise ValueError(f"{name} must be >= 2 for the random scope, got {value}")
    start, vertex_pairs = time.perf_counter(), _vertex_pairs()
    corpus = _random_graphs(count, max_n, seed, vertex_pairs) if randoms else []
    pairs = _edge_pairs(pair_count, max_n, seed + 1, vertex_pairs) if randoms else []
    trees = _random_trees(tree_count, max_tree_n, seed + 2) if randoms else []
    draw_ms = (time.perf_counter() - start) * 1000.0
    checks = ()
    if scope != "random":
        specs, bipartite = family_specs(max_n), _bipartite_specs(max_pq)
        complete = [s for s in specs if s.kind == "complete"]
        # transmission-regular: K_n, C_n and K_{p,p}
        regular = [s for s in specs if s.kind != "bipartite" or s.params[0] == s.params[1]]
        checks = (
            ("closed_form_matrices", specs, _closed_matrix_errors, tol),
            ("closed_form_spectra", specs, _closed_spectrum_errors, SPECTRUM_TOL),
            ("complete_energy_formula", complete, _complete_energy_errors, tol),
            ("transmission_regular_energy", regular, _energy_equality_errors, ENERGY_EQUALITY_TOL),
            ("quotient_containment", bipartite, _quotient_containment_errors, CONTAINMENT_TOL),
            ("rq_bipartite_quotient_report", bipartite, _rq_quotient_rows, SPECTRUM_TOL),
        )
    # the one pass, run by the first check that reads it, which is charged its time
    table = functools.cache(
        lambda: _measures([(s, m) for _, s, m, _ in checks], corpus, pairs, trees))
    outcomes = [_check(name, check_tol, lambda: ((table()[0][j][spec], spec) for spec in subset))
                for j, (name, subset, _, check_tol) in enumerate(checks[:-1])]  # report: own runner
    if checks:
        outcomes.append(
            _check_rq_quotient_vs_pm(lambda: [table()[0][-1][spec] for spec in bipartite]))
    if randoms:
        start = time.perf_counter()
        _, rows, tree_errors, edge_errors = table()
        outcomes.append(VerifyOutcome(
            "random_corpus", "pass" if corpus else "skip", float(len(corpus)), None,
            draw_ms + (time.perf_counter() - start) * 1000.0,
            f"{len(corpus)} connected graphs, 2 <= n <= {max_n}, seed {seed}"))
        outcomes += [_check(name, tol if check_tol is None else check_tol,
                            lambda: ((row[j], g) for row, g in zip(rows, corpus)))
                     for j, (name, check_tol) in enumerate(_CORPUS_CHECKS)]
        outcomes.append(_check("edge_addition_monotonicity", tol,
                               lambda: zip(edge_errors, (g for g, _ in pairs))))
        outcomes.append(_check("tree_distance_equality", tol, lambda: zip(tree_errors, trees)))
    return outcomes
