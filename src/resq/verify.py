"""Batch verification of structural, spectral and energy properties.

Every check returns a VerifyOutcome instead of raising. All but the corpus
count go through one runner, _check, which judges the worst of the (value,
instance) pairs a check yields: a failure carries the violating graph
serialized inline so it can be replayed, and a check that examined nothing
is a skip. The family checks compare the closed forms of K_n, C_n and
K_{p,q} against the numeric pipeline; the random checks exercise the
order-independent properties (positive semidefiniteness, monotonicity under
edge addition, metric axioms, energy identities and bounds) on seeded
corpora. All of them read one pass of one engine, _measures, over five
sources: the family instances, the K_{p,q} of the quotient checks, the
random corpus, the trees and the edge-addition pairs. Each source is
grouped by order n, and each order is one (k, n, n) stack: the
Laplacians, then R in their memory, which holds R^L, negated in place, for
the one eigensolve of all of them, and then R again. Each source gets back
one row per member, in input order, with one column per check
(_FAMILY_CHECKS, _CORPUS_CHECKS), and _judge runs _check on each column.
The family and quotient instances enter each order's stack once, their
Laplacians written by formula, and their rows compare the numeric slices
with the closed forms' parameters (closed_forms, one call per kind for the
run, C_n's one per order) by broadcasting, a chunk of instances at a time,
with the chunk's R^L and R^Q made for it; no Graph, ClosedForm, Spectrum or
ResistanceBundle is built for an instance. Each K_{p,q}'s quotients of L,
R^L and R^Q are masked block sums of its row sums, from the mask of its
second block, arange(n) >= p, and those of a chunk go to one eigvals.
The random graphs are drawn first, under the random_corpus timer, the
corpus and the pairs from one tuple of vertex pairs per order for the run
(_vertex_pairs); each g + uv enters the stack as a second copy of g with
uv's entries added. The pass's time is added to the first check of the run
(closed_form_matrices, or random_corpus in the random scope); the checks
after it only take the worst of values already computed.
"""

from __future__ import annotations

import functools
import math
import random
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import accumulate, combinations, filterfalse

import numpy as np

from . import closed_forms as cf
from . import energy as energy_mod
from . import graph as graph_mod
from . import resistance
from . import spectral
from .graph import FAMILY_KINDS, Edge, FamilySpec, Graph, format_edge_list

#: The values of run_verify's scope, and of resq verify --scope.
SCOPES = ("families", "random", "all")
DEFAULT_TOL = 1e-9
SPECTRUM_TOL = 1e-8
CONTAINMENT_TOL = 1e-7
ENERGY_EQUALITY_TOL = 1e-8
ETA_SUM_TOL = 1e-8  # scaled by n
ETA_SQUARE_RTOL = 1e-7

#: Bytes of closed-form matrices the family rows expand at once: a chunk of
#: the instances of one order, or one instance where it alone is larger.
_CHUNK_BYTES = 1 << 18


def _as_tol(x) -> float | None:
    """x by float() if a finite number >= 0, else None: the rule for tol and RESQ_TOL."""
    try:
        tol = float(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return tol if 0.0 <= tol < math.inf else None


def _as_size(x) -> int | None:
    """x by _as_int if an integer >= 0, else None: the rule for orders and counts."""
    return value if (value := graph_mod._as_int(x)) is not None and value >= 0 else None


def _read(name: str, x, read=_as_size, rule: str = "an integer >= 0"):
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
    """Time measured, an iterable of (value, instance) pairs, and judge its
    worst value against tol; the first NaN counts as worst, so it fails. The
    instance is the graph examined, the FamilySpec it was built from, or
    None. A failure serializes the worst graph and names a family instance;
    no pair at all is a skip."""
    start = time.perf_counter()
    worst, worst_instance = -math.inf, None
    for value, instance in measured:
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


def _judge(checks, tol, rows, members) -> list[VerifyOutcome]:
    """_check of each column of rows, one row per member, in the order of
    checks, (name, tolerance) pairs whose None stands for tol. A member whose
    value in a column is None is not one the column's check examines."""
    return [_check(name, tol if check_tol is None else check_tol,
                   ((row[j], m) for row, m in zip(rows, members) if row[j] is not None))
            for j, (name, check_tol) in enumerate(checks)]


def family_specs(max_n: int) -> list[FamilySpec]:
    """Complete, cycle and bipartite instances of order at most max_n."""
    specs = [FamilySpec.complete(n) for n in range(2, max_n + 1)]
    specs += [FamilySpec.cycle(n) for n in range(3, max_n + 1)]
    specs += [FamilySpec.bipartite(p, q) for p in range(1, max_n) for q in range(p, max_n - p + 1)]
    return specs


def _chunks(groups, n) -> list[tuple]:
    """The closed forms of one order's instances, groups of consecutive ones
    of one layout, in chunks of at most _CHUNK_BYTES of n x n matrices (or
    one instance): a (slice of the instances, [forms in it]) pair each."""
    step, ends = max(1, _CHUNK_BYTES // (8 * n * n)), [0, *accumulate(len(f.lap) for f in groups)]
    return [(slice(a, min(a + step, ends[-1])), [
        f.take(slice(max(a - start, 0), a + step - start))
        for f, start, stop in zip(groups, ends, ends[1:]) if start < a + step and a < stop])
        for a in range(0, ends[-1], step)]


def _largest_error(closed, numeric):
    """max |closed - numeric| of each matrix of a stack, in closed's memory;
    NaN where an entry is NaN."""
    return np.abs(np.subtract(closed, numeric, out=closed), out=closed).max(axis=(-2, -1))


def _family_rows(keys, chunks, r, rtr, rl_values, routes) -> tuple[list[tuple], dict]:
    """The _FAMILY_CHECKS row of each family instance of one order, by keys
    (n, FAMILY_KINDS index, parameters), from the _chunks of their closed
    forms and their slices of the order's R, RTr and descending R^L values:
    the largest entry error of the closed-form R^L and R^Q, that of their
    spectra, |LE_R - 4(1 - 1/n)| on K_n and |LE_R - E_R| on the
    transmission-regular K_n, C_n and K_{p,p}, None where a check does not
    examine the instance. Also, by key, the _quotient_rows row of each
    K_{p,q} that routes maps to its two quotient pairs. Each chunk gets its
    R^L and R^Q made for it, and its L by formula where it holds such a
    K_{p,q}, and is compared by broadcasting, one reduction per check."""
    n = r.shape[-1]
    matrix_err, spectra_err, quotient = np.empty(len(keys)), np.empty(len(keys)), {}
    for s, parts in chunks:
        rl = resistance._set_diagonal(np.negative(r[s]), rtr[s])
        rq = resistance._signless(r[s], rtr[s])
        rq_values = spectral._eigenvalues_in_place(rq)
        matrix_err[s] = np.maximum(_largest_error(cf._matrices(parts, "rl", n), rl),
                                   _largest_error(cf._matrices(parts, "rq", n), rq))
        rl_closed, rq_closed = cf._spectra(parts)
        spectra_err[s] = np.maximum(np.abs(rl_closed - rl_values[s]).max(axis=-1),
                                    np.abs(rq_closed - rq_values).max(axis=-1))
        at = [k for k, key in enumerate(keys[s]) if key in routes]
        if at:
            pqs = [keys[s][k] for k in at]
            quotient.update(zip(pqs, _quotient_rows(
                [key[2] for key in pqs], np.array([routes[key] for key in pqs]),
                (cf._matrices(parts, "lap", n)[at], rl[at], rq[at]), rl_values[s][at],
                rq_values[at])))
    errors = np.column_stack([matrix_err, spectra_err]).tolist()
    le_r = energy_mod._eta(rl_values, rtr)[2].tolist()
    return [(*errors[k],
             abs(le_r[k] - 4.0 * (1.0 - 1.0 / n)) if FAMILY_KINDS[kind] == "complete" else None,
             abs(le_r[k] - 2.0 * energy_mod._perron_root(r[k]))
             if FAMILY_KINDS[kind] != "bipartite" or params[0] == params[1] else None)
            for k, (_, kind, params) in enumerate(keys)], quotient


def _containment_error(parent: np.ndarray, candidates: np.ndarray):
    """Largest distance from a candidate to its nearest value of parent; of
    each pair of a stack of spectra (..., n) and candidates (..., c)."""
    return np.abs(parent[..., :, None] - candidates[..., None, :]).min(axis=-2).max(axis=-1)


def _quotient_rows(sizes, pairs, matrices, rl_values, rq_values) -> list[tuple]:
    """The row of each of k K_{p,q} of a chunk of one order, from its
    (p, q), its two pairs (k, 2, 2) of closed-form R^Q quotient eigenvalues
    (the block quotient route and bipartite_rq_pm_formula), its L, R^L and
    R^Q (matrices, three (k, n, n) stacks) and its descending R^L and R^Q
    values. A row holds the worst containment of its (p, q) quotient
    spectrum in the spectra of its L, R^L and R^Q (inf where a partition is
    not equitable), and its rq_quotient_report row, with both pairs and
    their containment in its R^Q spectrum. The quotients come from the
    (k, n) mask of the second blocks, arange(n) >= p: one m @ indicator per
    matrix gives each row's sums over the two blocks; the sum over all rows,
    -0.0 outside the block, gives each block's, adding its rows in order as
    quotient_matrix does, so bit for bit; and a masked max - min gives the
    spread of its row sums. One eigvals solves the quotients and one
    eigensolve the L."""
    pq = np.array(sizes)
    second = np.arange(matrices[0].shape[-1]) >= pq[:, :1]
    blocks = np.stack([~second, second], axis=-1)  # (k, n, 2): row i in block t
    row_sums = np.stack([m @ blocks.astype(float) for m in matrices], axis=1)[:, :, None]
    in_block = blocks.swapaxes(-1, -2)[:, None, :, :, None]  # (k, 1, 2, n, 1)
    quotients = np.where(in_block, row_sums, -0.0).sum(axis=-2) / pq[:, None, :, None]
    spread = (np.where(in_block, row_sums, -math.inf).max(axis=-2)
              - np.where(in_block, row_sums, math.inf).min(axis=-2))
    equitable = spread.max(axis=(-2, -1)) <= spectral._EQUITABLE_TOL
    # the quotient spectra of L, R^L and R^Q and both pairs, each in its parent spectrum
    err = _containment_error(
        np.stack([spectral._eigenvalues_in_place(matrices[0]), rl_values, rq_values, rq_values,
                  rq_values], axis=1),
        np.concatenate([np.linalg.eigvals(quotients).real, pairs], axis=1))
    containment = np.where(equitable, err[:, :3], math.inf).max(axis=-1).tolist()
    errors = err[:, 3:].tolist()
    return [(worst, dict(p=p, q=q, quotient=quotient_pair, quotient_err=quotient_err, pm=pm_pair,
                         pm_err=pm_err, pm_matches=bool(pm_err <= SPECTRUM_TOL)))
            for worst, (p, q), (quotient_pair, pm_pair), (quotient_err, pm_err)
            in zip(containment, sizes, pairs.tolist(), errors)]


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
    return [row for _, row in _measures(bipartite=_bipartite_specs(_read("max_pq", max_pq)))[1]]


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


def _measures(families=(), bipartite=(), corpus=(), trees=(), pairs=()) -> tuple[list, ...]:
    """One pass over every graph the run examines. Returns the rows of its
    five sources, each in input order: the _family_rows row of each family
    instance, the _quotient_rows row of each K_{p,q} of the quotient checks,
    the _corpus_measures row of each corpus graph, the distance error of
    each tree and the monotonicity error of each edge-addition pair (g, uv)
    from g to g + uv. The instances (each once, though a K_{p,q} may be a
    family and a quotient instance) and the graphs are grouped by order into
    one map n -> the indices of each source's members of order n. Per
    order, from the largest down so that each order's arrays fit in the
    memory the one before freed, there is one (k, n, n) stack: the
    Laplacians [instances, by key | corpus | trees | g | g + uv], then R in
    their memory. It holds R^L for one eigensolve of all of them and the
    corpus's row sums, R^L = Diag(RTr) - R by one negation and RTr on the
    diagonal, and R again, bit for bit, by a second negation and 0.0 on the
    diagonal. One row function per source reads its slice; the family and
    quotient rows form R^L, R^Q and L a chunk at a time. The distance sweep
    of the corpus and the trees reads the Laplacians before R overwrites
    them. g is assembled twice, and its second copy gets the edge uv added
    in place, exactly. Every measure is taken while its order's stack is
    alive, so no n x n array outlives its order."""
    # each instance once, keyed (order, kind, parameters), in key order
    keys = [(spec.order, FAMILY_KINDS.index(spec.kind), spec.params)
            for spec in (*families, *bipartite)]
    unique = sorted(set(keys))
    blocks = [key for key in unique if FAMILY_KINDS[key[1]] != "cycle"]
    cycles = {key[0] for key in unique if FAMILY_KINDS[key[1]] == "cycle"}
    # the closed forms of every K_n and K_{p,q}, from one call per kind, in the order of blocks
    forms = cf._Forms(*map(np.concatenate, zip(
        cf._complete(np.array([n for n, kind, _ in blocks if kind == 0], dtype=int)),
        cf._bipartite(*np.array([pq for _, kind, pq in blocks if kind == 1], dtype=int)
                      .reshape(-1, 2).T)))).take(
        np.argsort(np.argsort([kind for _, kind, _ in blocks], kind="stable")))
    quotients, routes = sorted(set(keys[len(families):])), {}
    if quotients:  # both routes' R^Q quotient pairs (2, 2), by key
        p, q = np.array([key[2] for key in quotients]).T
        routes = dict(zip(quotients, np.stack([np.column_stack(cf._rq_quotient_eigenvalues(p, q)),
                                               np.column_stack(cf._rq_pm_pair(p, q))], axis=1)))
    orders: dict[int, tuple[list[int], ...]] = {}
    for s, ns in enumerate(([key[0] for key in unique], [g.n for g in corpus],
                            [g.n for g in trees], [g.n for g, _ in pairs])):
        for i, n in enumerate(ns):
            orders.setdefault(n, ([], [], [], []))[s].append(i)
    rows = ({}, {}, {}, {}, {})  # by key for the instances, by input index for the graphs
    for n, (inst, corp, tree, pair) in sorted(orders.items(), reverse=True):
        instances, smaller = [unique[i] for i in inst], [pairs[i][0] for i in pair]
        graphs = [corpus[i] for i in corp] + [trees[i] for i in tree] + smaller + smaller
        lap = np.zeros((len(inst) + len(graphs), n, n))
        lo, hi = bisect_left(blocks, (n,)), bisect_left(blocks, (n + 1,))
        cycle = [cf._cycle(np.array([n]))] if n in cycles else []  # C_n's forms, for this order
        chunks = _chunks([forms.take(slice(lo, hi)), *cycle], n)
        for s, parts in chunks:  # L by formula
            lap[s] = cf._matrices(parts, "lap", n)
        if graphs:
            lap[len(inst):] = graph_mod._laplacians(graphs, n)
        cuts = [0, *accumulate(map(len, (inst, corp, tree, pair, pair)))]
        us, cs, ts, small, big = map(slice, cuts, cuts[1:])
        if pair:  # g + uv: g's rows with the entries of the edge uv added, exact integers
            k, (u, v) = np.arange(big.start, big.stop), np.array([pairs[i][1] for i in pair]).T
            lap[k, u, v] = lap[k, v, u] = -1.0
            lap[k, u, u] += 1.0
            lap[k, v, v] += 1.0
        # one distance sweep serves the corpus and the trees, and none runs without them
        dist, d = np.split(graph_mod._distances(lap[cs.start:ts.stop]), [len(corp)]) \
            if corp or tree else (None, None)
        r = resistance._resistance(resistance._generalized_inverse_in_place(lap))
        rtr = r.sum(axis=-2)
        rl = resistance._set_diagonal(np.negative(r, out=r), rtr)  # R^L in R's memory
        values = spectral._eigenvalues_in_place(rl)
        row_sums = np.abs(rl[cs].sum(axis=-1)).max(axis=-1)
        r = resistance._set_diagonal(np.negative(rl, out=rl), 0.0)  # R again, bit for bit
        if inst:
            family, quotient = _family_rows(instances, chunks, r[us], rtr[us], values[us], routes)
            rows[0].update(zip(instances, family))
            rows[1].update(quotient)
        if corp:  # the bounds reject an empty stack
            rows[2].update(zip(corp, _corpus_measures(r[cs], rtr[cs], values[cs], row_sums,
                                                      dist).tolist()))
        if tree:  # a tree's R is its D, so its RTr is DTr
            rows[3].update(zip(tree, np.maximum(
                np.abs(r[ts] - d).max(axis=(-2, -1)),
                np.abs(rtr[ts] - d.sum(axis=-2)).max(axis=-1)).tolist()))
        if pair:
            rows[4].update(zip(pair, np.maximum(
                (r[big] - r[small]).max(axis=(-2, -1)),
                (values[big] - values[small]).max(axis=-1)).tolist()))
        del lap, r, rl, values, dist, d, chunks  # before the next order's stack
    return ([rows[0][key] for key in keys[:len(families)]],
            [rows[1][key] for key in keys[len(families):]],
            *([o[i] for i in range(len(o))] for o in rows[2:]))


#: The family checks, in the column order of _family_rows, with their
#: tolerance; None stands for the tol argument of run_verify.
_FAMILY_CHECKS = (
    ("closed_form_matrices", None),
    ("closed_form_spectra", SPECTRUM_TOL),
    ("complete_energy_formula", None),
    ("transmission_regular_energy", ENERGY_EQUALITY_TOL),
)


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


def _corpus_measures(r, rtr, values, row_sums, dist) -> np.ndarray:
    """The measures of the _CORPUS_CHECKS on connected graphs of one order,
    from their slices of its stacks: R, RTr, the descending R^L values,
    max |row sum| of each R^L and the shortest-path distances. One row per
    graph, one column per check, each the worst violation of its property
    on that graph (<= 0 when it holds exactly). PSD and zero row sums are
    relative to max |lambda(R^L)|, the trace identity to max(1, sum RTr) and
    sum eta^2 = 2F to 2F."""
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
        row_sums / norm,
        2.0 - values[:, 0],
        (r - dist).max(axis=(-2, -1)),
        (r - shortest).max(axis=(-2, -1)),
        np.abs(values.sum(axis=-1) - total) / np.maximum(1.0, total),
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
    Results are deterministic for a fixed seed. ValueError unless seed is
    an integer, the other orders and counts are integers >= 0, tol is a
    finite number >= 0 and, for the random scope, max_n >= 2 and
    max_tree_n >= 2.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {', '.join(SCOPES)}, got {scope!r}")
    seed = _read("seed", seed, graph_mod._as_int, "an integer")
    max_n, count, tree_count, max_tree_n, pair_count, max_pq = (_read(*arg) for arg in (
        ("max_n", max_n), ("count", count), ("tree_count", tree_count),
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
    families = family_specs(max_n) if scope != "random" else []
    bipartite = _bipartite_specs(max_pq) if scope != "random" else []
    start = time.perf_counter()
    family_rows, quotient_rows, rows, tree_errors, edge_errors = _measures(
        families, bipartite, corpus, trees, pairs)
    pass_ms = (time.perf_counter() - start) * 1000.0
    outcomes = []
    if scope != "random":
        outcomes += _judge(_FAMILY_CHECKS, tol, family_rows, families)
        outcomes += _judge((("quotient_containment", CONTAINMENT_TOL),), tol, quotient_rows,
                           bipartite)
        report = [row for _, row in quotient_rows]  # its failure names no graph
        outcomes.append(_check("rq_bipartite_quotient_report", SPECTRUM_TOL,
                               ((row["quotient_err"], None) for row in report)))
        if report:
            outcomes[-1].detail = "\n".join(
                "K_{%d,%d}: quotient=(%.12g, %.12g) err=%.3g; pm=(%.12g, %.12g) %s" % (
                    row["p"], row["q"], *row["quotient"], row["quotient_err"], *row["pm"],
                    "matches" if row["pm_matches"] else
                    f"MISMATCH (err={row['pm_err']:.3g}; expected, reported only)")
                for row in report)
    if randoms:
        outcomes.append(VerifyOutcome(
            "random_corpus", "pass" if corpus else "skip", float(len(corpus)), None, draw_ms,
            f"{len(corpus)} connected graphs, 2 <= n <= {max_n}, seed {seed}"))
        outcomes += _judge(_CORPUS_CHECKS, tol, rows, corpus)
        outcomes.append(_check("edge_addition_monotonicity", tol,
                               zip(edge_errors, (g for g, _ in pairs))))
        outcomes.append(_check("tree_distance_equality", tol, zip(tree_errors, trees)))
    outcomes[0].elapsed_ms += pass_ms  # the first check of the run carries the pass
    return outcomes
