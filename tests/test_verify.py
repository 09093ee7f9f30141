import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

import resq.resistance
from resq.closed_forms import _rq_quotient_eigenvalues, bipartite_rq_pm_formula, closed_form
from resq.energy import resistance_laplacian_energy
from resq.graph import (
    FamilySpec,
    add_edge,
    classical_distance_matrix,
    format_edge_list,
    generate,
    laplacian,
    non_edges,
    parse_edge_list,
    random_connected_graph,
)
from resq.resistance import (
    resistance_bundle,
    resistance_laplacian,
    resistance_signless_laplacian,
)
from resq.spectral import Partition, eigenvalues_symmetric, quotient_matrix
from resq.verify import (
    _CORPUS_CHECKS,
    _FAMILY_CHECKS,
    VerifyOutcome,
    _check,
    _measures,
    _edge_pairs,
    _random_graphs,
    _random_trees,
    _vertex_pairs,
    family_specs,
    rq_quotient_report,
    run_verify,
)


#: The arguments of the benchmark's verify_suite workload, but scope and seed.
PINNED = dict(max_n=12, count=200, tree_count=100, max_tree_n=15, pair_count=200, max_pq=8,
              tol=1e-9)


class TestRunVerify:
    def test_families_scope_passes(self):
        outcomes = run_verify(scope="families", max_n=8)
        assert outcomes and all(o.passed for o in outcomes)
        names = [o.name for o in outcomes]
        assert "closed_form_matrices" in names
        assert "rq_bipartite_quotient_report" in names

    def test_random_scope_passes(self):
        outcomes = run_verify(scope="random", seed=11, max_n=9, count=40,
                              tree_count=25, pair_count=30)
        assert all(o.passed for o in outcomes)
        names = [o.name for o in outcomes]
        for expected in (
            "rl_positive_semidefinite",
            "rl_zero_row_sums",
            "rl_spectral_radius_at_least_2",
            "resistance_below_distance",
            "resistance_triangle_inequality",
            "rl_trace_identity",
            "eta_sum_zero",
            "eta_square_sum_2F",
            "energy_bounds",
            "edge_addition_monotonicity",
            "tree_distance_equality",
        ):
            assert expected in names

    def test_all_scope_runs_both(self):
        outcomes = run_verify(scope="all", seed=0, max_n=6, count=12,
                              tree_count=8, pair_count=8, max_pq=4)
        names = [o.name for o in outcomes]
        assert "closed_form_spectra" in names and "energy_bounds" in names

    def test_outcome_fields(self):
        outcomes = run_verify(scope="families", max_n=5, max_pq=3)
        for o in outcomes:
            assert isinstance(o, VerifyOutcome)
            assert o.status in ("pass", "fail", "skip")
            assert o.elapsed_ms >= 0.0
            payload = o.to_json()
            assert payload["name"] == o.name

    def test_deterministic_for_fixed_seed(self):
        a = run_verify(scope="random", seed=5, max_n=7, count=15, tree_count=5, pair_count=5)
        b = run_verify(scope="random", seed=5, max_n=7, count=15, tree_count=5, pair_count=5)
        assert [(o.name, o.measured) for o in a] == [(o.name, o.measured) for o in b]

    def test_no_bipartite_pairs_skip(self):
        outcomes = {o.name: o for o in run_verify(scope="families", max_n=4, max_pq=0)}
        for name in ("quotient_containment", "rq_bipartite_quotient_report"):
            assert outcomes[name].status == "skip"
            assert outcomes[name].measured is None
        assert outcomes["closed_form_matrices"].status == "pass"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_all_scope_equals_families_then_random(self, seed):
        # The one pass of scope "all" stacks the family instances with the
        # random graphs of each order; no source's graphs may leak into
        # another's measures.
        def fields(outcomes):
            return [{k: v for k, v in o.to_json().items() if k != "elapsed_ms"} for o in outcomes]

        both = run_verify(scope="all", seed=seed, **PINNED)
        split = (run_verify(scope="families", seed=seed, **PINNED)
                 + run_verify(scope="random", seed=seed, **PINNED))
        assert fields(both) == fields(split)

    def test_one_block_elimination_and_one_eigvals_per_order(self, monkeypatch):
        calls = {"_generalized_inverse_in_place": [], "eigvals": []}
        for module, name in ((resq.resistance, "_generalized_inverse_in_place"),
                             (np.linalg, "eigvals")):
            def counted(m, fn=getattr(module, name), name=name):
                calls[name].append(m.shape)
                return fn(m)

            monkeypatch.setattr(module, name, counted)
        outcomes = run_verify(scope="all", seed=1, **PINNED)
        assert all(o.passed for o in outcomes)
        orders = [shape[-1] for shape in calls["_generalized_inverse_in_place"]]
        assert sorted(orders) == list(range(2, 17))  # trees to 15, K_{8,8} at 16
        # the quotients of L, R^L and R^Q of every K_{p,q}, p <= q <= 8, of one
        # order in one (k, 3, 2, 2) stack: one eigvals for each of orders 2 to 16
        quotients = calls["eigvals"]
        assert all(len(shape) == 4 and shape[1:] == (3, 2, 2) for shape in quotients)
        assert sorted(shape[0] for shape in quotients) == sorted(
            sum(p + q == n for p in range(1, 9) for q in range(p, 9)) for n in range(2, 17))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_stacked_engine_matches_per_graph(self, monkeypatch, seed):
        args = dict(scope="all", seed=seed, max_n=12, count=60, tree_count=30, pair_count=40)
        stacked = run_verify(**args)
        res = resq.resistance
        monkeypatch.setattr(
            res,
            "_generalized_inverse_in_place",
            lambda laps, inverse=res._generalized_inverse_in_place: np.stack(
                [inverse(lap.copy()) for lap in laps]),
        )
        per_graph = run_verify(**args)
        key = [(o.name, o.status, o.measured) for o in stacked]
        assert key == [(o.name, o.status, o.measured) for o in per_graph]
        assert all(o.passed for o in stacked)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_each_corpus_measure_matches_per_graph_functions(self, seed):
        # Every graph's corpus measures, recomputed here from the public
        # per-graph functions, equal the stacked engine's row for that graph,
        # and each check's measured value is their worst. The stacked engine
        # adds in the same order, so all of it agrees bit for bit.
        graphs = _random_graphs(80, 12, seed)
        names = [name for name, _ in _CORPUS_CHECKS]
        expected = []
        for g in graphs:
            b = resistance_bundle(g)
            values = eigenvalues_symmetric(b.rl).values
            report = resistance_laplacian_energy(g)
            norm = max(float(np.abs(values).max()), 1e-300)
            sums = b.r[:, :, None] + b.r[None, :, :]  # sums[i, k, j] = r[i,k] + r[k,j]
            total = float(b.rtr.sum())
            two_f = 2.0 * report.F
            expected.append({
                "rl_positive_semidefinite": float(-values.min()) / norm,
                "rl_zero_row_sums": float(np.abs(b.rl.sum(axis=1)).max()) / norm,
                "rl_spectral_radius_at_least_2": 2.0 - float(values[0]),
                "resistance_below_distance": float((b.r - classical_distance_matrix(g)).max()),
                "resistance_triangle_inequality": float((b.r - sums.min(axis=1)).max()),
                "rl_trace_identity": abs(float(values.sum()) - total) / max(1.0, total),
                "eta_sum_zero": abs(float(report.eta.sum())) / g.n,
                "eta_square_sum_2F":
                    abs(float((report.eta**2).sum()) - two_f) / max(two_f, 1e-300),
                "energy_bounds": max(-c.slack for c in report.bounds.values()),
            })
        rows = _measures(corpus=graphs)[2]
        assert [dict(zip(names, row)) for row in rows] == expected
        worst = {name: max(e[name] for e in expected) for name in names}
        outcomes = {o.name: o for o in run_verify(scope="random", seed=seed, max_n=12, count=80,
                                                  tree_count=0, pair_count=0)}
        assert {name: outcomes[name].measured for name in names} == worst
        # A measure that reads 0.0 on every graph could match by accident.
        assert all(any(e[name] != 0.0 for e in expected) for name in names)

    def test_trace_identity_sees_a_shifted_eigenvalue(self, monkeypatch):
        # sum lambda(R^L) = trace R^L = sum RTr: a wrong eigenvalue breaks it,
        # where trace R^L, read off the diagonal RTr, could not
        solve = resq.spectral._eigenvalues_in_place

        def shifted(m):
            values = solve(m)
            values[..., 0] += 1e-4
            return values

        monkeypatch.setattr(resq.spectral, "_eigenvalues_in_place", shifted)
        outcomes = {o.name: o for o in run_verify(scope="random", seed=3, max_n=12, count=40,
                                                  tree_count=0, pair_count=0)}
        trace = outcomes["rl_trace_identity"]
        assert trace.status == "fail" and trace.measured > trace.tolerance
        assert parse_edge_list(trace.failing_graph).n >= 2

    def test_each_family_measure_matches_per_graph_functions(self):
        # The five family measures, recomputed here per instance from the
        # public functions behind `resq compute --what rl|rq|energy` and the
        # public closed_form, equal the row of that instance from the
        # stacked engine, which compares the closed forms' parameters by
        # broadcasting (None where a check does not examine it), and each
        # family outcome's measured value is their worst, all bit for bit,
        # for every family instance up to order 40.
        specs = family_specs(40)
        bipartite = [FamilySpec.bipartite(p, q) for p in range(1, 9) for q in range(p, 9)]
        names = [name for name, _ in _FAMILY_CHECKS] + ["quotient_containment"]
        expected = {name: {} for name in names}
        report_errors = {}  # the quotient and +/- pairs' containment in the R^Q spectrum
        for spec in dict.fromkeys(specs + bipartite):
            g = generate(spec)
            rl, rq = resistance_laplacian(g), resistance_signless_laplacian(g)
            rl_values = eigenvalues_symmetric(rl).values
            rq_values = eigenvalues_symmetric(rq).values
            if spec in specs:
                closed = closed_form(spec)
                expected["closed_form_matrices"][spec] = max(
                    float(np.abs(closed.rl_matrix - rl).max()),
                    float(np.abs(closed.rq_matrix - rq).max()))
                expected["closed_form_spectra"][spec] = max(
                    float(np.abs(closed.rl_spectrum.values - rl_values).max()),
                    float(np.abs(closed.rq_spectrum.values - rq_values).max()))
                report = resistance_laplacian_energy(g)
                if spec.kind == "complete":
                    expected["complete_energy_formula"][spec] = abs(
                        report.le_r - 4.0 * (1.0 - 1.0 / g.n))
                if spec.kind != "bipartite" or spec.params[0] == spec.params[1]:
                    expected["transmission_regular_energy"][spec] = abs(report.le_r - report.e_r)
            if spec in bipartite:
                partition = Partition.from_sizes(*spec.params)
                lap = laplacian(g)
                errors = []
                for m, parent in ((lap, eigenvalues_symmetric(lap).values),
                                  (rl, rl_values), (rq, rq_values)):
                    quotient, equitable = quotient_matrix(m, partition)
                    values = np.linalg.eigvals(quotient).real
                    err = max(float(np.abs(parent - v).min()) for v in values)
                    errors.append(err if equitable else math.inf)
                expected["quotient_containment"][spec] = max(errors)
                report_errors[spec] = [
                    float(np.abs(rq_values[:, None] - np.array(pair)).min(axis=0).max())
                    for pair in (_rq_quotient_eigenvalues(*spec.params),
                                 bipartite_rq_pm_formula(*spec.params))]
        family_rows, quotient_rows = _measures(specs, bipartite)[:2]
        assert family_rows == [tuple(expected[name].get(spec) for name in names[:-1])
                               for spec in specs]
        assert [worst for worst, _ in quotient_rows] == [
            expected["quotient_containment"][spec] for spec in bipartite]
        rows = rq_quotient_report(max_pq=8)
        assert [row for _, row in quotient_rows] == rows
        assert [[row["quotient_err"], row["pm_err"]] for row in rows] == [
            report_errors[spec] for spec in bipartite]
        outcomes = {o.name: o for o in run_verify(scope="families", max_n=40, max_pq=8)}
        worst = {name: max(values.values()) for name, values in expected.items()}
        assert {name: outcomes[name].measured for name in names} == worst
        # A measure that reads 0.0 on every instance could match by accident.
        assert all(value > 0.0 for value in worst.values()), worst

    def test_families_scope_peak_is_at_most_the_per_instance_engines(self, monkeypatch):
        # The closed forms go a chunk at a time, so no (k, n, n) stack of
        # them is built, and each order keeps one stack, R, beside chunks of
        # its R^L and R^Q. The bounds are this engine's tracemalloc peaks
        # (numpy 2.4, Python 3.11): the run's, plus 1%, which is reached in
        # _resistance's tile temporaries and was 3,280,828 B for the engine
        # that built one ClosedForm per instance; and the peak while the
        # family rows of an order are taken, plus 5%, which a second
        # (32, 60, 60) stack of 921,600 B beside R would exceed.
        rows, peaks = resq.verify._family_rows, []

        def measured(*args):
            tracemalloc.reset_peak()
            out = rows(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        run_verify(scope="families", max_n=60)
        tracemalloc.start()
        try:
            outcomes = run_verify(scope="families", max_n=60)
            peak = tracemalloc.get_traced_memory()[1]
            monkeypatch.setattr(resq.verify, "_family_rows", measured)
            run_verify(scope="families", max_n=60)
        finally:
            tracemalloc.stop()
        assert all(o.status == "pass" for o in outcomes)
        assert peak <= 3_279_850
        assert len(peaks) == 59 and max(peaks) <= 2_424_346

    def test_each_instance_is_stacked_once_and_its_forms_made_once_a_run(self, monkeypatch):
        # A K_{p,q} that is both a family and a quotient instance enters its
        # order's stack once; the closed forms of all K_{p,q} come from one
        # call a run, and no run reuses another's.
        rows, calls = [], []
        inverse = resq.resistance._generalized_inverse_in_place
        bipartite = resq.closed_forms._bipartite
        monkeypatch.setattr(resq.resistance, "_generalized_inverse_in_place",
                            lambda laps: rows.append(len(laps)) or inverse(laps))
        monkeypatch.setattr(resq.closed_forms, "_bipartite",
                            lambda p, q: calls.append(len(p)) or bipartite(p, q))
        for _ in range(2):
            run_verify(scope="families", max_n=12, max_pq=8)
        specs = set(family_specs(12)) | {FamilySpec.bipartite(p, q)
                                         for p in range(1, 9) for q in range(p, 9)}
        assert sum(rows) == 2 * len(specs) and len(specs) < len(family_specs(12)) + 36
        assert calls == [sum(s.kind == "bipartite" for s in specs)] * 2

    def test_a_wrong_closed_form_parameter_fails_and_names_its_instance(self, monkeypatch):
        # The across-part constant of K_{3,5}'s R^L and R^Q, off by 1e-6: the
        # matrix check fails on that instance alone, the spectra check passes.
        bipartite = resq.closed_forms._bipartite

        def wrong(p, q):
            forms = bipartite(p, q)
            off = 1e-6 * ((p == 3) & (q == 5))
            forms.rl[:, 4] -= off
            forms.rq[:, 4] += off
            return forms

        monkeypatch.setattr(resq.closed_forms, "_bipartite", wrong)
        outcomes = {o.name: o for o in run_verify(scope="families", max_n=10, max_pq=4)}
        matrices = outcomes["closed_form_matrices"]
        assert matrices.status == "fail" and matrices.measured > 1e-7
        assert matrices.detail == "worst instance K_{3,5}"
        assert matrices.failing_graph == format_edge_list(generate(FamilySpec.bipartite(3, 5)))
        assert outcomes["closed_form_spectra"].status == "pass"

    def test_every_check_kind_reports_failures(self):
        # At a tolerance below rounding, family, corpus, edge-addition and
        # tree checks all fail; the quotient report keeps its own tolerance.
        outcomes = {o.name: o for o in run_verify(scope="all", seed=7, max_n=8, count=30,
                                                  tol=1e-30)}
        kinds = {
            "family": ["closed_form_matrices", "closed_form_spectra",
                       "complete_energy_formula", "transmission_regular_energy",
                       "quotient_containment"],
            "corpus": ["rl_positive_semidefinite", "rl_zero_row_sums",
                       "rl_spectral_radius_at_least_2", "resistance_below_distance",
                       "resistance_triangle_inequality", "rl_trace_identity", "eta_sum_zero",
                       "eta_square_sum_2F", "energy_bounds"],
            "edge": ["edge_addition_monotonicity"],
            "tree": ["tree_distance_equality"],
        }
        graph_of = {f"worst instance {s.label()}": format_edge_list(generate(s))
                    for s in family_specs(16)}
        for kind, names in kinds.items():
            failed = [outcomes[name] for name in names if outcomes[name].status == "fail"]
            assert failed, kind
            for o in failed:
                assert o.measured > o.tolerance
                assert parse_edge_list(o.failing_graph).n >= 2
                if kind == "family":
                    assert graph_of[o.detail] == o.failing_graph, o.name
                else:
                    assert o.detail == "", o.name
        report = outcomes["rq_bipartite_quotient_report"]
        assert report.failing_graph is None
        lines = report.detail.splitlines()
        assert len(lines) == 36 and all(ln.startswith("K_{") for ln in lines)

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            run_verify(scope="everything")

    @pytest.mark.parametrize("scope", ["random", "all"])
    @pytest.mark.parametrize("arg", ["max_n", "max_tree_n"])
    def test_random_scope_needs_orders_of_two(self, scope, arg):
        with pytest.raises(ValueError, match=f"{arg} must be >= 2"):
            run_verify(scope=scope, count=3, **{arg: 1})

    @pytest.mark.parametrize("call, kwargs, name", [
        (run_verify, {"seed": 1.5, "scope": "random", "max_n": 4, "count": 3}, "seed"),
        (run_verify, {"max_n": 6.5, "scope": "families"}, "max_n"),
        (run_verify, {"count": "3", "scope": "random", "max_n": 4}, "count"),
        (run_verify, {"max_pq": 2.5, "scope": "families", "max_n": 3}, "max_pq"),
        (run_verify, {"tol": math.nan, "scope": "families", "max_n": 3}, "tol"),
        (run_verify, {"tol": math.inf, "scope": "families", "max_n": 3}, "tol"),
        (run_verify, {"tol": -1e-9, "scope": "families", "max_n": 3}, "tol"),
        (run_verify, {"tol": "abc", "scope": "families", "max_n": 3}, "tol"),
        (run_verify, {"tol": 10**400, "scope": "families", "max_n": 3}, "tol"),
        (rq_quotient_report, {"max_pq": 2.5}, "max_pq"),
        (rq_quotient_report, {"max_pq": None}, "max_pq"),
        (run_verify, {"count": -5, "scope": "random", "max_n": 4}, "count"),
        (run_verify, {"max_pq": -2, "scope": "families", "max_n": 3}, "max_pq"),
        (run_verify, {"tree_count": -3, "scope": "random", "max_n": 4, "count": 3}, "tree_count"),
        (run_verify, {"pair_count": -1, "scope": "random", "max_n": 4, "count": 3}, "pair_count"),
        (run_verify, {"max_n": -1, "scope": "families"}, "max_n"),
        (rq_quotient_report, {"max_pq": -1}, "max_pq"),
    ])
    def test_arguments_from_outside_raise_value_error_naming_them(self, call, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(**kwargs)

    def test_numpy_integer_arguments_read_as_ints(self):
        fields = [(o.name, o.status, o.measured) for o in run_verify(seed=1, max_n=5, count=5)]
        numpy_args = run_verify(seed=np.int64(1), max_n=np.int32(5), count=np.int64(5),
                                tol=np.float64(1e-9))
        assert [(o.name, o.status, o.measured) for o in numpy_args] == fields

    def test_families_scope_of_order_one_skips(self):
        outcomes = run_verify(scope="families", max_n=1, max_pq=0)
        assert outcomes and all(o.status == "skip" for o in outcomes)


class TestRandomDraws:
    @pytest.mark.parametrize("seed, digest", [
        (0, "4d83482290542545e34cf02b7124a6381258fddd41754b6e23f76676ebd1b484"),
        (1, "62629e5fd12fc8d03cf0d34367b503097766d217ec89b639121aee93c3b03959"),
        (2, "cba6a3e9a1fa77b24f469810c8cb3f612aee5dc1261c75343f23078c2928929c"),
    ])
    def test_draws_pinned(self, seed, digest):
        # Every graph, and every uv, that run_verify draws at the benchmark's
        # arguments, as run_verify seeds its three sources.
        h = hashlib.sha256()
        for g in _random_graphs(PINNED["count"], PINNED["max_n"], seed):
            h.update(format_edge_list(g).encode())
        for g, (u, v) in _edge_pairs(PINNED["pair_count"], PINNED["max_n"], seed + 1):
            h.update(format_edge_list(g).encode())
            h.update(f"{u} {v}\n".encode())
        for g in _random_trees(PINNED["tree_count"], PINNED["max_tree_n"], seed + 2):
            h.update(format_edge_list(g).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("seed", [0, 5])
    def test_draws_equal_the_public_generators_called_one_by_one(self, seed):
        rng = random.Random(seed)
        corpus = [random_connected_graph(rng.randint(2, 12), rng.uniform(0.2, 0.9),
                                         rng.randrange(2**31)) for _ in range(150)]
        rng, pairs = random.Random(seed + 1), []
        while len(pairs) < 150:
            g = random_connected_graph(rng.randint(3, 12), rng.uniform(0.2, 0.8),
                                       rng.randrange(2**31))
            missing = non_edges(g)
            if missing:
                pairs.append((g, missing[rng.randrange(len(missing))]))
        shared = _vertex_pairs()
        drawn = _random_graphs(150, 12, seed, shared)
        assert drawn == corpus
        assert _edge_pairs(150, 12, seed + 1, shared) == pairs
        # the draws keep no edge tuple: their edge arrays are views of one array
        assert all(g.edge_array.base is drawn[0].edge_array.base for g in drawn)

    def test_stacked_g_plus_uv_rows_equal_the_laplacian_of_add_edge(self, monkeypatch):
        stacks = {}
        inverse = resq.resistance._generalized_inverse_in_place

        def captured(lap):
            stacks[lap.shape[-1]] = lap.copy()
            return inverse(lap)

        monkeypatch.setattr(resq.resistance, "_generalized_inverse_in_place", captured)
        corpus = [random_connected_graph(2, 0.5, 0), random_connected_graph(14, 0.5, 1)]
        pairs = _edge_pairs(40, 14, 3)
        _measures(corpus=corpus, pairs=pairs)
        assert max(g.n for g, _ in pairs) == 14  # the largest order has pairs
        assert stacks[2].tobytes() == laplacian(corpus[0]).tobytes()  # an order with no pair
        for n, lap in stacks.items():
            at_n = [(g, uv) for g, uv in pairs if g.n == n]
            expected = [laplacian(g) for g, _ in at_n] + [laplacian(add_edge(g, *uv))
                                                          for g, uv in at_n]
            assert lap.shape[0] == sum(g.n == n for g in corpus) + len(expected)
            if expected:
                assert lap[-len(expected):].tobytes() == np.stack(expected).tobytes()


class TestFamilySpecs:
    def test_orders_capped(self):
        specs = family_specs(10)
        assert all(s.order <= 10 for s in specs)
        kinds = {s.kind for s in specs}
        assert kinds == {"complete", "bipartite", "cycle"}


class TestQuotientDiscrepancyReport:
    def test_quotient_route_matches_numeric(self):
        rows = rq_quotient_report(max_pq=8)
        assert len(rows) == 36  # unordered pairs with p <= q <= 8
        assert max(row["quotient_err"] for row in rows) <= 1e-8

    def test_pm_formula_flagged_at_22(self):
        rows = rq_quotient_report(max_pq=4)
        row = next(r for r in rows if r["p"] == 2 and r["q"] == 2)
        assert row["pm_matches"] is False
        assert row["pm_err"] > 0.1
        assert not any(math.isnan(v) for v in row["pm"])

    def test_report_lines_rendered(self):
        outcomes = run_verify(scope="families", max_n=5, max_pq=4)
        report = next(o for o in outcomes if o.name == "rq_bipartite_quotient_report")
        assert report.passed
        assert "K_{2,2}" in report.detail
        assert "MISMATCH" in report.detail


class TestFailurePath:
    def test_broken_sign_is_caught_and_graph_serialized(self, monkeypatch):
        def broken(r, rtr):
            return resq.resistance._set_diagonal(-r, rtr)

        monkeypatch.setattr(resq.resistance, "_signless", broken)
        outcomes = run_verify(scope="families", max_n=5, max_pq=3)
        failed = [o for o in outcomes if not o.passed]
        assert any(o.name == "closed_form_matrices" for o in failed)
        worst = next(o for o in failed if o.name == "closed_form_matrices")
        assert worst.failing_graph is not None
        g = parse_edge_list(worst.failing_graph)
        assert g.n >= 2


class TestCheckRunner:
    @staticmethod
    def graphs():
        return generate(FamilySpec.path(3)), generate(FamilySpec.cycle(4))

    @pytest.mark.parametrize("values", [(0.0, math.nan), (math.nan,), (math.nan, 5.0)])
    def test_nan_counts_as_worst(self, values):
        # NaN compares false with everything, so a plain maximum would skip it
        clean, bad = self.graphs()
        pairs = [(v, bad if math.isnan(v) else clean) for v in values]
        outcome = _check("probe", 1e-9, pairs)
        assert outcome.status == "fail"
        assert math.isnan(outcome.measured)
        assert outcome.failing_graph == format_edge_list(bad)

    def test_first_of_equal_worst_values_is_named(self):
        first, second = self.graphs()
        outcome = _check("probe", 1.0, [(0.5, first), (2.0, first), (2.0, second)])
        assert (outcome.status, outcome.measured) == ("fail", 2.0)
        assert outcome.failing_graph == format_edge_list(first)
