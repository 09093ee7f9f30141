import math

import numpy as np
import pytest

import resq.resistance
from resq.closed_forms import closed_form
from resq.energy import resistance_laplacian_energy
from resq.graph import (
    FamilySpec,
    classical_distance_matrix,
    format_edge_list,
    generate,
    laplacian,
    parse_edge_list,
)
from resq.resistance import (
    resistance_bundle,
    resistance_laplacian,
    resistance_signless_laplacian,
)
from resq.spectral import Partition, eigenvalues_symmetric, quotient_matrix
from resq.verify import (
    _CORPUS_CHECKS,
    VerifyOutcome,
    _by_order,
    _check,
    _closed_matrix_error,
    _closed_spectrum_error,
    _complete_energy_error,
    _corpus_measures,
    _energy_equality_error,
    _family_measures,
    _quotient_containment_error,
    _random_graphs,
    family_specs,
    rq_quotient_report,
    run_verify,
)


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
    def test_stacked_engine_matches_per_graph(self, monkeypatch, seed):
        args = dict(scope="all", seed=seed, max_n=12, count=60, tree_count=30, pair_count=40)
        stacked = run_verify(**args)
        res = resq.resistance
        monkeypatch.setattr(
            res,
            "_stacked_bundle",
            lambda laps: res._bundle(
                np.stack([res._resistance(res.laplacian_pseudoinverse(lap)) for lap in laps])
            ),
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
                "rl_trace_identity": abs(float(np.trace(b.rl)) - total) / max(1.0, total),
                "eta_sum_zero": abs(float(report.eta.sum())) / g.n,
                "eta_square_sum_2F":
                    abs(float((report.eta**2).sum()) - two_f) / max(two_f, 1e-300),
                "energy_bounds": max(-c.slack for c in report.bounds.values()),
            })
        rows = _by_order(graphs, lambda n, idx: _corpus_measures([graphs[i] for i in idx], n))
        assert [dict(zip(names, row)) for row in rows] == expected
        worst = {name: max(e[name] for e in expected) for name in names}
        outcomes = {o.name: o for o in run_verify(scope="random", seed=seed, max_n=12, count=80,
                                                  tree_count=0, pair_count=0)}
        assert {name: outcomes[name].measured for name in names} == worst
        # A measure that reads 0.0 on every graph could match by accident.
        # Only rl_trace_identity does, because the diagonal of R^L is RTr.
        nonzero = {name for name in names if any(e[name] != 0.0 for e in expected)}
        assert nonzero == set(names) - {"rl_trace_identity"}

    def test_each_family_measure_matches_per_graph_functions(self):
        # The five family measures, recomputed here per instance from the
        # public functions behind `resq compute --what rl|rq|energy`, equal
        # the stacked engine's value for that instance, and each family
        # outcome's measured value is their worst, all bit for bit.
        specs = family_specs(12)
        bipartite = [FamilySpec.bipartite(p, q) for p in range(1, 9) for q in range(p, 9)]
        measures = {
            "closed_form_matrices": _closed_matrix_error,
            "closed_form_spectra": _closed_spectrum_error,
            "complete_energy_formula": _complete_energy_error,
            "transmission_regular_energy": _energy_equality_error,
            "quotient_containment": _quotient_containment_error,
        }
        expected = {name: {} for name in measures}
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
        table = _family_measures([(list(expected[name]), measures[name]) for name in measures])
        for j, (name, values) in enumerate(expected.items()):
            assert {spec: table[spec][j] for spec in values} == values, name
        outcomes = {o.name: o for o in run_verify(scope="families", max_n=12, max_pq=8)}
        worst = {name: max(values.values()) for name, values in expected.items()}
        assert {name: outcomes[name].measured for name in measures} == worst
        # A measure that reads 0.0 on every instance could match by accident.
        assert all(value > 0.0 for value in worst.values()), worst

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

    def test_families_scope_of_order_one_skips(self):
        outcomes = run_verify(scope="families", max_n=1, max_pq=0)
        assert outcomes and all(o.status == "skip" for o in outcomes)


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
        def broken(bundle):
            return resq.resistance._set_diagonal(-bundle.r, bundle.rtr)

        monkeypatch.setattr(resq.resistance.ResistanceBundle, "rq", property(broken))
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
        outcome = _check("probe", 1e-9, lambda: iter(pairs))
        assert outcome.status == "fail"
        assert math.isnan(outcome.measured)
        assert outcome.failing_graph == format_edge_list(bad)

    def test_first_of_equal_worst_values_is_named(self):
        first, second = self.graphs()
        outcome = _check("probe", 1.0, lambda: iter([(0.5, first), (2.0, first), (2.0, second)]))
        assert (outcome.status, outcome.measured) == ("fail", 2.0)
        assert outcome.failing_graph == format_edge_list(first)
