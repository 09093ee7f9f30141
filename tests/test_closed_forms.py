import math

import numpy as np
import pytest

from resq.closed_forms import (
    ClosedForm,
    bipartite_rl,
    bipartite_rl_spectrum,
    bipartite_rq,
    bipartite_rq_pm_formula,
    bipartite_rq_quotient,
    bipartite_rq_quotient_eigenvalues,
    bipartite_rq_spectrum,
    closed_form,
    complete_rl,
    complete_rl_spectrum,
    complete_rq,
    complete_rq_spectrum,
    cycle_resistance_row,
    cycle_rl,
    cycle_rq,
    cycle_spectra,
)
from resq.errors import InvalidFamilyParams
from resq.graph import FamilySpec, generate
from resq.resistance import resistance_laplacian, resistance_signless_laplacian
from resq.spectral import eigenvalues_symmetric


class TestCompleteForms:
    def test_n2(self):
        np.testing.assert_allclose(complete_rl(2), [[1, -1], [-1, 1]], atol=1e-15)
        np.testing.assert_allclose(complete_rq(2), [[1, 1], [1, 1]], atol=1e-15)

    def test_n4_rq_entries(self):
        rq = complete_rq(4)
        assert rq[0, 0] == pytest.approx(1.5)
        assert rq[0, 1] == pytest.approx(0.5)

    def test_n3_spectra(self):
        np.testing.assert_allclose(complete_rl_spectrum(3).values, [2, 2, 0], atol=1e-15)
        np.testing.assert_allclose(
            complete_rq_spectrum(3).values, [8 / 3, 2 / 3, 2 / 3], atol=1e-15
        )

    def test_against_numeric_pipeline(self):
        for n in (1, 2, 3, 7, 20, 50):
            g = generate(FamilySpec.complete(n))
            assert np.abs(complete_rl(n) - resistance_laplacian(g)).max() <= 1e-9
            assert np.abs(complete_rq(n) - resistance_signless_laplacian(g)).max() <= 1e-9

    def test_spectra_against_eigensolver(self):
        for n in (2, 5, 13, 40):
            rl_direct = eigenvalues_symmetric(complete_rl(n)).values
            rq_direct = eigenvalues_symmetric(complete_rq(n)).values
            assert np.abs(complete_rl_spectrum(n).values - rl_direct).max() <= 1e-8
            assert np.abs(complete_rq_spectrum(n).values - rq_direct).max() <= 1e-8

    def test_invalid(self):
        with pytest.raises(InvalidFamilyParams):
            complete_rl(0)

    def test_n1_spectra(self):
        assert complete_rl_spectrum(1).values.tolist() == [0.0]
        assert complete_rq_spectrum(1).values.tolist() == [0.0]


class TestBipartiteForms:
    def test_22_rl_entries(self):
        rl = bipartite_rl(2, 2)
        assert rl[0, 0] == pytest.approx(2.5)
        assert rl[0, 1] == pytest.approx(-1.0)  # within-part
        assert rl[0, 2] == pytest.approx(-0.75)  # across parts

    def test_22_rq_full_matrix(self):
        expected = np.array(
            [
                [2.5, 1.0, 0.75, 0.75],
                [1.0, 2.5, 0.75, 0.75],
                [0.75, 0.75, 2.5, 1.0],
                [0.75, 0.75, 1.0, 2.5],
            ]
        )
        np.testing.assert_allclose(bipartite_rq(2, 2), expected, atol=1e-15)
        numeric = resistance_signless_laplacian(generate(FamilySpec.bipartite(2, 2)))
        np.testing.assert_allclose(numeric, expected, atol=1e-12)

    def test_11_reduces_to_k2(self):
        np.testing.assert_allclose(bipartite_rl(1, 1), complete_rl(2), atol=1e-15)
        np.testing.assert_allclose(bipartite_rq(1, 1), complete_rq(2), atol=1e-15)

    def test_against_numeric_pipeline(self):
        for p, q in [(1, 1), (1, 4), (2, 2), (2, 3), (5, 3), (8, 8), (20, 20), (1, 20)]:
            g = generate(FamilySpec.bipartite(p, q))
            assert np.abs(bipartite_rl(p, q) - resistance_laplacian(g)).max() <= 1e-9
            assert (
                np.abs(bipartite_rq(p, q) - resistance_signless_laplacian(g)).max() <= 1e-9
            )

    def test_diagonal_is_the_transmission(self):
        for p, q in [(1, 1), (1, 7), (3, 5), (6, 2), (9, 9)]:
            rtr = [2.0 * (p - 1) / q + (p + q - 1.0) / p] * p
            rtr += [2.0 * (q - 1) / p + (p + q - 1.0) / q] * q
            np.testing.assert_array_equal(np.diag(bipartite_rl(p, q)), rtr)
            np.testing.assert_array_equal(np.diag(bipartite_rq(p, q)), rtr)

    def test_22_matches_cycle4_under_relabeling(self):
        # vertices of K_{2,2} in cycle order are 0, 2, 1, 3
        perm = [0, 2, 1, 3]
        relabeled = bipartite_rl(2, 2)[np.ix_(perm, perm)]
        np.testing.assert_allclose(relabeled, cycle_rl(4), atol=1e-12)


class TestBipartiteSpectra:
    def test_rl_22(self):
        np.testing.assert_allclose(
            bipartite_rl_spectrum(2, 2).values, [3.5, 3.5, 3.0, 0.0], atol=1e-12
        )

    def test_rl_21_against_eigensolver(self):
        values = bipartite_rl_spectrum(2, 1).values
        np.testing.assert_allclose(values, [5.0, 3.0, 0.0], atol=1e-12)
        direct = eigenvalues_symmetric(
            resistance_laplacian(generate(FamilySpec.bipartite(2, 1)))
        ).values
        assert np.abs(values - direct).max() <= 1e-8

    def test_rl_11(self):
        np.testing.assert_allclose(bipartite_rl_spectrum(1, 1).values, [2.0, 0.0], atol=1e-12)

    def test_rq_22(self):
        values = bipartite_rq_spectrum(2, 2).values
        np.testing.assert_allclose(values, [5.0, 2.0, 1.5, 1.5], atol=1e-12)
        direct = eigenvalues_symmetric(bipartite_rq(2, 2)).values
        assert np.abs(values - direct).max() <= 1e-8

    def test_rq_33_repeated_eigenvalue(self):
        values = bipartite_rq_spectrum(3, 3).values
        repeated = 2.0 * (3 - 2) / 3 + (3 + 3 - 1) / 3  # 7/3
        assert np.sum(np.abs(values - repeated) < 1e-12) == 4

    def test_rq_11(self):
        np.testing.assert_allclose(bipartite_rq_spectrum(1, 1).values, [2.0, 0.0], atol=1e-12)

    def test_spectra_match_numeric_for_many_sizes(self):
        for p, q in [(1, 2), (2, 4), (3, 3), (3, 7), (6, 2), (8, 8)]:
            g = generate(FamilySpec.bipartite(p, q))
            rl_direct = eigenvalues_symmetric(resistance_laplacian(g)).values
            rq_direct = eigenvalues_symmetric(resistance_signless_laplacian(g)).values
            assert np.abs(bipartite_rl_spectrum(p, q).values - rl_direct).max() <= 1e-8
            assert np.abs(bipartite_rq_spectrum(p, q).values - rq_direct).max() <= 1e-8

    def test_quotient_row_sums_match_block_matrix(self):
        for p, q in [(1, 1), (2, 2), (3, 5), (4, 1)]:
            rq = bipartite_rq(p, q)
            quot = bipartite_rq_quotient(p, q)
            assert quot[0, 0] == pytest.approx(rq[:p, :p].sum(axis=1)[0], abs=1e-12)
            assert quot[0, 1] == pytest.approx(rq[:p, p:].sum(axis=1)[0], abs=1e-12)
            assert quot[1, 0] == pytest.approx(rq[p:, :p].sum(axis=1)[0], abs=1e-12)
            assert quot[1, 1] == pytest.approx(rq[p:, p:].sum(axis=1)[0], abs=1e-12)

    def test_pm_formula_disagrees_at_22(self):
        quotient_pair = bipartite_rq_quotient_eigenvalues(2, 2)
        np.testing.assert_allclose(quotient_pair, (5.0, 2.0), atol=1e-12)
        pm_pair = bipartite_rq_pm_formula(2, 2)
        assert abs(pm_pair[0] - 5.0) > 0.1
        assert abs(pm_pair[1] - 2.0) > 0.1

    def test_pm_formula_accidentally_right_at_11(self):
        np.testing.assert_allclose(bipartite_rq_pm_formula(1, 1), (2.0, 0.0), atol=1e-12)


class TestCycleForms:
    def test_first_rows_n4(self):
        np.testing.assert_allclose(cycle_rl(4)[0], [2.5, -0.75, -1.0, -0.75], atol=1e-15)
        np.testing.assert_allclose(cycle_rq(4)[0], [2.5, 0.75, 1.0, 0.75], atol=1e-15)

    def test_n3_equals_triangle_forms(self):
        np.testing.assert_allclose(cycle_rl(3), complete_rl(3), atol=1e-12)
        np.testing.assert_allclose(cycle_rq(3), complete_rq(3), atol=1e-12)

    def test_n5_diagonal(self):
        assert cycle_rl(5)[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_resistance_row(self):
        np.testing.assert_allclose(cycle_resistance_row(4), [0.0, 0.75, 1.0, 0.75], atol=1e-15)

    def test_against_numeric_pipeline(self):
        for n in (3, 4, 9, 25, 50):
            g = generate(FamilySpec.cycle(n))
            assert np.abs(cycle_rl(n) - resistance_laplacian(g)).max() <= 1e-9
            assert np.abs(cycle_rq(n) - resistance_signless_laplacian(g)).max() <= 1e-9

    def test_invalid(self):
        with pytest.raises(InvalidFamilyParams):
            cycle_rl(2)


class TestCycleSpectra:
    def test_n4(self):
        rl_spec, rq_spec = cycle_spectra(4)
        np.testing.assert_allclose(rl_spec.values, [3.5, 3.5, 3.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(rq_spec.values, [5.0, 2.0, 1.5, 1.5], atol=1e-9)

    def test_n3(self):
        rl_spec, _ = cycle_spectra(3)
        np.testing.assert_allclose(rl_spec.values, [2.0, 2.0, 0.0], atol=1e-9)

    def test_matches_eigensolver(self):
        for n in (3, 4, 7, 16, 33, 64, 150):
            rl_spec, rq_spec = cycle_spectra(n)
            rl_direct = eigenvalues_symmetric(cycle_rl(n)).values
            rq_direct = eigenvalues_symmetric(cycle_rq(n)).values
            assert np.abs(rl_spec.values - rl_direct).max() <= 1e-8
            assert np.abs(rq_spec.values - rq_direct).max() <= 1e-8

    def test_rl_contains_zero_exactly_once(self):
        for n in range(3, 31):
            rl_spec, _ = cycle_spectra(n)
            assert np.sum(np.abs(rl_spec.values) <= 1e-9) == 1


class TestClosedFormDispatcher:
    def test_families(self):
        for spec in (FamilySpec.complete(5), FamilySpec.bipartite(2, 3), FamilySpec.cycle(6)):
            form = closed_form(spec)
            assert isinstance(form, ClosedForm)
            assert form.family == spec
            n = spec.order
            assert form.rl_matrix.shape == (n, n)
            assert len(form.rl_spectrum) == n
            # spectrum sums must equal traces
            assert form.rl_spectrum.values.sum() == pytest.approx(
                np.trace(form.rl_matrix), abs=1e-8
            )
            assert form.rq_spectrum.values.sum() == pytest.approx(
                np.trace(form.rq_matrix), abs=1e-8
            )

    def test_path_has_no_closed_form(self):
        with pytest.raises(InvalidFamilyParams):
            closed_form(FamilySpec.path(4))

    def test_pm_formula_nan_guard(self):
        hi, lo = bipartite_rq_pm_formula(1, 1)
        assert not math.isnan(hi) and not math.isnan(lo)
