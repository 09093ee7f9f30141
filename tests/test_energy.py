import ctypes
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resq.energy
import resq.spectral
from resq.energy import (
    EnergyReport,
    _perron_root,
    check_bounds,
    energy_moments,
    resistance_laplacian_energy,
)
from resq.errors import NegativeRadicand
from resq.graph import FamilySpec, Graph, generate, random_connected_graph
from resq.resistance import (
    ResistanceBundle,
    resistance_bundle,
    resistance_laplacian,
    resistance_matrix,
)


def _report_with(n, mean_u, big_f, eta1, le_r):
    return EnergyReport(
        n=n,
        mean_transmission=mean_u,
        eta=np.array([eta1, -mean_u]),
        f=big_f,
        F=big_f,
        le_r=le_r,
        e_r=le_r,
        bounds={},
    )


class TestCenteredEigenvalues:
    """eta: the R^L eigenvalues minus the mean transmission, descending."""

    def test_k4(self):
        eta = resistance_laplacian_energy(generate(FamilySpec.complete(4))).eta
        np.testing.assert_allclose(eta, [0.5, 0.5, 0.5, -1.5], atol=1e-9)

    def test_k2(self):
        eta = resistance_laplacian_energy(generate(FamilySpec.complete(2))).eta
        np.testing.assert_allclose(eta, [1.0, -1.0], atol=1e-12)

    def test_cycle4(self):
        eta = resistance_laplacian_energy(generate(FamilySpec.cycle(4))).eta
        np.testing.assert_allclose(eta, [1.0, 1.0, 0.5, -2.5], atol=1e-9)


class TestEnergyMoments:
    def test_complete_graphs(self):
        # f = C(n,2) * (2/n)^2 = 2(n-1)/n and F = f for transmission-regular
        for n in range(2, 12):
            bundle = resistance_bundle(generate(FamilySpec.complete(n)))
            f, big_f = energy_moments(bundle.r, bundle.rtr)
            assert f == pytest.approx(2.0 * (n - 1) / n, abs=1e-12)
            assert big_f == pytest.approx(f, abs=1e-12)

    def test_k2(self):
        bundle = resistance_bundle(generate(FamilySpec.complete(2)))
        assert energy_moments(bundle.r, bundle.rtr) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_path3_hand_computed(self):
        # r = {1, 1, 2}; f = 6; U = (3, 2, 3); F = 6 + 1/3
        bundle = resistance_bundle(generate(FamilySpec.path(3)))
        f, big_f = energy_moments(bundle.r, bundle.rtr)
        assert f == pytest.approx(6.0, abs=1e-10)
        assert big_f == pytest.approx(6.0 + 1.0 / 3.0, abs=1e-10)

    def test_trace_identity(self):
        # trace((R^L)^2) = sum U_i^2 + 2 f fixes the unordered-pair reading of f
        for seed in range(12):
            g = random_connected_graph(3 + seed % 8, 0.4, 4000 + seed)
            bundle = resistance_bundle(g)
            f, _ = energy_moments(bundle.r, bundle.rtr)
            lhs = np.trace(bundle.rl @ bundle.rl)
            rhs = (bundle.rtr**2).sum() + 2.0 * f
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestLaplacianEnergy:
    def test_complete_formula(self):
        for n in range(2, 51):
            report = resistance_laplacian_energy(generate(FamilySpec.complete(n)))
            assert abs(report.le_r - 4.0 * (1.0 - 1.0 / n)) <= 1e-9

    def test_k2_bounds_tight(self):
        report = resistance_laplacian_energy(generate(FamilySpec.complete(2)))
        assert report.le_r == pytest.approx(2.0, abs=1e-12)
        assert report.bounds["lower_2sqrtF"].value == pytest.approx(2.0, abs=1e-12)
        assert report.bounds["upper_sqrt2nF"].value == pytest.approx(2.0, abs=1e-12)
        assert abs(report.bounds["lower_2sqrtF"].slack) <= 1e-12
        assert abs(report.bounds["upper_sqrt2nF"].slack) <= 1e-12
        assert all(b.satisfied for b in report.bounds.values())

    def test_cycle4(self):
        report = resistance_laplacian_energy(generate(FamilySpec.cycle(4)))
        assert report.le_r == pytest.approx(5.0, abs=1e-9)
        assert all(b.satisfied for b in report.bounds.values())

    def test_k4_report_values(self):
        report = resistance_laplacian_energy(generate(FamilySpec.complete(4)))
        assert report.le_r == pytest.approx(3.0, abs=1e-9)
        assert report.F == pytest.approx(1.5, abs=1e-12)
        assert report.mean_transmission == pytest.approx(1.5, abs=1e-12)
        assert report.bounds["lower_2sqrtF"].value == pytest.approx(2.449489742783178, abs=1e-12)
        assert report.bounds["upper_sqrt2nF"].value == pytest.approx(3.4641016151377544, abs=1e-12)
        assert report.bounds["upper_meanU"].value == pytest.approx(3.0, abs=1e-9)

    def test_report_builds_no_signless_laplacian(self, monkeypatch):
        monkeypatch.setattr(
            ResistanceBundle, "rq", property(lambda self: pytest.fail("R^Q was built"))
        )
        g = random_connected_graph(40, 0.2, seed=3)
        assert resistance_laplacian_energy(g).n == 40

    def test_single_vertex(self):
        report = resistance_laplacian_energy(Graph.from_edges(1, []))
        assert report.le_r == 0.0
        assert report.e_r == 0.0
        assert all(b.satisfied for b in report.bounds.values())


class TestResistanceEnergy:
    """E_R = sum |gamma_i| over the spectrum of R, as the report gives it."""

    def test_triangle(self):
        # R(K_3) spectrum {4/3, -2/3, -2/3} gives E_R = 8/3 = LE_R(K_3)
        report = resistance_laplacian_energy(generate(FamilySpec.complete(3)))
        assert report.e_r == pytest.approx(8.0 / 3.0, abs=1e-9)
        assert report.e_r == pytest.approx(report.le_r, abs=1e-9)

    def test_k2(self):
        assert resistance_laplacian_energy(generate(FamilySpec.complete(2))).e_r == pytest.approx(
            2.0, abs=1e-12
        )

    def test_cycle4_equality(self):
        report = resistance_laplacian_energy(generate(FamilySpec.cycle(4)))
        assert report.e_r == pytest.approx(5.0, abs=1e-9)

    def test_transmission_regular_equality(self):
        specs = [FamilySpec.complete(n) for n in (2, 5, 9)]
        specs += [FamilySpec.cycle(n) for n in (3, 6, 11)]
        specs += [FamilySpec.bipartite(p, p) for p in (1, 3, 5)]
        for spec in specs:
            g = generate(spec)
            report = resistance_laplacian_energy(g)
            assert abs(report.le_r - report.e_r) <= 1e-8


def _lollipop(clique, tail):
    """K_clique with a path of `tail` extra vertices hanging off one vertex."""
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(clique - 1 + i, clique + i) for i in range(tail)]
    return Graph.from_edges(clique + tail, edges)


@pytest.fixture(scope="module")
def perron_corpus():
    """(graph, eigenvalues of R) over families, lollipops and random graphs."""
    specs = [FamilySpec.complete(n) for n in (2, 5, 64, 65, 400)]
    specs += [FamilySpec.bipartite(p, q) for p, q in ((1, 63), (1, 64), (10, 390), (200, 200))]
    specs += [FamilySpec.cycle(n) for n in (3, 64, 65, 399)]
    specs += [FamilySpec.path(n) for n in (2, 64, 65, 400)]
    graphs = [generate(spec) for spec in specs]
    # |gamma_n| / gamma_1 = 0.72 and 0.61: the slowest power iterations here.
    graphs += [_lollipop(30, 35), _lollipop(30, 200)]
    graphs += [random_connected_graph(2 + seed % 11, 0.45, seed) for seed in range(30)]
    graphs += [random_connected_graph(n, 0.1, seed) for seed, n in enumerate((64, 65, 150, 300))]
    return [(g, np.linalg.eigvalsh(resistance_bundle(g).r)) for g in graphs]


class TestPerronRoot:
    """E_R = 2 * gamma_1 rests on R having exactly one positive eigenvalue."""

    def test_matches_sum_of_absolute_eigenvalues(self, perron_corpus):
        u = np.finfo(float).eps / 2
        for g, gamma in perron_corpus:
            expected = float(np.abs(gamma).sum())
            assert abs(resistance_laplacian_energy(g).e_r - expected) <= 4 * g.n * u * expected, g.n

    def test_report_uses_the_same_value(self):
        g = _lollipop(30, 35)
        assert resistance_laplacian_energy(g).e_r == 2.0 * _perron_root(resistance_matrix(g))

    def test_exactly_one_positive_eigenvalue(self, perron_corpus):
        for g, gamma in perron_corpus:
            noise = 4 * g.n * np.finfo(float).eps * gamma[-1]
            assert int((gamma > noise).sum()) == 1, g.n

    def test_dense_solver_only_at_small_order_or_after_the_cap(self, monkeypatch):
        calls = []
        dense = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda m: calls.append(m.shape[0]) or dense(m)
        )
        small = resistance_matrix(generate(FamilySpec.path(64)))
        large = resistance_matrix(generate(FamilySpec.path(65)))
        _perron_root(small)
        iterated = _perron_root(large)
        assert calls == [64]
        monkeypatch.setattr(resq.energy, "_PERRON_MAX_ITER", 1)
        fallback = _perron_root(large)
        assert calls == [64, 65]
        assert fallback == pytest.approx(iterated, rel=1e-14)


class TestOneBuffer:
    """The report works in one n x n buffer that the eigensolver overwrites."""

    N = 1200  # above the two-stage crossover

    @pytest.fixture(scope="class")
    def graph(self):
        return random_connected_graph(self.N, 10.0 / self.N, seed=5)

    def test_peak_traced_memory(self, graph):
        tracemalloc.start()
        try:
            resistance_laplacian_energy(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one buffer and the block elimination's workspace of n^2 / 4; the
        # report built from three arrays peaked at about 3.5 n^2 8 bytes
        assert peak <= 1.6 * self.N**2 * 8

    def test_eta_matches_eigvalsh(self, graph):
        rtr = resistance_bundle(graph).rtr
        gamma = np.linalg.eigvalsh(resistance_laplacian(graph))[::-1]
        eta = resistance_laplacian_energy(graph).eta
        u = np.finfo(float).eps / 2
        assert np.abs(eta - (gamma - rtr.mean())).max() <= self.N * u * np.abs(gamma).max()

    def test_failed_two_stage_call_solves_an_intact_matrix(self, monkeypatch):
        def scribbling(layout, jobz, uplo, n, a, lda, w):
            ctypes.memset(a, 0x7F, n * n * 8)
            return -1

        monkeypatch.setattr(resq.spectral, "_TWO_STAGE_N", 8)
        monkeypatch.setattr(resq.spectral, "_dsyevd_2stage", lambda: scribbling)
        g = random_connected_graph(40, 0.2, seed=6)
        rl = resistance_laplacian(g)
        expected = np.linalg.eigvalsh(rl)[::-1] - np.diag(rl).mean()
        assert np.array_equal(resistance_laplacian_energy(g).eta, expected)


class TestIdentitiesOnRandomGraphs:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 10**6))
    def test_eta_sums(self, n, seed):
        g = random_connected_graph(n, 0.45, seed)
        report = resistance_laplacian_energy(g)
        assert abs(report.eta.sum()) <= 1e-8 * n
        two_f = 2.0 * report.F
        assert abs((report.eta**2).sum() - two_f) <= 1e-7 * two_f

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 10**6))
    def test_bounds_hold(self, n, seed):
        g = random_connected_graph(n, 0.45, seed)
        report = resistance_laplacian_energy(g)
        for bound in report.bounds.values():
            assert bound.satisfied
            assert bound.slack >= -1e-9
        assert report.eta[0] >= 0.0  # largest deviation is nonnegative for n >= 2


class TestCheckBounds:
    def test_recompute_matches_report(self):
        report = resistance_laplacian_energy(generate(FamilySpec.cycle(5)))
        again = check_bounds(report)
        for name, bound in report.bounds.items():
            assert again[name].value == pytest.approx(bound.value, abs=1e-15)
            assert again[name].satisfied == bound.satisfied

    def test_tiny_negative_radicand_clamped(self):
        # 2F - meanU^2 = -1e-12 is rounding noise; the sqrt clamps to zero
        report = _report_with(n=3, mean_u=1.0, big_f=(1.0 - 1e-12) / 2, eta1=0.9, le_r=1.0)
        bounds = check_bounds(report)
        assert bounds["upper_meanU"].value == pytest.approx(1.0, abs=1e-6)

    def test_negative_radicand_raises(self):
        report = _report_with(n=3, mean_u=1.0, big_f=(1.0 - 1e-3) / 2, eta1=0.9, le_r=1.0)
        with pytest.raises(NegativeRadicand):
            check_bounds(report)
