import ctypes
import pathlib

import numpy as np
import pytest

from resq import closed_forms as cf
from resq import spectral
from resq.cli import main
from resq.energy import resistance_laplacian_energy
from resq.errors import InvalidPartition, NotSymmetric
from resq.graph import (
    FamilySpec,
    Graph,
    add_edge,
    format_edge_list,
    generate,
    laplacian,
    non_edges,
    random_connected_graph,
)
from resq.resistance import (
    resistance_bundle,
    resistance_laplacian,
    resistance_matrix,
    resistance_signless_laplacian,
)
from resq.spectral import (
    Partition,
    Spectrum,
    eigenvalues_symmetric,
    quotient_matrix,
)


class TestEigenvaluesSymmetric:
    def test_rl_of_triangle(self):
        rl = resistance_laplacian(generate(FamilySpec.complete(3)))
        s = eigenvalues_symmetric(rl)
        np.testing.assert_allclose(s.values, [2.0, 2.0, 0.0], atol=1e-9)
        assert [c for _, c in s.multiplicities] == [2, 1]

    def test_rank_one_shift(self):
        # aI + bJ has eigenvalues a + nb once and a with multiplicity n-1
        m = np.eye(3) + 2.0 * np.ones((3, 3))
        np.testing.assert_allclose(eigenvalues_symmetric(m).values, [7.0, 1.0, 1.0], atol=1e-9)

    def test_zero_matrix(self):
        s = eigenvalues_symmetric(np.zeros((4, 4)))
        np.testing.assert_array_equal(s.values, np.zeros(4))
        assert s.multiplicities == ((0.0, 4),)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eigenvalues_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotSymmetric):
            eigenvalues_symmetric(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(0, 0), (0,), (3,), (2, 3), (2, 2, 2)])
    def test_rejects_empty_and_non_square_naming_the_shape(self, shape):
        with pytest.raises(NotSymmetric, match=rf"shape \({shape[0]},"):
            eigenvalues_symmetric(np.zeros(shape))

    def test_multiplicities_grouped_when_read(self):
        s = Spectrum.from_values([0.0, 2.0, 2.0 + 1e-9])
        assert "multiplicities" not in vars(s)
        assert [c for _, c in s.multiplicities] == [2, 1]
        assert s.multiplicities is s.multiplicities

    def test_sum_matches_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            a = rng.normal(size=(n, n))
            m = (a + a.T) / 2
            s = eigenvalues_symmetric(m)
            assert abs(s.values.sum() - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))

    def test_grouping_tolerance(self):
        # values within DEFAULT_GROUP_TOL = 1e-7 of a group's first value join it
        s = Spectrum.from_values([1.0, 1.0 + 5e-8, 0.0])
        assert [c for _, c in s.multiplicities] == [2, 1]
        apart = Spectrum.from_values([1.0, 1.0 + 5e-7, 0.0])
        assert [c for _, c in apart.multiplicities] == [1, 1, 1]

    @pytest.mark.parametrize("n", [3, spectral._TWO_STAGE_N + 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_rejects_non_finite_entries(self, n, bad, where):
        m = np.eye(n)
        m[where] = m[where[::-1]] = bad
        with pytest.raises(NotSymmetric):
            eigenvalues_symmetric(m)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_a_lone_infinite_entry_without_a_warning(self, bad):
        # inf - 0 = inf over a scale of inf: the NaN must not warn on its way
        m = np.eye(3)
        m[0, 1] = bad
        with pytest.raises(NotSymmetric, match="NaN or infinite entry"):
            eigenvalues_symmetric(m)


_U = float(np.finfo(float).eps) / 2.0
ABOVE = spectral._TWO_STAGE_N + 1  # the smallest order solved by the two-stage path


@pytest.fixture
def two_stage_calls(monkeypatch):
    """Orders passed to the two-stage solver, one entry per call; skips the
    test where this numpy build has no such solver."""
    solver, calls = spectral._dsyevd_2stage(), []
    if solver is None:
        pytest.skip("this numpy build ships no LAPACKE_dsyevd_2stage")

    def counted(*args):
        calls.append(args[3])
        return solver(*args)

    monkeypatch.setattr(spectral, "_dsyevd_2stage", lambda: counted)
    return calls


def _random_symmetric(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return a + a.T


def _failing(layout, jobz, uplo, n, a, lda, w):
    """A failed two-stage call that garbles all it may destroy: with JOBZ =
    'N' that is the UPLO triangle, here the C-order upper one with the
    diagonal (LAPACK, DSYEVD_2STAGE documentation)."""
    m = np.ctypeslib.as_array((ctypes.c_double * (n * n)).from_address(a)).reshape(n, n)
    m[np.triu_indices(n)] = np.nan
    return 1


class TestSolverPaths:
    def test_two_stage_solver_found_in_bundled_openblas(self):
        libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
        if not list(libs.glob("libscipy_openblas64_*.so")):
            pytest.skip("numpy ships no bundled scipy-openblas")
        assert spectral._dsyevd_2stage() is not None

    def test_two_stage_agrees_with_fallback(self, monkeypatch, two_stage_calls):
        m = _random_symmetric(ABOVE, 3)
        two_stage = eigenvalues_symmetric(m).values
        assert two_stage_calls == [ABOVE]
        monkeypatch.setattr(spectral, "_dsyevd_2stage", lambda: None)
        fallback = eigenvalues_symmetric(m).values
        assert np.array_equal(fallback, np.linalg.eigvalsh(m)[::-1])
        # Both solvers are backward stable: each value is within a small
        # multiple of u |M| of the exact one (Weyl); measured about 2e-15 |M|.
        assert np.abs(two_stage - fallback).max() <= ABOVE * _U * np.abs(fallback).max()

    def test_eigvalsh_at_crossover_and_for_stacks(self, two_stage_calls):
        at = _random_symmetric(ABOVE - 1, 4)
        assert np.array_equal(eigenvalues_symmetric(at).values, np.linalg.eigvalsh(at)[::-1])
        stack = np.stack([_random_symmetric(ABOVE, 5)] * 2)
        values = spectral._eigenvalues_in_place(stack)
        assert np.array_equal(values, np.linalg.eigvalsh(stack)[..., ::-1])
        assert two_stage_calls == []

    def test_in_place_solver_leaves_stacks_and_small_matrices_unchanged(self, two_stage_calls):
        # resq verify reads its R^L stacks after solving them
        for m in (np.stack([_random_symmetric(ABOVE, 7)] * 2), _random_symmetric(ABOVE - 1, 8)):
            before = m.copy()
            values = spectral._eigenvalues_in_place(m)
            assert np.array_equal(m.view(np.int64), before.view(np.int64))
            assert np.array_equal(values, np.linalg.eigvalsh(before)[..., ::-1])
        assert two_stage_calls == []

    @pytest.mark.parametrize("what", ["spectrum-rl", "spectrum-rq"])
    def test_cli_spectrum_after_a_failed_call_equals_eigvalsh(
        self, monkeypatch, capsys, tmp_path, what
    ):
        # the CLI solves R^L (R^Q) in its own buffer, so the fallback solves
        # that buffer with its diagonal written back
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(random_connected_graph(ABOVE, 10 / ABOVE, seed=9)))
        printed = []
        for solver in (None, _failing):
            monkeypatch.setattr(spectral, "_dsyevd_2stage", lambda: solver)
            assert main(["compute", str(path), "--what", what]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_failed_call_falls_back_to_eigvalsh(self, monkeypatch):
        monkeypatch.setattr(spectral, "_dsyevd_2stage", lambda: _failing)
        m = _random_symmetric(ABOVE, 6)
        assert np.array_equal(eigenvalues_symmetric(m).values, np.linalg.eigvalsh(m)[::-1])

    def test_two_stage_call_destroys_only_what_the_fallback_restores(self, two_stage_calls):
        # the contract the fallback relies on, checked against the library
        m = _random_symmetric(ABOVE, 10)
        a, w = m.copy(), np.empty(ABOVE)
        info = spectral._dsyevd_2stage()(
            spectral._LAPACK_COL_MAJOR, b"N", b"L", ABOVE, a.ctypes.data, ABOVE, w.ctypes.data
        )
        assert info == 0 and two_stage_calls == [ABOVE]
        lower = np.tril_indices(ABOVE, -1)
        assert np.array_equal(a[lower].view(np.int64), m[lower].view(np.int64))
        np.fill_diagonal(a, m.diagonal())
        assert np.array_equal(np.linalg.eigvalsh(a), np.linalg.eigvalsh(m))

    @pytest.mark.parametrize(
        "spec, closed",
        [
            (FamilySpec.cycle(ABOVE), lambda: cf.cycle_spectra(ABOVE)[0]),
            (FamilySpec.bipartite(3, ABOVE - 3), lambda: cf.bipartite_rl_spectrum(3, ABOVE - 3)),
        ],
    )
    def test_rl_spectrum_matches_closed_form(self, two_stage_calls, spec, closed):
        values = eigenvalues_symmetric(resistance_laplacian(generate(spec))).values
        assert two_stage_calls == [ABOVE]
        expected = closed().values
        # The error of R from the pseudoinverse dominates that of the solver:
        # 1.1 to 6.9 n u |M| measured on C_1001, C_1200, K_{1,1000} and
        # K_{400,601}.
        assert np.abs(values - expected).max() <= 32 * ABOVE * _U * np.abs(expected).max()

    def test_energy_report_matches_evr(self, two_stage_calls):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        g = random_connected_graph(ABOVE, 10 / ABOVE, seed=4)
        report = resistance_laplacian_energy(g)
        assert two_stage_calls == [ABOVE]
        r = resistance_matrix(g)
        rtr = r.sum(axis=0)
        gamma = scipy_linalg.eigvalsh(np.diag(rtr) - r, driver="evr")[::-1]
        tol = ABOVE * _U * np.abs(gamma).max()
        assert np.abs(report.eta - (gamma - rtr.mean())).max() <= tol
        assert abs(report.le_r - np.abs(gamma - rtr.mean()).sum()) <= ABOVE * tol


class TestQuotientMatrix:
    def test_bipartite_laplacian(self):
        p, q = 2, 3
        g = generate(FamilySpec.bipartite(p, q))
        quot, equitable = quotient_matrix(laplacian(g), Partition.from_sizes(p, q))
        assert equitable
        np.testing.assert_allclose(quot, [[q, -q], [-p, p]], atol=1e-12)

    def test_bipartite_rl(self):
        g = generate(FamilySpec.bipartite(2, 2))
        quot, equitable = quotient_matrix(resistance_laplacian(g), Partition.from_sizes(2, 2))
        assert equitable
        np.testing.assert_allclose(quot, [[1.5, -1.5], [-1.5, 1.5]], atol=1e-12)

    def test_trivial_partition(self):
        g = generate(FamilySpec.cycle(4))
        rl = resistance_laplacian(g)
        quot, equitable = quotient_matrix(rl, Partition(((0, 1, 2, 3),)))
        assert equitable  # constant row sums (zero)
        np.testing.assert_allclose(quot, [[0.0]], atol=1e-12)

    def test_not_equitable(self):
        lap = laplacian(generate(FamilySpec.path(3)))
        _, equitable = quotient_matrix(lap, Partition(((0, 1), (2,))))
        assert not equitable

    def test_matches_block_row_sums(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(9, 9))
        blocks = ((4, 0, 7), (2,), (8, 1, 3, 5, 6))
        quot, equitable = quotient_matrix(m, Partition(blocks))
        expected = [[m[np.ix_(bs, bt)].sum(axis=1).mean() for bt in blocks] for bs in blocks]
        np.testing.assert_allclose(quot, expected, rtol=0, atol=16 * _U * np.abs(m).sum(axis=1).max())
        assert not equitable

    def test_equitable_with_scattered_blocks(self):
        # K_{2,3} with its vertices relabelled, so that both parts interleave
        perm = [3, 0, 4, 1, 2]
        lap = laplacian(generate(FamilySpec.bipartite(2, 3)))[np.ix_(perm, perm)]
        quot, equitable = quotient_matrix(lap, Partition(((1, 3), (0, 2, 4))))
        assert equitable
        np.testing.assert_allclose(quot, [[3, -3], [-2, 2]], atol=1e-12)

    def test_invalid_partitions(self):
        m = np.zeros((3, 3))
        with pytest.raises(InvalidPartition):
            quotient_matrix(m, Partition(((0, 1),)))  # misses 2
        with pytest.raises(InvalidPartition):
            quotient_matrix(m, Partition(((0, 1), (1, 2))))  # overlap
        with pytest.raises(InvalidPartition):
            quotient_matrix(m, Partition(((0, 1, 2), ())))  # empty block
        with pytest.raises(InvalidPartition):
            quotient_matrix(m, Partition(((0, 1, 5),)))  # out of range
        with pytest.raises(InvalidPartition, match="partition has no blocks"):
            quotient_matrix(m, Partition(()))

    @pytest.mark.parametrize("blocks, n, message", [
        ((), 3, "partition has no blocks"),
        (((0, 1),), 3, "indices not covered: [2]"),
        (((0, 1), (1, 2)), 3, "index 1 appears in two blocks"),
        (((0, 1, 2), ()), 3, "partition contains an empty block"),
        (((0, -1), (1, 2)), 3, "index -1 outside [0, 3)"),
        (((2, 0), (1,)), 2, "index 2 outside [0, 2)"),
        (((0, 1), (2,), (3, 0)), 3, "index 3 outside [0, 3)"),
        ((("0", 1), (2,)), 3, "block ('0', 1) holds a non-integer index"),
        ((((), 0),), 1, "block ((), 0) holds a non-integer index"),
    ])
    def test_each_failure_names_its_first_fault(self, blocks, n, message):
        with pytest.raises(InvalidPartition) as caught:
            Partition(blocks).validate(n)
        assert str(caught.value) == message

    def test_blocks_in_any_order_accepted(self):
        blocks = Partition(((3, np.int64(0)), (True, 4, 2))).validate(5)
        assert blocks == [[3, 0], [1, 4, 2]] and all(type(i) is int for b in blocks for i in b)

    @pytest.mark.parametrize("sizes", [(2.5, 1), (2, None), ("2", 1)])
    def test_non_integer_sizes_rejected(self, sizes):
        with pytest.raises(InvalidPartition, match="block sizes must be integers"):
            Partition.from_sizes(*sizes)

    @pytest.mark.parametrize("block", [(0.5, 1), (np.float64(0.0), 1), ("0", 1), (None, 1)])
    def test_non_integer_index_rejected(self, block):
        with pytest.raises(InvalidPartition, match="non-integer index"):
            quotient_matrix(np.eye(3), Partition((block, (2,))))

    def test_numpy_integer_and_bool_indices_read_as_ints(self):
        lap = laplacian(generate(FamilySpec.path(3)))
        expected = quotient_matrix(lap, Partition(((0, 1), (2,))))
        for blocks in (((np.int64(0), np.int32(1)), (np.int64(2),)), ((False, True), (2,))):
            quot, equitable = quotient_matrix(lap, Partition(blocks))
            assert np.array_equal(quot, expected[0]) and equitable == expected[1]

    # (2, 3, 4) is a stack of non-square matrices; a stack of square ones is
    # valid input (test_stack_matches_each_matrix)
    @pytest.mark.parametrize("shape", [(3,), (3, 4), (2, 3, 4), (0, 0)])
    def test_rejects_a_non_square_matrix(self, shape):
        with pytest.raises(NotSymmetric, match="non-empty square matrix"):
            quotient_matrix(np.zeros(shape), Partition(((0, 1, 2),)))

    def test_stack_matches_each_matrix(self):
        # One call on a stack equals one call per matrix bit for bit, the
        # equitable flags included, for equitable and non-equitable members.
        rng = np.random.default_rng(5)
        for p, q in [(2, 3), (4, 4), (1, 7)]:
            g = generate(FamilySpec.bipartite(p, q))
            rl = resistance_laplacian(g)
            members = [laplacian(g), rl, resistance_signless_laplacian(g),
                       rl + 1e-6 * rng.normal(size=rl.shape), rng.normal(size=rl.shape)]
            partition = Partition.from_sizes(p, q)
            quot, equitable = quotient_matrix(np.stack(members), partition)
            assert quot.shape == (5, 2, 2) and equitable.dtype == bool
            assert equitable.tolist() == [True, True, True, False, False]
            for k, m in enumerate(members):
                one, flag = quotient_matrix(m, partition)
                assert np.array_equal(quot[k], one) and flag is bool(equitable[k])
        stacked = np.stack([members, members])  # (2, 5, n, n): any leading shape
        quot2, equitable2 = quotient_matrix(stacked, partition)
        assert np.array_equal(quot2, np.stack([quot, quot]))
        assert np.array_equal(equitable2, np.stack([equitable, equitable]))

    def test_stack_with_a_bad_partition_raises(self):
        stack = np.stack([laplacian(generate(FamilySpec.cycle(4)))] * 3)
        for blocks in (((0, 1), (1, 2, 3)), ((0, 1, 2),), ((0, 1, 2, 3), ())):
            with pytest.raises(InvalidPartition):
                quotient_matrix(stack, Partition(blocks))

    @pytest.mark.parametrize("partition", [
        "ab", None, 5, [[0], [1]], ((0,), (1,)), [Partition(((0,), (1,))), ((0,), (1,))],
        [Partition(((0,), (1,)))] * 2])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2)])
    def test_a_partition_that_is_no_partition_rejected(self, partition, shape):
        with pytest.raises(InvalidPartition, match="^expected a Partition, got"):
            quotient_matrix(np.ones(shape), partition)

    def test_equitable_quotient_eigenvalues_contained(self):
        for p, q in [(1, 1), (2, 2), (2, 5), (3, 4), (8, 8), (1, 8)]:
            g = generate(FamilySpec.bipartite(p, q))
            partition = Partition.from_sizes(p, q)
            for matrix in (
                laplacian(g),
                resistance_laplacian(g),
                resistance_signless_laplacian(g),
            ):
                quot, equitable = quotient_matrix(matrix, partition)
                assert equitable
                parent = eigenvalues_symmetric(matrix).values
                for ev in np.linalg.eigvals(quot):
                    assert abs(ev.imag) < 1e-9
                    assert np.abs(parent - ev.real).min() <= 1e-7


class TestTransmissionRegularShift:
    """On a k-transmission-regular graph R^L = kI - R and R^Q = kI + R, so
    their spectra are k - gamma and k + gamma over the spectrum of R."""

    def test_triangle_both_signs(self):
        # R(K_3) spectrum is {4/3, -2/3, -2/3}; k = 4/3
        g = generate(FamilySpec.complete(3))
        np.testing.assert_allclose(
            eigenvalues_symmetric(resistance_laplacian(g)).values, [2.0, 2.0, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            eigenvalues_symmetric(resistance_signless_laplacian(g)).values,
            [8 / 3, 2 / 3, 2 / 3],
            atol=1e-12,
        )

    def test_degenerate_single_vertex(self):
        g = Graph.from_edges(1, [])
        np.testing.assert_array_equal(eigenvalues_symmetric(resistance_laplacian(g)).values, [0.0])

    def test_matches_direct_eigensolve_on_cycles(self):
        for n in (3, 5, 8, 12):
            bundle = resistance_bundle(generate(FamilySpec.cycle(n)))
            k = bundle.rtr[0]
            gamma = eigenvalues_symmetric(bundle.r).values
            for shifted, matrix in ((k - gamma, bundle.rl), (k + gamma, bundle.rq)):
                direct = eigenvalues_symmetric(matrix)
                assert np.abs(np.sort(shifted)[::-1] - direct.values).max() <= 1e-9


class TestStructuralSpectralProperties:
    def corpus(self):
        return [random_connected_graph(3 + s % 8, 0.3 + (s % 5) / 10, 7000 + s) for s in range(30)]

    def test_rl_psd_and_zero_eigenvalue(self):
        for g in self.corpus():
            bundle = resistance_bundle(g)
            values = eigenvalues_symmetric(bundle.rl).values
            norm = np.abs(values).max()
            assert values.min() >= -1e-9 * norm
            assert np.abs(bundle.rl @ np.ones(g.n)).max() <= 1e-9 * norm

    def test_rl_spectral_radius_at_least_two(self):
        for g in self.corpus():
            values = eigenvalues_symmetric(resistance_laplacian(g)).values
            assert values[0] >= 2.0 - 1e-9

    def test_edge_addition_spectral_monotonicity(self):
        checked = 0
        for g in self.corpus():
            candidates = non_edges(g)
            if not candidates:
                continue
            checked += 1
            before = eigenvalues_symmetric(resistance_laplacian(g)).values
            after = eigenvalues_symmetric(
                resistance_laplacian(add_edge(g, *candidates[-1]))
            ).values
            assert (after - before).max() <= 1e-9
        assert checked >= 10
