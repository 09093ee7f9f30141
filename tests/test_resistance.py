import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resq.energy import _energy_moments, resistance_laplacian_energy
from resq.errors import Disconnected, NotSymmetric
from resq.spectral import (
    _SYMMETRY_RTOL,
    Partition,
    _eigenvalues_in_place,
    eigenvalues_symmetric,
    quotient_matrix,
)
from resq.verify import _measures, _random_graphs
from resq.graph import (
    FamilySpec,
    Graph,
    _distances,
    _laplacians,
    add_edge,
    classical_distance_matrix,
    generate,
    laplacian,
    non_edges,
    random_connected_graph,
    random_tree,
)
from resq import resistance
from resq.resistance import (
    laplacian_pseudoinverse,
    resistance_bundle,
    resistance_laplacian,
    resistance_matrix,
    resistance_signless_laplacian,
)


def stacked_resistance(laps):
    """R of each Laplacian of a stack (k, n, n) of one order, in its memory."""
    return resistance._resistance(resistance._generalized_inverse_in_place(laps))


EPS = np.finfo(float).eps


def random_corpus(count, max_n, seed0):
    return [
        random_connected_graph(3 + seed % (max_n - 2), 0.25 + (seed % 7) / 10.0, seed0 + seed)
        for seed in range(count)
    ]


class TestPseudoinverse:
    def test_complete_graph_formula(self):
        # pinv(L(K_n)) has diagonal (n-1)/n^2 and off-diagonal -1/n^2
        for n in range(2, 9):
            pinv = laplacian_pseudoinverse(laplacian(generate(FamilySpec.complete(n))))
            expected = ((n - 1) / n**2 + 1 / n**2) * np.eye(n) - (1 / n**2) * np.ones((n, n))
            np.testing.assert_allclose(pinv, expected, atol=1e-12)

    def test_k2_exact(self):
        pinv = laplacian_pseudoinverse(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(pinv, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14)

    def test_penrose_identities_path3(self):
        lap = laplacian(generate(FamilySpec.path(3)))
        pinv = laplacian_pseudoinverse(lap)
        assert np.abs(lap @ pinv @ lap - lap).max() < 1e-10
        assert np.abs(pinv @ lap @ pinv - pinv).max() < 1e-10
        assert np.abs((lap @ pinv) - (lap @ pinv).T).max() < 1e-10
        assert np.abs((pinv @ lap) - (pinv @ lap).T).max() < 1e-10
        assert np.abs(pinv @ np.ones(3)).max() < 1e-10

    def test_matches_svd_pseudoinverse(self):
        # independent cross-check against the SVD pseudoinverse
        for g in random_corpus(12, 10, seed0=500):
            lap = laplacian(g)
            np.testing.assert_allclose(
                laplacian_pseudoinverse(lap), np.linalg.pinv(lap), atol=1e-10
            )

    def test_single_vertex(self):
        np.testing.assert_array_equal(laplacian_pseudoinverse(np.zeros((1, 1))), [[0.0]])

    def test_disconnected_detected(self):
        lap = laplacian(Graph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(Disconnected):
            laplacian_pseudoinverse(lap)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 2), (3,), (2, 0, 0), (0, 3, 3), (2, 3, 2)])
    def test_empty_or_non_square_rejected_naming_the_shape(self, shape):
        with pytest.raises(NotSymmetric, match=rf"shape \({shape[0]},"):
            laplacian_pseudoinverse(np.zeros(shape))

    def test_probe_residual_flags_shuffled_disjoint_unions(self):
        # Every union raises Disconnected. Where the grounded block is
        # singular only up to rounding, inv() returns instead of raising and
        # the probe residual must catch it.
        rng = np.random.default_rng(2024)
        flagged = 0
        for _ in range(400):
            sizes = rng.integers(1, 12, size=int(rng.integers(2, 4)))
            edges, offset = [], 0
            for size in sizes.tolist():
                if size > 1:
                    seed = int(rng.integers(2**31))
                    part = random_connected_graph(size, rng.uniform(0.2, 0.9), seed)
                    edges += [(u + offset, v + offset) for u, v in part.edges]
                offset += size
            perm = rng.permutation(offset).tolist()
            lap = laplacian(Graph.from_edges(offset, [(perm[u], perm[v]) for u, v in edges]))
            try:
                np.linalg.inv(lap[:-1, :-1])
            except np.linalg.LinAlgError:
                with pytest.raises(Disconnected):
                    laplacian_pseudoinverse(lap)
                continue
            with pytest.raises(Disconnected, match="Penrose residual"):
                laplacian_pseudoinverse(lap)
            flagged += 1
        assert flagged >= 100


def _refusal(solve, m):
    """The message of the NotSymmetric that solve(m) raises, or None."""
    try:
        solve(m)
    except NotSymmetric as exc:
        return str(exc)
    return None


class TestMatrixRule:
    """laplacian_pseudoinverse applies the matrix check of eigenvalues_symmetric."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 9),
        seed=st.integers(0, 2**31 - 1),
        fault=st.sampled_from(["empty", "non-square", "nan", "inf", "-inf", "above", "below"]),
        data=st.data(),
    )
    def test_both_entry_points_refuse_the_same_matrices(self, n, seed, fault, data):
        lap = laplacian(random_connected_graph(n, 0.5, seed))
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2))
        if fault == "empty":
            k = data.draw(st.integers(0, n))
            m = lap[:k, :0] if data.draw(st.booleans()) else lap[:0, :k]
        elif fault == "non-square":
            k = data.draw(st.integers(1, n - 1))
            m = lap[:, :k] if data.draw(st.booleans()) else lap[:k, :]
        elif fault in ("nan", "inf", "-inf"):
            m = lap.copy()
            m[i, j] = float(fault)
        else:
            # Off the diagonal |L| <= 1 <= max degree = max |L|, so the scale
            # of the tolerance stays max |L| and the asymmetry is the added
            # delta, up to a rounding of 1e-4 of it.
            m, j = lap.copy(), j if j != i else (i + 1) % n
            m[i, j] += (1.01 if fault == "above" else 0.99) * _SYMMETRY_RTOL * np.abs(lap).max()
        messages = {_refusal(f, m) for f in (eigenvalues_symmetric, laplacian_pseudoinverse)}
        if fault == "below":
            assert messages == {None}
        else:
            assert len(messages) == 1 and None not in messages, messages

    @pytest.mark.parametrize("member", [0, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "asymmetric"])
    def test_one_bad_member_refuses_the_stack(self, member, bad):
        laps = _laplacians([random_connected_graph(6, 0.5, seed) for seed in range(3)], 6)
        if bad == "asymmetric":
            laps[member, 0, 1] += 1e-6
        else:
            laps[member, 0, 1] = bad
        alone = _refusal(laplacian_pseudoinverse, laps[member])
        assert alone is not None and _refusal(laplacian_pseudoinverse, laps) == alone

    @pytest.mark.parametrize("solve", [
        eigenvalues_symmetric,
        laplacian_pseudoinverse,
        lambda m: quotient_matrix(m, Partition.from_sizes(1, 1)),
    ])
    @pytest.mark.parametrize("m", [
        [[2, 1j], [-1j, 2]],  # Hermitian, spectrum (3, 1): its real part would give (2, 2)
        np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex),
        [[1, "-1"], ["-1", 1]],
        [[1, None], [None, 1]],
        [[1, -1], [-1]],  # ragged
    ])
    def test_non_real_or_ragged_input_refused(self, solve, m):
        with pytest.raises(NotSymmetric):
            solve(m)

    def test_directed_cycle_refused(self):
        # no graph Laplacian: pinv of (L + L^T) / 2 would be up to 0.33 off pinv(L)
        directed = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
        message = _refusal(laplacian_pseudoinverse, directed)
        assert message == _refusal(eigenvalues_symmetric, directed)
        assert message == "asymmetry 1.000e+00 exceeds 1e-12 relative to max |m|"


class TestInPlaceCore:
    """The pseudoinverse is formed in the memory of the Laplacian it inverts."""

    def test_argument_left_bit_unchanged(self):
        graphs = [random_connected_graph(n, 0.3, seed=n) for n in (7, 7, 7)]
        for lap in (laplacian(random_connected_graph(300, 0.03, seed=1)), _laplacians(graphs, 7)):
            before = lap.copy()
            laplacian_pseudoinverse(lap)
            assert np.array_equal(lap.view(np.int64), before.view(np.int64))

    def test_block_below_the_diagonal_is_not_read(self):
        # at each split B comes from above the diagonal; below it is workspace
        a = laplacian(random_connected_graph(300, 0.03, seed=2))[:-1, :-1]
        scribbled = a.copy()
        scribbled[149:, :149] = np.nan
        expected = a.copy()
        resistance._grounded_inverse(expected)
        resistance._grounded_inverse(scribbled)
        assert np.array_equal(scribbled, expected)

    @pytest.mark.parametrize("report", [resistance_matrix, resistance_laplacian_energy])
    def test_one_buffer_and_strips_of_workspace(self, report):
        # the strips of the block elimination, the row blocks of the nonzero
        # scan and the tiles of R each hold at most _TILE x n entries; with
        # a product of n^2 / 4 entries this read 4.90 MB over the buffer
        n = 1500
        g = random_connected_graph(n, 10.0 / n, seed=1)
        tracemalloc.start()
        try:
            report(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - n * n * 8 <= resistance._TILE * n * 8

    @pytest.mark.parametrize("sizes", [(3, 4), (150, 60)])
    def test_two_components_raise_without_the_bfs(self, sizes):
        p, q = sizes
        edges = [(i, i + 1) for i in range(p - 1)] + [(p + i, p + i + 1) for i in range(q - 1)]
        lap = laplacian(Graph.from_edges(p + q, edges))
        with pytest.raises(Disconnected):
            resistance._generalized_inverse_in_place(lap)


def shifted_pseudoinverse(lap):
    n = lap.shape[0]
    return np.linalg.inv(lap + 1.0 / n) - 1.0 / n


class TestBlockPseudoinverse:
    """Grounded block elimination at the leaf size and above it."""

    @pytest.mark.parametrize("n", [128, 129, 200, 257, 1000])
    def test_matches_svd_and_shifted_inverse(self, n):
        # The grounded block is a single leaf at 128 and 129; it splits
        # unevenly at 200 and 1000, and evenly into two leaves at 257.
        lap = laplacian(random_connected_graph(n, 8.0 / n, seed=n))
        pinv = laplacian_pseudoinverse(lap)
        shifted = shifted_pseudoinverse(lap)
        tol = 16 * n * EPS * np.abs(pinv).max()
        assert np.abs(pinv - pinv.T).max() == 0.0
        assert np.abs(pinv - shifted).max() <= tol
        if n <= 257:
            assert np.abs(pinv - np.linalg.pinv(lap)).max() <= tol

    @pytest.mark.parametrize("n", [500, 1000])
    def test_path_and_cycle_closed_forms(self, n):
        # P_n: r(i, j) = d; C_n: r(i, j) = d (n - d) / n, with d = |i - j|.
        # The shifted inverse misses these bounds by factors of 5 to 10 on
        # the path and 2 to 3 on the cycle.
        d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        r_path = resistance_matrix(generate(FamilySpec.path(n)))
        assert np.abs(r_path - d).max() <= 8 * n * EPS * (n - 1)
        r_cycle = resistance_matrix(generate(FamilySpec.cycle(n)))
        assert np.abs(r_cycle - d * (n - d) / n).max() <= 8 * n * EPS * (n / 4)

    def test_complete_graph(self):
        n = 300
        r = resistance_matrix(generate(FamilySpec.complete(n)))
        off = r[~np.eye(n, dtype=bool)]
        assert np.abs(off - 2.0 / n).max() <= 16 * n * EPS * (2.0 / n)

    def test_shuffled_disjoint_unions_raise(self):
        rng = np.random.default_rng(2025)
        for _ in range(8):
            sizes = rng.integers(60, 501, size=int(rng.integers(2, 4)))
            edges, offset = [], 0
            for size in sizes.tolist():
                seed = int(rng.integers(2**31))
                part = random_connected_graph(size, rng.uniform(6.0 / size, 0.2), seed)
                edges += [(u + offset, v + offset) for u, v in part.edges]
                offset += size
            perm = rng.permutation(offset).tolist()
            lap = laplacian(Graph.from_edges(offset, [(perm[u], perm[v]) for u, v in edges]))
            with pytest.raises(Disconnected):
                laplacian_pseudoinverse(lap)

    @pytest.mark.parametrize("n", [5, 200])
    def test_nan_entry_is_rejected(self, n):
        # refused by the matrix check of eigenvalues_symmetric before any
        # inversion, with its error and message
        lap = laplacian(generate(FamilySpec.cycle(n)))
        lap[0, 1] = lap[1, 0] = np.nan
        with pytest.raises(NotSymmetric, match="NaN or infinite entry"):
            laplacian_pseudoinverse(lap)


class TestSparseFirstProducts:
    """On the left spine of the elimination, W = inv(A11) B and S = A22 - B^T W
    go by B's nonzero rows for members whose B is sparse enough."""

    @staticmethod
    def inverse(lap, monkeypatch=None, sparse=None):
        """X of lap, with the density rule left alone or forced to sparse or
        dense through its cost per multiply-add kept."""
        if sparse is None:
            return resistance._generalized_inverse_in_place(lap.copy())
        with monkeypatch.context() as patch:
            patch.setattr(resistance, "_SPARSE_MADD", 0 if sparse else 10**9)
            patch.setattr(resistance, "_SPARSE_BLOCK", 0)
            return resistance._generalized_inverse_in_place(lap.copy())

    @staticmethod
    def spy(monkeypatch):
        """The members that took the compressed products, split by split."""
        outcomes, rule = [], resistance._sparse_members
        monkeypatch.setattr(resistance, "_sparse_members",
                            lambda bt, n: outcomes.append(rule(bt, n)) or outcomes[-1])
        return outcomes

    @pytest.mark.parametrize("graph", [
        *(random_connected_graph(n, 10.0 / n, seed=n) for n in (129, 300, 1000)),
        generate(FamilySpec.cycle(1200)),
        generate(FamilySpec.path(1000)),
    ], ids=["G129", "G300", "G1000", "C1200", "P1000"])
    def test_sparse_and_dense_products_agree(self, graph, monkeypatch):
        # the two compute the same products in different orders; the largest
        # difference read 0.011 n u max |X| (on C_1200)
        lap = laplacian(graph)
        sparse = self.inverse(lap, monkeypatch, True)
        dense = self.inverse(lap, monkeypatch, False)
        assert np.abs(sparse - dense).max() <= graph.n * EPS / 2 * np.abs(dense).max()

    def test_both_branches_run(self, monkeypatch):
        # G(1000, 10/n) is sparse at orders 999 and 499 and dense at 249; in
        # the order-140 stack the cycle's B has one nonzero and G(140, 0.08)'s
        # every block has several
        outcomes = self.spy(monkeypatch)
        self.inverse(laplacian(random_connected_graph(1000, 0.01, seed=1)))
        assert [list(sparse) for sparse in outcomes] == [[], [()], [()]]
        outcomes.clear()
        self.inverse(_laplacians([generate(FamilySpec.cycle(140)),
                                  random_connected_graph(140, 0.08, seed=4)], 140))
        assert [list(sparse) for sparse in outcomes] == [[(0,)]]

    @pytest.mark.parametrize("graph", [generate(FamilySpec.complete(300)),
                                       random_connected_graph(300, 0.5, seed=1)],
                             ids=["K300", "G300_half"])
    def test_dense_members_take_the_dense_path(self, graph, monkeypatch):
        lap = laplacian(graph)
        dense = self.inverse(lap, monkeypatch, False)
        outcomes = self.spy(monkeypatch)
        x = self.inverse(lap)
        assert outcomes == [{}, {}]  # orders 149 and 299
        assert np.array_equal(x.view(np.int64), dense.view(np.int64))

    def test_components_split_at_the_top_split_raise(self, monkeypatch):
        # vertices 0..148 and 149..299: the grounded block of order 299 splits
        # at 149, so B = 0 and the compressed products keep no block. The
        # singular A11 of G(149, 0.05) is inverted without an error, so the
        # split runs to its end and the probe flags the result.
        edges = sorted(random_connected_graph(149, 0.05, seed=0).edges)
        lap = laplacian(Graph.from_edges(300, edges + [(i, i + 1) for i in range(149, 299)]))
        assert not lap[:149, 149:].any()
        outcomes = self.spy(monkeypatch)
        with pytest.raises(Disconnected, match="Penrose residual"):
            laplacian_pseudoinverse(lap)
        assert outcomes[-1] == {(): []}


def exact_resistance(g):
    """R in exact rationals: Gauss-Jordan inversion of the Laplacian with its
    last row and column deleted, built from the edge set. That block is
    positive definite, so every pivot is positive and no row swap is needed.
    r(i, j) = X[i, i] + X[j, j] - 2 X[i, j], with X padded by zeros."""
    m = g.n - 1
    a = [[Fraction(int(i == j - m)) for j in range(2 * m)] for i in range(m)]
    for u, v in g.edges:
        for p, q in ((u, v), (v, u)):
            if p < m:
                a[p][p] += 1
                if q < m:
                    a[p][q] -= 1
    for c in range(m):
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(m):
            f = a[i][c]
            if i != c and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    x = [row[m:] + [Fraction(0)] for row in a] + [[Fraction(0)] * g.n]
    return np.array([[float(x[i][i] + x[j][j] - 2 * x[i][j]) for j in range(g.n)]
                     for i in range(g.n)])


class TestFusedResistance:
    """R from the grounded generalized inverse X in one pass over pairs of
    tiles, against R from the centred pseudoinverse P."""

    @staticmethod
    def graph(kind, n):
        if kind == "bipartite":
            return generate(FamilySpec.bipartite(n // 2, n - n // 2))
        if kind == "random":
            return random_connected_graph(n, 10.0 / n, seed=n)
        return generate(getattr(FamilySpec, kind)(n))

    @pytest.mark.parametrize("n", [128, 129, 257, 513, 1000])
    @pytest.mark.parametrize("kind", ["path", "cycle", "complete", "bipartite", "random"])
    def test_matches_the_pseudoinverse(self, kind, n):
        g = self.graph(kind, n)
        r = resistance_matrix(g)
        assert np.array_equal(r, r.T)
        assert np.all(np.diagonal(r) == 0.0)
        p = laplacian_pseudoinverse(laplacian(g))
        d = np.diagonal(p)
        assert np.abs(r - (d[:, None] + d[None, :] - 2.0 * p)).max() <= 4 * n * (EPS / 2) * r.max()


class TestExactOracle:
    """R against exact rational arithmetic, an algorithm that shares no code
    with the float pipeline: |R - R_exact| <= 4 n u max(r)."""

    @staticmethod
    def graphs():
        families = (
            [FamilySpec.complete(n) for n in range(2, 9)]
            + [FamilySpec.path(n) for n in range(1, 11)]
            + [FamilySpec.cycle(n) for n in range(3, 11)]
        )
        return [generate(spec) for spec in families] + [
            g for seed in (0, 1) for g in _random_graphs(100, 12, seed)
        ]

    @staticmethod
    def assert_close(r, exact):
        n = exact.shape[0]
        assert np.abs(r - exact).max() <= 4 * n * (EPS / 2) * exact.max(), n

    def test_resistance_matrix(self):
        for g in self.graphs():
            self.assert_close(resistance_matrix(g), exact_resistance(g))

    def test_stacked_bundle(self):
        for n, group in TestStackedBundles.by_order(self.graphs()).items():
            for g, r in zip(group, stacked_resistance(_laplacians(group, n))):
                self.assert_close(r, exact_resistance(g))


class TestResistanceMatrix:
    def test_complete_graphs(self):
        for n in range(2, 11):
            r = resistance_matrix(generate(FamilySpec.complete(n)))
            off = r[~np.eye(n, dtype=bool)]
            np.testing.assert_allclose(off, 2.0 / n, atol=1e-12)
            assert np.abs(np.diag(r)).max() == 0.0

    def test_path3_matches_tree_distances(self):
        r = resistance_matrix(generate(FamilySpec.path(3)))
        np.testing.assert_allclose(r, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], atol=1e-12)

    def test_cycle4(self):
        r = resistance_matrix(generate(FamilySpec.cycle(4)))
        assert r[0, 1] == pytest.approx(0.75, abs=1e-12)
        assert r[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_disconnected_raises(self):
        with pytest.raises(Disconnected):
            resistance_matrix(Graph.from_edges(3, [(0, 1)]))

    def test_single_vertex(self):
        np.testing.assert_array_equal(resistance_matrix(Graph.from_edges(1, [])), [[0.0]])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 10), seed=st.integers(0, 10**6))
    def test_symmetric_nonnegative_metric(self, n, seed):
        g = random_connected_graph(n, 0.45, seed)
        r = resistance_matrix(g)
        assert np.abs(r - r.T).max() == 0.0
        assert r.min() >= 0.0
        sums = r[:, :, None] + r[None, :, :]
        assert (r - sums.min(axis=1)).max() <= 1e-9


    @pytest.mark.parametrize("n", [12, 129, 1000])
    def test_exactly_symmetric(self, n):
        # each r_ij is formed once and written to both of its entries, for
        # a leaf or for a split block
        r = resistance_matrix(random_connected_graph(n, min(0.5, 10.0 / n), seed=n))
        assert np.array_equal(r, r.T)


class TestFosterSum:
    """Foster's theorem, sum over the edges of r(u, v) = n - 1, holds without
    reference to how R was computed."""

    @pytest.mark.parametrize("graph", [
        random_connected_graph(200, 10.0 / 200, seed=200),
        random_connected_graph(1000, 10.0 / 1000, seed=1000),
        generate(FamilySpec.complete(300)),
    ], ids=["G200", "G1000", "K300"])
    def test_edge_resistances_sum_to_n_minus_1(self, graph):
        # each r(u, v) within n u max r, summed over the m edges
        r = resistance_matrix(graph)
        u, v = graph.edge_array.T
        n, m = graph.n, len(u)
        assert abs(r[u, v].sum() - (n - 1)) <= n * EPS / 2 * r.max() * m


class TestStackedBundles:
    """One stacked computation per order gives the per-graph results bit for
    bit: R in the memory of the Laplacians, R^L in R's memory and R again, as
    resq verify forms them."""

    @staticmethod
    def by_order(graphs):
        orders = {}
        for g in graphs:
            orders.setdefault(g.n, []).append(g)
        return orders

    def corpus(self):
        return self.by_order(_random_graphs(200, 12, 0) + [
            Graph.from_edges(1, []),
            Graph.from_edges(2, [(0, 1)]),
            random_connected_graph(13, 0.4, seed=1),  # the only graph of its order
            random_connected_graph(129, 0.08, seed=2),  # one leaf, a stack of two
            random_connected_graph(129, 0.08, seed=3),
            random_connected_graph(140, 0.08, seed=4),  # a split stack of three,
            random_connected_graph(140, 0.08, seed=5),  # two dense members and
            generate(FamilySpec.cycle(140)),  # one of sparse first products
        ])

    def test_bitwise_equal_to_per_graph(self):
        orders = self.corpus()
        assert len(orders) == 15
        for n, group in orders.items():
            r = stacked_resistance(_laplacians(group, n))
            rtr = r.sum(axis=-2)
            rq, moments = resistance._signless(r, rtr), _energy_moments(r, rtr)
            rl = resistance._set_diagonal(np.negative(r, out=r), rtr)
            values, rl = _eigenvalues_in_place(rl), rl.copy()
            r = resistance._set_diagonal(np.negative(r, out=r), 0.0)  # R again
            for k, g in enumerate(group):
                ref = resistance_bundle(g)
                for got, field in ((r, ref.r), (rtr, ref.rtr), (rl, ref.rl), (rq, ref.rq)):
                    assert got[k].tobytes() == field.tobytes(), n
                assert np.array_equal(values[k], eigenvalues_symmetric(ref.rl).values), n
                single = _energy_moments(ref.r, ref.rtr)
                assert [m[k] for m in moments] == list(single), n

    def test_stacked_distances_equal_bfs(self):
        trees = [random_tree(2 + seed % 14, seed) for seed in range(100)]
        for orders in (self.corpus(), self.by_order(trees)):
            for n, group in orders.items():
                stacked = _distances(_laplacians(group, n))
                for k, g in enumerate(group):
                    assert np.array_equal(stacked[k], classical_distance_matrix(g)), n

    def test_empty(self):
        assert _measures() == ([], [], [], [], [])

    @pytest.mark.parametrize(
        "bad",
        [
            Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
            Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)]),  # isolated vertex
            Graph.from_edges(2, []),
        ],
    )
    def test_disconnected_member_raises(self, bad):
        graphs = [random_connected_graph(bad.n, 0.6, seed=s) for s in range(5)]
        with pytest.raises(Disconnected):
            stacked_resistance(_laplacians(graphs[:2] + [bad] + graphs[2:], bad.n))

    def test_bundle_overwrites_the_stack_with_r(self):
        # resq verify reads what it needs of its Laplacians before R
        # overwrites them, so it needs no copy of the stack
        graphs = [random_connected_graph(9, 0.4, seed=s) for s in range(4)]
        laps = _laplacians(graphs, 9)
        per_graph = [resistance_matrix(g) for g in graphs]
        r = stacked_resistance(laps)
        assert r is laps
        assert np.array_equal(r, np.stack(per_graph))

    def test_disconnected_member_caught_by_the_probe(self):
        # The stacked inv() returns without raising for some of these stacks;
        # the probe, applying each L from its saved entries, must flag them.
        rng = np.random.default_rng(11)
        flagged = 0
        for _ in range(200):
            sizes = rng.integers(1, 8, size=int(rng.integers(2, 4))).tolist()
            edges, offset = [], 0
            for size in sizes:
                if size > 1:
                    part = random_connected_graph(size, 0.6, int(rng.integers(2**31)))
                    edges += [(u + offset, v + offset) for u, v in part.edges]
                offset += size
            perm = rng.permutation(offset).tolist()
            bad = Graph.from_edges(offset, [(perm[u], perm[v]) for u, v in edges])
            good = [random_connected_graph(offset, 0.5, seed=s) for s in range(3)]
            laps = _laplacians([good[0], good[1], bad, good[2]], offset)
            try:
                np.linalg.inv(laps[:, :-1, :-1])
            except np.linalg.LinAlgError:
                continue
            with pytest.raises(Disconnected, match="Penrose residual"):
                stacked_resistance(laps)
            flagged += 1
        assert flagged >= 20

    def test_shuffled_disjoint_unions_raise_in_a_stack(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            sizes = rng.integers(1, 8, size=int(rng.integers(2, 4))).tolist()
            edges, offset = [], 0
            for size in sizes:
                if size > 1:
                    part = random_connected_graph(size, 0.6, int(rng.integers(2**31)))
                    edges += [(u + offset, v + offset) for u, v in part.edges]
                offset += size
            perm = rng.permutation(offset).tolist()
            bad = Graph.from_edges(offset, [(perm[u], perm[v]) for u, v in edges])
            good = [random_connected_graph(offset, 0.5, seed=s) for s in range(3)]
            with pytest.raises(Disconnected):
                stacked_resistance(_laplacians([good[0], bad, good[1], good[2]], offset))


class TestTransmissions:
    def test_complete(self):
        rtr = resistance_bundle(generate(FamilySpec.complete(4))).rtr
        np.testing.assert_allclose(rtr, 1.5, atol=1e-12)

    def test_cycle(self):
        rtr = resistance_bundle(generate(FamilySpec.cycle(4))).rtr
        np.testing.assert_allclose(rtr, 2.5, atol=1e-12)

    def test_bipartite_22(self):
        rtr = resistance_bundle(generate(FamilySpec.bipartite(2, 2))).rtr
        np.testing.assert_allclose(rtr, 2.5, atol=1e-12)

    def test_path3_from_bfs_distances(self):
        # oracle: in a tree, transmissions are the distance column sums
        g = generate(FamilySpec.path(3))
        rtr = resistance_bundle(g).rtr
        assert np.array_equal(rtr, resistance_matrix(g).sum(axis=0))  # column sums of R
        oracle = classical_distance_matrix(g).sum(axis=0)
        np.testing.assert_allclose(rtr, oracle, atol=1e-12)
        np.testing.assert_allclose(rtr, [3.0, 2.0, 3.0], atol=1e-12)


class TestDerivedLaplacians:
    def test_k2(self):
        g = generate(FamilySpec.complete(2))
        np.testing.assert_allclose(resistance_laplacian(g), [[1, -1], [-1, 1]], atol=1e-14)
        np.testing.assert_allclose(
            resistance_signless_laplacian(g), [[1, 1], [1, 1]], atol=1e-14
        )

    def test_complete_closed_structure(self):
        for n in (3, 5, 8):
            g = generate(FamilySpec.complete(n))
            expected_rl = 2.0 * np.eye(n) - (2.0 / n) * np.ones((n, n))
            expected_rq = (2.0 / n) * np.ones((n, n)) + (2.0 - 4.0 / n) * np.eye(n)
            np.testing.assert_allclose(resistance_laplacian(g), expected_rl, atol=1e-12)
            np.testing.assert_allclose(resistance_signless_laplacian(g), expected_rq, atol=1e-12)

    def test_bundle_consistency(self):
        for g in random_corpus(10, 9, seed0=900):
            b = resistance_bundle(g)
            assert "rq" not in vars(b)  # R^Q is built on first access, then kept
            assert b.rq is b.rq
            np.testing.assert_allclose(b.rl, np.diag(b.rtr) - b.r, atol=0)
            np.testing.assert_allclose(b.rq, np.diag(b.rtr) + b.r, atol=0)
            assert np.abs(b.rl @ np.ones(g.n)).max() < 1e-9
            assert abs(np.trace(b.rl) - b.rtr.sum()) < 1e-9 * max(1.0, b.rtr.sum())

    @pytest.mark.parametrize("n", [1, 2, 9, 129])
    def test_direct_builders_bitwise_equal_to_bundle(self, n):
        g = random_connected_graph(n, min(1.0, 10 / n), seed=n)
        b = resistance_bundle(g)
        for direct, field in ((resistance_laplacian, b.rl), (resistance_signless_laplacian, b.rq)):
            m = direct(g)
            assert np.array_equal(m.view(np.int64), field.view(np.int64))


class TestTransmissionRegularity:
    """Transmission-regular graphs have one transmission k at every vertex."""

    @staticmethod
    def transmissions(spec):
        return resistance_bundle(generate(spec)).rtr

    def test_cycle5(self):
        np.testing.assert_allclose(self.transmissions(FamilySpec.cycle(5)), 4.0, atol=1e-9)

    def test_k4(self):
        np.testing.assert_allclose(self.transmissions(FamilySpec.complete(4)), 1.5, atol=1e-9)

    def test_path3_irregular(self):
        # end vertices transmit more than the interior one
        assert np.ptp(self.transmissions(FamilySpec.path(3))) == pytest.approx(1.0, abs=1e-9)


class TestOrderRelations:
    def test_resistance_below_distance(self):
        for g in random_corpus(25, 12, seed0=100):
            r = resistance_matrix(g)
            d = classical_distance_matrix(g)
            assert (r - d).max() <= 1e-9

    def test_tree_resistance_equals_distance(self):
        for seed in range(25):
            t = random_tree(2 + seed % 12, seed)
            r = resistance_matrix(t)
            d = classical_distance_matrix(t)
            assert np.abs(r - d).max() <= 1e-9

    def test_edge_addition_shrinks_resistances(self):
        added = 0
        for g in random_corpus(30, 9, seed0=300):
            candidates = non_edges(g)
            if not candidates:
                continue
            added += 1
            r = resistance_matrix(g)
            r2 = resistance_matrix(add_edge(g, *candidates[0]))
            assert (r2 - r).max() <= 1e-9
        assert added >= 10
