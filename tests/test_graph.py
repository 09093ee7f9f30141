import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resq.errors import (
    Disconnected,
    DuplicateEdge,
    GraphInputError,
    InvalidFamilyParams,
    MalformedLine,
    SelfLoop,
    VertexOutOfRange,
)
from resq.graph import (
    MAX_ORDER,
    FamilySpec,
    Graph,
    add_edge,
    classical_distance_matrix,
    format_edge_list,
    generate,
    is_connected,
    laplacian,
    non_edges,
    parse_edge_list,
    random_connected_graph,
    random_tree,
)


def assert_normalized(g):
    """g is what from_edges would build from its own edges, each with u < v."""
    assert g == Graph.from_edges(g.n, g.edges)
    assert all(u < v for u, v in g.edges)


class TestParseEdgeList:
    def test_triangle(self):
        g = parse_edge_list("3\n0 1\n1 2\n0 2")
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_single_edge(self):
        g = parse_edge_list("2\n0 1")
        assert g.n == 2
        assert g.edge_count == 1

    def test_comments_blank_lines_and_crlf(self):
        text = "# a triangle\r\n\r\n3\r\n0 1\r\n# middle comment\r\n1 2\r\n0 2\r\n"
        g = parse_edge_list(text)
        assert g.edge_count == 3

    def test_self_loop_names_line(self):
        with pytest.raises(SelfLoop, match="line 2"):
            parse_edge_list("3\n0 0")

    def test_duplicate_edge_either_orientation(self):
        with pytest.raises(DuplicateEdge, match="line 3"):
            parse_edge_list("3\n0 1\n1 0")

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange, match="line 2"):
            parse_edge_list("2\n0 5")

    def test_malformed_lines(self):
        with pytest.raises(MalformedLine):
            parse_edge_list("2\nzero one")
        with pytest.raises(MalformedLine):
            parse_edge_list("two\n0 1")
        with pytest.raises(MalformedLine):
            parse_edge_list("3\n0 1 2")
        with pytest.raises(MalformedLine):
            parse_edge_list("# only comments\n")

    def test_bad_vertex_count(self):
        with pytest.raises(MalformedLine):
            parse_edge_list("0\n")

    def test_vertex_count_cap(self):
        assert parse_edge_list(f"{MAX_ORDER}\n0 1\n").n == MAX_ORDER
        with pytest.raises(GraphInputError, match="exceeds"):
            parse_edge_list(f"{MAX_ORDER + 1}\n0 1\n")

    @settings(max_examples=60)
    @given(n=st.integers(1, 12), seed=st.integers(0, 10**6))
    def test_format_parse_roundtrip(self, n, seed):
        g = random_connected_graph(n, 0.4, seed)
        assert parse_edge_list(format_edge_list(g)) == g


class TestGenerate:
    def test_complete_edge_count(self):
        assert generate(FamilySpec.complete(4)).edge_count == 6

    def test_bipartite_structure(self):
        g = generate(FamilySpec.bipartite(2, 3))
        assert g.edge_count == 6
        for u, v in g.edges:
            assert (u < 2) != (v < 2)

    def test_bipartite_22_isomorphic_to_cycle4(self):
        g = generate(FamilySpec.bipartite(2, 2))
        c = generate(FamilySpec.cycle(4))
        assert sorted(laplacian(g).diagonal()) == sorted(laplacian(c).diagonal())
        assert g.edge_count == c.edge_count == 4

    def test_cycle_edges(self):
        g = generate(FamilySpec.cycle(5))
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})

    def test_path_edges(self):
        g = generate(FamilySpec.path(4))
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_edges_normalized_without_from_edges(self):
        specs = [FamilySpec(kind, (n,)) for kind in ("complete", "path") for n in range(1, 13)]
        specs += [FamilySpec.cycle(n) for n in range(3, 13)]
        specs += [FamilySpec.bipartite(p, n - p) for n in range(2, 13) for p in range(1, n)]
        for spec in specs:
            assert_normalized(generate(spec))

    def test_cycle_too_small(self):
        with pytest.raises(InvalidFamilyParams):
            generate(FamilySpec.cycle(2))

    def test_bad_params(self):
        with pytest.raises(InvalidFamilyParams):
            generate(FamilySpec.complete(0))
        with pytest.raises(InvalidFamilyParams):
            generate(FamilySpec.bipartite(0, 3))
        with pytest.raises(InvalidFamilyParams):
            generate(FamilySpec("hypercube", (3,)))

    def test_labels(self):
        assert FamilySpec.complete(5).label() == "K5"
        assert FamilySpec.bipartite(2, 3).label() == "K_{2,3}"
        assert FamilySpec.cycle(7).label() == "C7"
        assert FamilySpec.path(4).label() == "P4"


class TestConnectivity:
    def test_complete_connected(self):
        assert is_connected(generate(FamilySpec.complete(3)))

    def test_isolated_vertices(self):
        assert not is_connected(Graph.from_edges(2, []))

    def test_path_connected(self):
        assert is_connected(generate(FamilySpec.path(5)))

    def test_single_vertex(self):
        assert is_connected(Graph.from_edges(1, []))

    def test_two_components(self):
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestLaplacian:
    def test_k2(self):
        g = generate(FamilySpec.complete(2))
        np.testing.assert_array_equal(laplacian(g), [[1, -1], [-1, 1]])

    def test_k3_structure(self):
        lap = laplacian(generate(FamilySpec.complete(3)))
        np.testing.assert_array_equal(lap, 3 * np.eye(3) - np.ones((3, 3)))

    def test_path3(self):
        lap = laplacian(generate(FamilySpec.path(3)))
        np.testing.assert_array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    @settings(max_examples=60)
    @given(n=st.integers(1, 12), seed=st.integers(0, 10**6))
    def test_rows_sum_to_zero(self, n, seed):
        g = random_connected_graph(n, 0.5, seed)
        lap = laplacian(g)
        assert np.abs(lap @ np.ones(n)).max() < 1e-12
        assert np.abs(lap - lap.T).max() == 0.0


class TestDistances:
    def test_path3(self):
        d = classical_distance_matrix(generate(FamilySpec.path(3)))
        assert d[0, 2] == 2

    def test_k4_all_ones(self):
        d = classical_distance_matrix(generate(FamilySpec.complete(4)))
        off = d[~np.eye(4, dtype=bool)]
        assert (off == 1).all()

    def test_cycle5(self):
        d = classical_distance_matrix(generate(FamilySpec.cycle(5)))
        assert d[0, 2] == 2 and d[0, 3] == 2

    def test_disconnected_raises(self):
        with pytest.raises(Disconnected):
            classical_distance_matrix(Graph.from_edges(3, [(0, 1)]))

    def test_triangle_inequality_on_random_graphs(self):
        for seed in range(15):
            g = random_connected_graph(8, 0.35, seed)
            d = classical_distance_matrix(g)
            sums = d[:, :, None] + d[None, :, :]
            assert (d - sums.min(axis=1)).max() <= 0


class TestRandomGraphs:
    def test_single_vertex(self):
        g = random_connected_graph(1, 0.5, 7)
        assert g.n == 1 and g.edge_count == 0

    def test_full_probability_gives_complete(self):
        g = random_connected_graph(5, 1.0, 0)
        assert g.edge_count == 10

    def test_deterministic(self):
        a = random_connected_graph(8, 0.4, 42)
        b = random_connected_graph(8, 0.4, 42)
        assert a == b

    def test_always_connected_even_when_sparse(self):
        for seed in range(25):
            assert is_connected(random_connected_graph(12, 0.05, seed))

    def test_same_graphs_as_drawing_from_a_list_of_all_pairs(self):
        # The pairs are walked lazily; the graphs equal those of the earlier
        # code, which drew one rng.random() per entry of a list of all pairs.
        def from_pair_list(n, edge_prob, seed, max_resample=100):
            rng = random.Random(seed)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = []
            for _ in range(max_resample):
                edges = [e for e in pairs if rng.random() < edge_prob]
                g = Graph.from_edges(n, edges)
                if is_connected(g):
                    return g
            order = list(range(n))
            rng.shuffle(order)
            tree = set()
            for i in range(1, n):
                a, b = order[i], order[rng.randrange(i)]
                tree.add((min(a, b), max(a, b)))
            return Graph.from_edges(n, set(edges) | tree)

        for seed in range(20):
            for n in range(1, 41):
                # p = 0.1 with three draws also reaches the spanning-tree overlay
                for args in ((0.5, seed), (0.1, seed, 3)):
                    assert random_connected_graph(n, *args) == from_pair_list(n, *args), (n, args)

    def test_trees_have_n_minus_1_edges(self):
        for seed in range(30):
            t = random_tree(seed % 14 + 2, seed)
            assert t.edge_count == t.n - 1
            assert is_connected(t)

    def test_tree_deterministic(self):
        assert random_tree(9, 3) == random_tree(9, 3)

    def test_edges_normalized_without_from_edges(self):
        for seed in range(40):
            n = seed % 15 + 1
            assert_normalized(random_connected_graph(n, 0.3, seed))
            assert_normalized(random_connected_graph(n, 0.05, seed, 2))  # spanning-tree overlay
            assert_normalized(random_tree(n, seed))

    @pytest.mark.parametrize("n", [0, -3])
    def test_connected_graph_needs_a_vertex(self, n):
        with pytest.raises(VertexOutOfRange):
            random_connected_graph(n, 0.5, 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_tree_needs_a_vertex(self, n):
        with pytest.raises(VertexOutOfRange):
            random_tree(n, 1)


class TestEdgeHelpers:
    def test_add_edge(self):
        g = generate(FamilySpec.path(3))
        g2 = add_edge(g, 2, 0)
        assert (0, 2) in g2.edges and g2.edge_count == 3

    def test_add_existing_edge_returns_an_equal_graph(self):
        g = generate(FamilySpec.path(3))
        assert add_edge(g, 1, 0) == g

    def test_add_edge_checks_the_new_pair(self):
        g = generate(FamilySpec.path(3))
        with pytest.raises(SelfLoop):
            add_edge(g, 1, 1)
        with pytest.raises(VertexOutOfRange):
            add_edge(g, 0, 3)

    @pytest.mark.parametrize("bad", [0.5, np.float64(1.0), "1", 2.0, None])
    def test_non_integer_endpoints_rejected(self, bad):
        with pytest.raises(VertexOutOfRange, match="non-integer"):
            Graph.from_edges(3, [(0, bad)])
        with pytest.raises(VertexOutOfRange, match="non-integer"):
            Graph.from_edges(3, [(bad, 2)])
        with pytest.raises(VertexOutOfRange, match="non-integer"):
            add_edge(generate(FamilySpec.path(3)), bad, 2)

    def test_numpy_integer_endpoints_stored_as_int(self):
        g = Graph.from_edges(np.int64(3), [(np.int64(1), np.int64(0)), (np.int32(2), 1)])
        assert g.edges == {(0, 1), (1, 2)}
        assert all(type(x) is int for edge in g.edges for x in edge)
        g2 = add_edge(g, np.int64(2), np.int64(0))
        assert all(type(x) is int for edge in g2.edges for x in edge)
        assert is_connected(g2) and format_edge_list(g2) == "3\n0 1\n0 2\n1 2\n"

    def test_non_edges(self):
        g = generate(FamilySpec.path(3))
        assert non_edges(g) == [(0, 2)]
        assert non_edges(generate(FamilySpec.complete(4))) == []

    def test_from_edges_validation(self):
        with pytest.raises(SelfLoop):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(DuplicateEdge):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(VertexOutOfRange):
            Graph.from_edges(2, [(0, 3)])
        with pytest.raises(VertexOutOfRange):
            Graph.from_edges(0, [])
