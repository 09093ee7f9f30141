import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import resq.graph
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
    _connected,
    _parse_lines,
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
from resq.serialize import graph_hash


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
        # the rule of Graph.from_edges, with the line named
        with pytest.raises(VertexOutOfRange, match=r"^line 2: vertex count must be >= 1"):
            parse_edge_list("# empty\n0\n")
        with pytest.raises(MalformedLine):
            parse_edge_list("3.0\n0 1\n")

    def test_vertex_count_cap(self):
        assert parse_edge_list(f"{MAX_ORDER}\n0 1\n").n == MAX_ORDER
        with pytest.raises(VertexOutOfRange, match=f"<= {MAX_ORDER}, got {MAX_ORDER + 1}$"):
            parse_edge_list(f"{MAX_ORDER + 1}\n0 1\n")

    @settings(max_examples=60)
    @given(n=st.integers(1, 12), seed=st.integers(0, 10**6))
    def test_format_parse_roundtrip(self, n, seed):
        g = random_connected_graph(n, 0.4, seed)
        assert parse_edge_list(format_edge_list(g)) == g


def _outcome(parse, text):
    """parse(text), or the type and message of the input error it raises."""
    try:
        return parse(text)
    except GraphInputError as err:
        return type(err), str(err)


def _mostly(common, rare, odds=9):
    """common, and one time in odds + 1 an element of rare."""
    return st.sampled_from([common] * odds * len(rare) + rare)


@st.composite
def _edge_list_texts(draw):
    """Edge-list texts, most of them on 2 to 7 vertices and most lines plain:
    now and then a duplicate, a self-loop, an endpoint out of range, a row
    of 1 or 3 tokens, a comment, a line break that str.splitlines and
    np.loadtxt read differently, or a token int() reads and np.loadtxt does
    not."""
    def token(x):
        return draw(_mostly(str(x), ["+%d" % x, "00%d" % x, "%d_0" % x, "\u0661",
                                     "99999999999999999999", "%d#" % x, "#", "x", "1+2", "-"], 40))

    def blank():
        return draw(_mostly(" ", ["\t", "  ", "\xa0", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029", "\r"], 40))

    n = draw(_mostly(draw(st.integers(2, 7)), [0, 1, 8, MAX_ORDER + 1]))
    lines = [blank().join([token(n)] * draw(_mostly(1, [2])))]
    for _ in range(draw(st.integers(0, min(n, 8)))):
        u, v = draw(st.permutations(range(max(2, min(n, 8)))))[:2]
        ends = draw(_mostly((u, v), [(u,), (u, v, v), (u, u), (u, n), (-1, v)]))
        lines.append(draw(_mostly(blank().join(map(token, ends)), ["", " \t", "# comment"])))
    lines.insert(0, draw(_mostly("", ["# header", " "])))
    return "".join(line + draw(_mostly("\n", ["\r\n", "\r", "\n\n", "\x0c", "\x85", "\u2028"], 30))
                   for line in lines[draw(_mostly(1, [0])):])


class TestArrayParse:
    """parse_edge_list reads a plain text with one np.loadtxt and array
    checks, and anything else line by line; both give one answer."""

    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on a body with no row
    @settings(max_examples=500)
    @given(text=_edge_list_texts())
    @example(text="3\n0\x0c1\n")
    @example(text="3\n0\x0b1\n")
    @example(text="3\n0\u20281\n")
    @example(text="3\n0\r1\n")
    @example(text="3\n0 1\r")
    @example(text="3\n0 1\r\r1 2")
    @example(text="3\n1_0 1\n")
    @example(text="3\n\u0661 0\n")
    @example(text="3\n0 99999999999999999999\n")
    @example(text="3\n0 1\n1 0\n")
    @example(text="3\n0 1\n1 1\n")
    @example(text="3\n2 1\n0 3\n")
    @example(text="3\n0 1\n2\n")
    @example(text="3\n0 1 2\n")
    @example(text="3\n0 1 2\n1 2 0\n")
    @example(text="3\n0 1#\n")
    @example(text="3\n0 1 # comment\n")
    @example(text="3\n# comment\n")
    @example(text="# h\r\n3\r\n# c\r\n0 1\r\n")
    @example(text="# h\n3\n0 1\n1 2 # note\n")
    @example(text="3\n0 1\r# c\n")
    @example(text="3\n0 1\n# c\r")
    @example(text="3\n0 1\n# c\x0c1 2\n")
    @example(text="3\n-1 2\n")
    @example(text="0\n0 1\n")
    @example(text="20001\n0 1\n")
    @example(text="\n \n+3 \r\n 2\t1\r\n\r\n0 2\r\n")
    @example(text="1\n")
    @example(text="  \n")
    def test_array_path_equals_line_parser(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(_parse_lines, text)

    @pytest.mark.parametrize("text", ["3\n0\x0c1\n", "3\n0\x0b1\n", "3\n0\u20281\n"])
    def test_line_breaks_loadtxt_reads_as_blanks_stay_malformed(self, text):
        with pytest.raises(MalformedLine, match="^line 2: expected 'u v'"):
            parse_edge_list(text)

    @pytest.mark.parametrize("text, outcome", [
        ("3\n1_0 1\n", (VertexOutOfRange, "line 2: edge (10, 1) outside [0, 3)")),
        ("12\n1_0 1\n", {(1, 10)}),
        ("3\n\u0661 0\n", {(0, 1)}),
        ("3\n0 99999999999999999999\n",
         (VertexOutOfRange, "line 2: edge (0, 99999999999999999999) outside [0, 3)")),
    ])
    def test_tokens_only_int_reads_fall_back(self, text, outcome):
        got = _outcome(parse_edge_list, text)
        assert (got.edges if isinstance(got, Graph) else got) == outcome

    def test_plain_text_never_reaches_the_line_parser(self, monkeypatch):
        g = random_connected_graph(200, 0.1, 4)
        shuffled = g.edge_array.tolist()
        random.Random(1).shuffle(shuffled)
        text = "\r\n \n200\t\n" + "".join(f" {v}\t{u} \r\n" for u, v in shuffled)

        def no_lines(text):
            raise AssertionError("line parser run")

        monkeypatch.setattr(resq.graph, "_parse_lines", no_lines)
        assert parse_edge_list(text) == g
        assert parse_edge_list(format_edge_list(g)) == g

    @pytest.mark.parametrize("text", [
        "# header\n3\n0 1\n1 2\n",
        "3\n0 1\n# between\n \t# indented\n#\n1 2\n# last",
        "# h\r\n3\r\n# c\r\n0 1\r\n1 2\r\n",
    ], ids=["header", "between", "crlf"])
    def test_whole_line_comments_keep_the_array_path(self, text, monkeypatch):
        expected = _parse_lines(text)

        def no_lines(text):
            raise AssertionError("line parser run")

        monkeypatch.setattr(resq.graph, "_parse_lines", no_lines)
        assert parse_edge_list(text) == expected == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_a_mid_line_comment_is_malformed_at_its_line(self):
        text = "# header\n3\n0 1\n1 2 # note\n"
        with pytest.raises(MalformedLine, match="^line 4: expected 'u v', got '1 2 # note'$"):
            parse_edge_list(text)
        assert _outcome(parse_edge_list, text) == _outcome(_parse_lines, text)

    def test_edge_array_is_sorted_read_only_and_equal_graphs_hash_alike(self):
        g = parse_edge_list("4\n3 2\n0 1\n2 1\n")
        assert g.edge_array.tolist() == [[0, 1], [1, 2], [2, 3]]
        assert not g.edge_array.flags.writeable
        h = Graph.from_edges(4, [(2, 3), (1, 0), (2, 1)])
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        assert g != Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]) and g != g.edges


class TestPinnedDigests:
    """sha256 of format_edge_list, whose first 16 hex digits are graph_hash,
    as the frozenset representation of the graphs gave them."""

    @pytest.mark.parametrize("g, digest", [
        pytest.param(lambda: generate(FamilySpec.complete(5)),
                     "851174736016c0ff783d13c3353f584784c91ae775743839f1faf5c6a29c22ef", id="K5"),
        pytest.param(lambda: generate(FamilySpec.cycle(7)),
                     "afe458951827b1aff7593c2f122e6a38d20722c79498707469c97caa89bf6957", id="C7"),
        pytest.param(lambda: generate(FamilySpec.bipartite(2, 3)),
                     "71c314185d28dd7ff7225c6b3abc984c3f9e0f0969550e489706a246b162bdb1", id="K23"),
        pytest.param(lambda: generate(FamilySpec.path(4)),
                     "b2d2190278a57dd2b9c60fb785f7785d60a797acdce46b2de034d20091caa75f", id="P4"),
        pytest.param(lambda: random_connected_graph(300, 0.05, 1),
                     "90f1708ee629033b58c08d32e25cf909442b3485bd6e73be180d4fbdf4ad6329", id="G300"),
        pytest.param(lambda: parse_edge_list(
            "# a commented graph\r\n5\r\n\r\n3 4\r\n# middle\r\n0 2\r\n1 0\r\n2 3\r\n"),
                     "bfbfd6c296da3252f86a385f770bca5e405bf3fd78303898027015a97eb414aa", id="crlf"),
    ])
    def test_digest(self, g, digest):
        g = g()
        assert hashlib.sha256(format_edge_list(g).encode("ascii")).hexdigest() == digest
        assert graph_hash(g) == digest[:16]


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
        with pytest.raises(InvalidFamilyParams, match="exactly two parameters"):
            FamilySpec("bipartite", (3,)).validate()
        with pytest.raises(InvalidFamilyParams, match="exactly one parameter"):
            FamilySpec("cycle", (3, 4)).validate()

    def test_params_that_are_no_sequence_rejected(self):
        with pytest.raises(InvalidFamilyParams, match="got 5$"):
            FamilySpec("complete", 5).validate()

    def test_numpy_integer_params_read_as_ints(self):
        for kind, params in (("complete", (4,)), ("cycle", (5,)), ("path", (3,)),
                             ("bipartite", (2, 3))):
            spec = FamilySpec(kind, tuple(np.int64(p) for p in params))
            g = generate(spec)
            assert g == generate(FamilySpec(kind, params)) and type(g.n) is int
            assert spec.validate() == params and all(type(p) is int for p in spec.validate())

    @pytest.mark.parametrize("bad", [4.0, 0.5, np.float64(4.0), "4", None])
    def test_non_integer_params_rejected(self, bad):
        for spec in (FamilySpec.complete(bad), FamilySpec.bipartite(2, bad)):
            with pytest.raises(InvalidFamilyParams) as exc:
                generate(spec)
            message = f"{spec.kind} parameters must be positive integers, got {spec.params}"
            assert str(exc.value) == message

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

    def test_edge_lists_of_the_draw(self):
        # the draw checks its edge list before it builds a Graph
        assert _connected(1, [])
        assert _connected(5, [(0, 1), (1, 2), (1, 3), (3, 4)])  # a tree, n - 1 edges
        assert not _connected(4, [(0, 1), (1, 2), (0, 2)])  # n - 1 edges, vertex 3 isolated
        assert not _connected(4, [(0, 1), (2, 3)])

    def test_edge_arrays_agree_with_the_bfs(self):
        rng = random.Random(3)
        for trial in range(300):
            n = rng.randint(1, 40)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 3 / n]
            if trial % 3 == 0:  # a path under a random labelling, connected
                order = list(range(n))
                rng.shuffle(order)
                pairs = sorted({(min(a, b), max(a, b)) for a, b in zip(order, order[1:])})
            g = Graph.from_edges(n, pairs)
            assert is_connected(g) == _connected(n, pairs) == _connected(n, g.edge_array)

    def test_fewer_than_n_minus_1_edges_need_no_bfs(self, monkeypatch):
        def no_bfs(adj, source):
            raise AssertionError("BFS run")

        monkeypatch.setattr(resq.graph, "_hops", no_bfs)
        assert not _connected(5, [(0, 1), (1, 2), (2, 3)])
        assert not _connected(2, [])


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

    def test_same_graphs_as_drawing_from_a_list_of_all_pairs(self, monkeypatch):
        # The pairs are walked lazily; the graphs equal those of the earlier
        # code, which drew one rng.random() per entry of a list of all pairs.
        def from_pair_list(n, edge_prob, seed, max_resample):
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

        for n in range(1, 41):
            for seed in range(20):
                assert random_connected_graph(n, 0.5, seed) == from_pair_list(n, 0.5, seed, 100)
        # p = 0.1 with three draws also reaches the spanning-tree overlay
        monkeypatch.setattr(resq.graph, "_MAX_RESAMPLE", 3)
        for n in range(1, 41):
            for seed in range(20):
                assert random_connected_graph(n, 0.1, seed) == from_pair_list(n, 0.1, seed, 3)

    def test_no_draw_overlays_a_spanning_tree_alone(self, monkeypatch):
        monkeypatch.setattr(resq.graph, "_MAX_RESAMPLE", 0)
        for seed in range(10):
            g = random_connected_graph(9, 0.9, seed)
            assert g.edge_count == 8 and is_connected(g)

    @pytest.mark.parametrize("seed", [None, 1.5, np.float64(2.0), "abc", [1], b"1"])
    def test_seed_must_be_an_integer(self, seed):
        # None would draw a different graph on every call
        with pytest.raises(GraphInputError, match="^seed must be an integer"):
            random_connected_graph(5, 0.5, seed)
        with pytest.raises(GraphInputError, match="^seed must be an integer"):
            random_tree(5, seed)
        with pytest.raises(GraphInputError, match="^seed must be an integer"):
            random_tree(1, seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.int32(7), 7])
    def test_integer_seeds_read_as_ints(self, seed):
        assert random_connected_graph(8, 0.3, seed) == random_connected_graph(8, 0.3, 7)
        assert random_tree(8, seed) == random_tree(8, 7)
        assert random_connected_graph(8, 0.3, True) == random_connected_graph(8, 0.3, 1)

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
            assert_normalized(random_connected_graph(n, 0.05, seed))  # spanning-tree overlay
            assert_normalized(random_tree(n, seed))

    @pytest.mark.parametrize("n", [0, -3, MAX_ORDER + 1])
    def test_connected_graph_needs_a_vertex(self, n):
        with pytest.raises(VertexOutOfRange):
            random_connected_graph(n, 0.5, 1)

    @pytest.mark.parametrize("edge_prob", ["a", "0.5", None, math.nan, math.inf, -math.inf,
                                           2.0, -1.0, np.float64(1.5), np.array(0.5)])
    def test_edge_prob_must_be_a_real_number_in_the_unit_interval(self, edge_prob):
        # a NaN would make _MAX_RESAMPLE empty draws before the tree overlay
        with pytest.raises(GraphInputError, match="^edge_prob must be a real number in"):
            random_connected_graph(200, edge_prob, 1)

    @pytest.mark.parametrize("edge_prob", [0, 1, 0.0, 1.0, True, np.float64(0.5), np.int64(1)])
    def test_edge_prob_bounds_and_numpy_numbers_accepted(self, edge_prob):
        g = random_connected_graph(6, edge_prob, 3)
        assert g == random_connected_graph(6, float(edge_prob), 3)
        assert is_connected(g)

    @pytest.mark.parametrize("n", [0, -3, MAX_ORDER + 1])
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
        with pytest.raises(VertexOutOfRange, match="non-integer vertex count"):
            Graph.from_edges(bad, [])
        with pytest.raises(VertexOutOfRange, match="non-integer vertex count"):
            random_tree(bad, 1)
        with pytest.raises(VertexOutOfRange, match="non-integer vertex count"):
            random_connected_graph(bad, 0.5, 1)

    def test_numpy_integer_endpoints_stored_as_int(self):
        g = Graph.from_edges(np.int64(3), [(np.int64(1), np.int64(0)), (np.int32(2), 1)])
        assert type(g.n) is int
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
        with pytest.raises(VertexOutOfRange):
            Graph.from_edges(MAX_ORDER + 1, [])

    @pytest.mark.parametrize("edges", [5, None, 1.5])
    def test_edges_that_cannot_be_iterated_rejected(self, edges):
        with pytest.raises(VertexOutOfRange, match="^edges must be an iterable of vertex pairs"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize("pair", [(0, 1, 2), (0,), 1, None])
    def test_edge_that_is_no_pair_rejected(self, pair):
        with pytest.raises(VertexOutOfRange, match="is not a pair of vertices"):
            Graph.from_edges(3, [pair])
