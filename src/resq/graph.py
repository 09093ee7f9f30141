"""Simple undirected graphs: construction, parsing, generators, BFS metrics.

Vertices are 0-indexed integers. A Graph holds its edges in one sorted (m, 2)
array, read with no Python tuple per edge by the parse, connectivity, the
Laplacian and the edge-list text. Graphs are immutable; every operation in
this module is a pure function. Edges from outside (parse_edge_list,
Graph.from_edges, add_edge's new pair) pass one check, _edge, and every
integer from outside one rule, _as_int. Connectivity is one rule, _connected,
for a Graph's array and for a random draw's edge list, whose BFS, _hops, also
gives classical_distance_matrix its hop counts.
"""

from __future__ import annotations

import functools
import heapq
import io
import numbers
import operator
import random
import re
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, combinations

import numpy as np

from .errors import (
    Disconnected,
    DuplicateEdge,
    GraphInputError,
    InvalidFamilyParams,
    MalformedLine,
    SelfLoop,
    VertexOutOfRange,
)

Edge = tuple[int, int]

FAMILY_KINDS = ("complete", "bipartite", "cycle", "path")

#: Largest vertex count parse_edge_list accepts and generate builds: one
#: n x n float64 matrix of this order takes 3.2 GB. The energy report and a
#: matrix output hold one of them plus at most 256 x n entries (41 MB) of
#: workspace; a matrix output adds one block of its text.
MAX_ORDER = 20_000

# Erdos-Renyi draws random_connected_graph makes before it overlays a tree.
_MAX_RESAMPLE = 100


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    edge_array holds the edges as read-only (m, 2) integer rows (u, v), u < v,
    sorted, no repeats; edges is the same set of int pairs, built on first
    read. Edges from outside go through :meth:`from_edges`, which validates
    and normalizes them.
    """

    n: int
    edge_array: np.ndarray

    def __post_init__(self):
        self.edge_array.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self):
        return hash((self.n, self.edge_array.tobytes()))

    @functools.cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(map(tuple, self.edge_array.tolist()))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Validate and normalize an iterable of vertex pairs into a Graph.

        Raises SelfLoop, VertexOutOfRange (also for a non-integer endpoint or
        vertex count, and for edges that cannot be iterated) or DuplicateEdge
        when the input violates the simple-graph invariants.
        """
        n = _require_vertices(n)
        try:
            pairs = iter(edges)
        except TypeError:
            raise VertexOutOfRange(
                f"edges must be an iterable of vertex pairs, got {edges!r}") from None
        normalized: set[Edge] = set()
        for pair in pairs:
            key = _edge(n, pair)
            if key in normalized:
                raise DuplicateEdge(f"edge ({key[0]}, {key[1]}) listed twice")
            normalized.add(key)
        return _graphs([(n, sorted(normalized))])[0]

    @property
    def edge_count(self) -> int:
        return len(self.edge_array)


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of a graph family instance.

    kind is one of FAMILY_KINDS; params holds (n,) for the single-parameter
    families and (p, q) for bipartite, integers that validate returns as ints.
    """

    kind: str
    params: tuple[int, ...]

    @classmethod
    def complete(cls, n: int) -> "FamilySpec":
        return cls("complete", (n,))

    @classmethod
    def bipartite(cls, p: int, q: int) -> "FamilySpec":
        return cls("bipartite", (p, q))

    @classmethod
    def cycle(cls, n: int) -> "FamilySpec":
        return cls("cycle", (n,))

    @classmethod
    def path(cls, n: int) -> "FamilySpec":
        return cls("path", (n,))

    def validate(self) -> tuple[int, ...]:
        """The params as ints; InvalidFamilyParams unless they fit the kind."""
        if self.kind not in FAMILY_KINDS:
            raise InvalidFamilyParams(f"unknown family kind {self.kind!r}")
        try:
            params = tuple(map(_as_int, self.params))
        except TypeError:  # params is no sequence
            params = (None,)
        if not all(p is not None and p >= 1 for p in params):
            raise InvalidFamilyParams(
                f"{self.kind} parameters must be positive integers, got {self.params}"
            )
        if self.kind == "bipartite":
            if len(params) != 2:
                raise InvalidFamilyParams("bipartite takes exactly two parameters p, q")
        elif len(params) != 1:
            raise InvalidFamilyParams(f"{self.kind} takes exactly one parameter n")
        if self.kind == "cycle" and params[0] < 3:
            raise InvalidFamilyParams(f"cycle needs n >= 3, got {params[0]}")
        if self.order > MAX_ORDER:
            raise InvalidFamilyParams(f"order {self.order} exceeds {MAX_ORDER}")
        return params

    @property
    def order(self) -> int:
        return sum(self.params)

    def label(self) -> str:
        if self.kind == "bipartite":
            return "K_{%d,%d}" % self.params
        return {"complete": "K", "cycle": "C", "path": "P"}[self.kind] + str(self.params[0])


# The bytes np.loadtxt splits as str.splitlines and int() do (it rejects a lone
# CR in a line), and the vertex count line when an edge line follows it.
_PLAIN = b"0123456789+- \t\r\n"
_COUNT_LINE = re.compile(rb"\s*(\S+)[ \t\r]*\n(?=\s*\S)")


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Format: the first non-comment line is the vertex count; each following
    line is "u v". Lines starting with '#' are comments; blank lines are
    ignored; LF and CRLF both accepted. Errors name the offending line.
    Counts outside [1, MAX_ORDER] raise VertexOutOfRange before any O(n) allocation.
    A text of digits, signs, blanks and line ends is read by np.loadtxt and
    checked on arrays; any other text or anomaly goes to the line parser.
    """
    data = text.encode("ascii") if text.isascii() else b""
    if (head := _COUNT_LINE.match(data)) and not data.translate(None, _PLAIN):
        (body := io.BytesIO(data)).seek(head.end())
        try:
            n, edges = int(head[1]), np.loadtxt(body, dtype=np.intp, ndmin=2)
            u, v = edges.T  # ValueError unless every row is a pair
        except (ValueError, OverflowError):
            return _parse_lines(text)
        if 1 <= n <= MAX_ORDER and edges.min() >= 0 and edges.max() < n and (u != v).all():
            swap = u > v
            edges[swap] = edges[swap, ::-1]
            keys = u * n + v
            if not (np.diff(keys) > 0).all():
                order = np.argsort(keys, kind="stable")
                edges, keys = edges[order], keys[order]
            if (np.diff(keys) > 0).all():  # no pair listed twice
                return Graph(n, edges)
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    """parse_edge_list one line at a time."""
    n: int | None = None
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                count = int(line)
            except ValueError:
                raise MalformedLine(f"line {lineno}: expected vertex count, got {raw!r}") from None
            n = _require_vertices(count, f"line {lineno}: ")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLine(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLine(f"line {lineno}: endpoints must be integers, got {raw!r}") from None
        key = _edge(n, (u, v), f"line {lineno}: ")
        if key in seen:
            raise DuplicateEdge(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add(key)
    if n is None:
        raise MalformedLine("missing vertex count line")
    return _graphs([(n, sorted(seen))])[0]


def _as_int(x) -> int | None:
    """x by operator.index (int, bool, numpy integer), or None: the caller raises its error."""
    try:
        return operator.index(x)
    except TypeError:
        return None


def _require_vertices(n, where: str = "") -> int:
    """n as an int; VertexOutOfRange, where prefixing it, unless an integer in [1, MAX_ORDER]."""
    count = _as_int(n)
    if count is None:
        raise VertexOutOfRange(f"{where}non-integer vertex count {n!r}")
    if not 1 <= count <= MAX_ORDER:
        raise VertexOutOfRange(f"{where}vertex count must be >= 1 and <= {MAX_ORDER}, got {count}")
    return count


def _require_seed(seed) -> int:
    """seed as an int; GraphInputError unless an integer."""
    if (value := _as_int(seed)) is None:
        raise GraphInputError(f"seed must be an integer, got {seed!r}")
    return value


def _edge(n: int, pair, where: str = "") -> Edge:
    """Key (min, max) of the edge pair (u, v) on n vertices, endpoints read
    by _as_int. Raises VertexOutOfRange for a pair that is not two integers
    in [0, n) and SelfLoop for u == v; where prefixes the message."""
    try:
        u, v = pair
    except (TypeError, ValueError):
        raise VertexOutOfRange(f"{where}edge {pair!r} is not a pair of vertices") from None
    a, b = _as_int(u), _as_int(v)
    if a is None or b is None:
        raise VertexOutOfRange(f"{where}edge ({u!r}, {v!r}) has a non-integer endpoint")
    if a == b:
        raise SelfLoop(f"{where}self-loop at vertex {a}")
    if not (0 <= a < n and 0 <= b < n):
        raise VertexOutOfRange(f"{where}edge ({a}, {b}) outside [0, {n})")
    return (a, b) if a < b else (b, a)


def _graphs(items) -> list[Graph]:
    """The Graph of each (n, edges) item, edges a sorted list of distinct
    pairs (u, v), u < v: views of one array filled by one np.fromiter."""
    cuts = [0, *accumulate(len(edges) for _, edges in items)]
    ends = chain.from_iterable(chain.from_iterable(edges for _, edges in items))
    flat = np.fromiter(ends, dtype=np.intp, count=2 * cuts[-1]).reshape(-1, 2)
    return [Graph(n, flat[a:b]) for (n, _), a, b in zip(items, cuts, cuts[1:])]


def format_edge_list(g: Graph) -> str:
    """Render a Graph in the edge-list text format accepted by parse_edge_list,
    one "%d" formatting per block of 2^15 edges."""
    blocks = np.split(g.edge_array, range(1 << 15, g.edge_count, 1 << 15))
    return f"{g.n}\n" + "".join(("%d %d\n" * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by a FamilySpec, its edge array by formula.

    Bipartite parts are {0..p-1} and {p..p+q-1}; paths use edges {i, i+1},
    and cycles add {0, n-1}.
    """
    params = spec.validate()
    n = sum(params)
    if spec.kind == "complete":
        edges = np.argwhere(np.arange(n)[:, None] < np.arange(n))
    elif spec.kind == "bipartite":
        edges = np.argwhere(np.ones(params, dtype=bool)) + (0, params[0])
    else:
        edges = np.arange(n - 1)[:, None] + (0, 1)
        if spec.kind == "cycle":  # {0, n-1} sorts second
            edges = np.concatenate([edges[:1], [(0, n - 1)], edges[1:]])
    return Graph(n, edges)


def _hops(adj: list[list[int]], source: int) -> list[int]:
    """Hop counts from source by BFS over the neighbour lists adj; -1 where
    a vertex is unreachable."""
    hops = [-1] * len(adj)
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if hops[w] < 0:
                hops[w] = hops[u] + 1
                queue.append(w)
    return hops


def _neighbor_lists(n: int, edges) -> list[list[int]]:
    """Neighbours of each of n vertices joined by the edges (u, v), in no particular order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _connected(n: int, edges) -> bool:
    """True iff the edges join all n vertices: never with fewer than n - 1,
    else iff vertex 0 reaches all, by BFS on a list of pairs. An (m, 2) array
    hooks the larger root of each edge across two trees under the smaller and
    points every vertex at its root, until no edge joins two trees."""
    if len(edges) < n - 1:
        return False
    if not isinstance(edges, np.ndarray):
        return -1 not in _hops(_neighbor_lists(n, edges), 0)
    u, v = edges.T
    root = np.arange(n)
    while ((ru := root[u]) != (rv := root[v])).any():
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(jump := root[root], root):
            root = jump
    return not root.any()


def is_connected(g: Graph) -> bool:
    """True iff the edges join all n vertices (n=1 is connected)."""
    return _connected(g.n, g.edge_array)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian Diag(deg) - A; rows sum to zero."""
    return _laplacians([g], g.n)[0]


def _laplacians(graphs: list[Graph], n: int) -> np.ndarray:
    """Stacked Laplacians, shape (k, n, n), of graphs that all have order n:
    two scatters of their concatenated edges, and the degrees by bincount."""
    k = len(graphs)
    u, v = np.concatenate([g.edge_array for g in graphs]).T
    at = np.repeat(np.arange(0, k * n, n), [g.edge_count for g in graphs]) + u  # u's row
    laps = np.zeros((k, n, n))
    rows = laps.reshape(k * n, n)
    rows[at, v] = -1.0
    degree = np.bincount(at, minlength=k * n)
    at += v - u  # v's row
    rows[at, u] = -1.0
    degree += np.bincount(at, minlength=k * n)
    laps[:, np.arange(n), np.arange(n)] = degree.reshape(k, n)
    return laps


def _distances(laps: np.ndarray) -> np.ndarray:
    """Shortest-path lengths of connected graphs from their stacked Laplacians
    (k, n, n): n Floyd-Warshall min-plus sweeps on the adjacency. Equal to
    classical_distance_matrix bit for bit (small integers are exact in
    float64); O(n^3) per graph, so for small orders only."""
    n = laps.shape[-1]
    d = np.where(laps < 0.0, 1.0, np.inf)
    d[:, np.arange(n), np.arange(n)] = 0.0
    for m in range(n):
        np.minimum(d, d[:, :, m, None] + d[:, None, m, :], out=d)
    return d


def classical_distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path lengths by BFS from every vertex.

    Raises Disconnected when some pair is unreachable.
    """
    adj = _neighbor_lists(g.n, g.edge_array.tolist())
    dist = np.array([_hops(adj, src) for src in range(g.n)], dtype=float)
    if (dist < 0).any():
        raise Disconnected("graph is disconnected; distances undefined")
    return dist


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of g with the extra edge {u, v}. Only the new pair is
    checked, as g's edges were when g was built; an existing edge is kept."""
    return _graphs([(g.n, sorted(g.edges | {_edge(g.n, (u, v))}))])[0]


def non_edges(g: Graph) -> list[Edge]:
    """Unordered vertex pairs not joined by an edge, in lexicographic order."""
    return [e for e in combinations(range(g.n), 2) if e not in g.edges]


def random_connected_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Erdos-Renyi draw, resampled until connected; deterministic per seed.

    After _MAX_RESAMPLE failed draws, a random spanning tree is overlaid on
    the last draw so the result is always connected. GraphInputError unless
    edge_prob is a finite real number in [0, 1] and seed an integer.
    """
    n = _require_vertices(n)
    if not (isinstance(edge_prob, numbers.Real) and 0.0 <= edge_prob <= 1.0):
        raise GraphInputError(f"edge_prob must be a real number in [0, 1], got {edge_prob!r}")
    return _graphs([(n, _random_connected(n, edge_prob, _require_seed(seed)))])[0]


def _random_connected(n: int, edge_prob, seed: int, pairs=None) -> list[Edge]:
    """The sorted edges of random_connected_graph of checked arguments. Each
    draw calls rng.random once per vertex pair, walking pairs,
    tuple(combinations(range(n), 2)) or by default the same pairs lazily."""
    rng = random.Random(seed)
    draw = rng.random
    edges: list[Edge] = []
    for _ in range(_MAX_RESAMPLE):
        edges = [e for e in (combinations(range(n), 2) if pairs is None else pairs)
                 if draw() < edge_prob]
        if _connected(n, edges):
            return edges
    order = list(range(n))
    rng.shuffle(order)
    tree: set[Edge] = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        tree.add((min(a, b), max(a, b)))
    return sorted(tree.union(edges))


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices (Prufer decode), deterministic per seed."""
    n, seed = _require_vertices(n), _require_seed(seed)
    return _graphs([(n, _random_tree(n, seed))])[0]


def _random_tree(n: int, seed: int) -> list[Edge]:
    """The sorted edge list of random_tree of checked arguments."""
    if n == 1:
        return []
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges: list[Edge] = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    # the heap pops the smaller of the last two leaves first, so u < v
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return sorted(edges)
