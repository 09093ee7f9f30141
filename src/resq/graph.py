"""Simple undirected graphs: construction, parsing, generators, BFS metrics.

Vertices are 0-indexed integers. Graphs are immutable; every operation in
this module is a pure function, so values can be shared freely across
threads. Edges from outside (parse_edge_list, Graph.from_edges, add_edge's
new pair) pass one check, _edge; hop counts come from one BFS, _hops.
"""

from __future__ import annotations

import heapq
import operator
import random
from collections import deque
from dataclasses import dataclass
from itertools import chain

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
#: n x n float64 matrix of this order takes 3.2 GB. The energy report holds
#: one of them plus about a quarter of one as workspace; a matrix output
#: adds its text, which is larger still.
MAX_ORDER = 20_000


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Edges are stored as (u, v) pairs of ints with u < v. Edges from outside
    go through :meth:`from_edges`, which validates and normalizes them.
    """

    n: int
    edges: frozenset[Edge]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Validate and normalize an iterable of vertex pairs into a Graph.

        Raises SelfLoop, VertexOutOfRange (also for a non-integer endpoint)
        or DuplicateEdge when the input violates the simple-graph invariants.
        """
        _require_vertices(n)
        normalized: set[Edge] = set()
        for u, v in edges:
            key = _edge(n, u, v)
            if key in normalized:
                raise DuplicateEdge(f"edge ({key[0]}, {key[1]}) listed twice")
            normalized.add(key)
        return cls(n=n, edges=frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbor_lists(self) -> list[list[int]]:
        """Neighbours of each vertex, in no particular order."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of a graph family instance.

    kind is one of "complete", "bipartite", "cycle", "path"; params holds
    (n,) for the single-parameter families and (p, q) for bipartite.
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

    def validate(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise InvalidFamilyParams(f"unknown family kind {self.kind!r}")
        if not all(isinstance(p, int) and p >= 1 for p in self.params):
            raise InvalidFamilyParams(
                f"{self.kind} parameters must be positive integers, got {self.params}"
            )
        if self.kind == "bipartite":
            if len(self.params) != 2:
                raise InvalidFamilyParams("bipartite takes exactly two parameters p, q")
        elif len(self.params) != 1:
            raise InvalidFamilyParams(f"{self.kind} takes exactly one parameter n")
        if self.kind == "cycle" and self.params[0] < 3:
            raise InvalidFamilyParams(f"cycle needs n >= 3, got {self.params[0]}")
        if self.order > MAX_ORDER:
            raise InvalidFamilyParams(f"order {self.order} exceeds {MAX_ORDER}")

    @property
    def order(self) -> int:
        return sum(self.params)

    def label(self) -> str:
        if self.kind == "bipartite":
            return "K_{%d,%d}" % self.params
        return {"complete": "K", "cycle": "C", "path": "P"}[self.kind] + str(self.params[0])


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Format: the first non-comment line is the vertex count; each following
    line is "u v". Lines starting with '#' are comments; blank lines are
    ignored; LF and CRLF both accepted. Errors name the offending line.
    Vertex counts above MAX_ORDER are rejected before any O(n) allocation.
    """
    n: int | None = None
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise MalformedLine(f"line {lineno}: expected vertex count, got {raw!r}") from None
            if n < 1:
                raise MalformedLine(f"line {lineno}: vertex count must be >= 1, got {n}")
            if n > MAX_ORDER:
                raise GraphInputError(f"line {lineno}: vertex count {n} exceeds {MAX_ORDER}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLine(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLine(f"line {lineno}: endpoints must be integers, got {raw!r}") from None
        key = _edge(n, u, v, f"line {lineno}: ")
        if key in seen:
            raise DuplicateEdge(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add(key)
    if n is None:
        raise MalformedLine("missing vertex count line")
    return Graph(n=n, edges=frozenset(seen))


def _require_vertices(n: int) -> None:
    if n < 1:
        raise VertexOutOfRange(f"vertex count must be >= 1, got {n}")


def _edge(n: int, u, v, where: str = "") -> Edge:
    """Key (min, max) of the edge {u, v} on n vertices, endpoints coerced by
    operator.index. Raises VertexOutOfRange for an endpoint that is not an
    integer in [0, n) and SelfLoop for u == v; where prefixes the message."""
    try:
        u, v = operator.index(u), operator.index(v)
    except TypeError:
        raise VertexOutOfRange(f"{where}edge ({u!r}, {v!r}) has a non-integer endpoint") from None
    if u == v:
        raise SelfLoop(f"{where}self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise VertexOutOfRange(f"{where}edge ({u}, {v}) outside [0, {n})")
    return (u, v) if u < v else (v, u)


def format_edge_list(g: Graph) -> str:
    """Render a Graph in the edge-list text format accepted by parse_edge_list."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by a FamilySpec.

    Bipartite parts are {0..p-1} and {p..p+q-1}; paths use edges {i, i+1},
    and cycles add {0, n-1}.
    """
    spec.validate()
    if spec.kind == "complete":
        (n,) = spec.params
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif spec.kind == "bipartite":
        p, q = spec.params
        n, edges = p + q, [(u, p + v) for u in range(p) for v in range(q)]
    else:
        (n,) = spec.params
        edges = [(i, i + 1) for i in range(n - 1)]
        if spec.kind == "cycle":
            edges.append((0, n - 1))
    return Graph(n, frozenset(edges))


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


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches all n vertices (n=1 is connected)."""
    return -1 not in _hops(g.neighbor_lists(), 0)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian Diag(deg) - A; rows sum to zero."""
    return _laplacians([g], g.n)[0]


def _laplacians(graphs: list[Graph], n: int) -> np.ndarray:
    """Stacked Laplacians, shape (k, n, n), of graphs that all have order n,
    built from edge index arrays."""
    sizes = [len(g.edges) for g in graphs]
    which = np.repeat(np.arange(len(graphs)), sizes)
    ends = chain.from_iterable(chain.from_iterable(g.edges for g in graphs))
    u, v = np.fromiter(ends, dtype=np.intp, count=2 * sum(sizes)).reshape(-1, 2).T
    laps = np.zeros((len(graphs), n, n))
    laps[which, u, v] = laps[which, v, u] = -1.0
    i = np.arange(n)
    laps[:, i, i] = 0.0 - laps.sum(axis=-1)
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
    adj = g.neighbor_lists()
    dist = np.array([_hops(adj, src) for src in range(g.n)], dtype=float)
    if (dist < 0).any():
        raise Disconnected("graph is disconnected; distances undefined")
    return dist


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of g with the extra edge {u, v}. Only the new pair is
    checked, as g's edges were when g was built; an existing edge is kept."""
    return Graph(g.n, g.edges | {_edge(g.n, u, v)})


def non_edges(g: Graph) -> list[Edge]:
    """Unordered vertex pairs not joined by an edge, in lexicographic order."""
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in g.edges
    ]


def random_connected_graph(
    n: int, edge_prob: float, seed: int, max_resample: int = 100
) -> Graph:
    """Erdos-Renyi draw, resampled until connected; deterministic per seed.

    After max_resample failed draws, a random spanning tree is overlaid on
    the last draw so the result is always connected.
    """
    _require_vertices(n)
    rng = random.Random(seed)
    edges: list[Edge] = []
    for _ in range(max_resample):
        # one draw per vertex pair, in lexicographic order, with no pair list
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob]
        g = Graph(n, frozenset(edges))
        if is_connected(g):
            return g
    order = list(range(n))
    rng.shuffle(order)
    tree: set[Edge] = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        tree.add((min(a, b), max(a, b)))
    return Graph(n, frozenset(edges) | tree)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices (Prufer decode)."""
    _require_vertices(n)
    if n == 1:
        return Graph(1, frozenset())
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
    return Graph(n, frozenset(edges))
