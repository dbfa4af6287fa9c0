"""Simple graphs on [n], admissible vertex labelings, and even-connected walks.

One breadth-first search, ``_distances_from``, serves connectivity,
bipartiteness, spanning trees and tree labelings.  A labeling is
admissible (every suffix {i+1, ..., n} connected) exactly when each
vertex v < n has a neighbor above v, so checking it needs no search.

A walk certifies that two vertices j, k are "even-connected" with respect
to a multiset of edges when it has the shape

    j - w0 - [multiset edge] - w1 - ... - [multiset edge] - w? - k

i.e. odd-position steps are arbitrary graph edges, even-position steps are
drawn from the multiset without exceeding multiplicities, and at least one
multiset edge is used.  These walks characterize the variables appearing
in colon ideals of edge-ideal powers.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import accumulate
from typing import Callable, Iterable

from .errors import InputFormatError, PreconditionError
from .monomials import _integer

Edge = tuple[int, int]


def _normalize_edge(e) -> Edge:
    a, b = _integer(e[0], "edge endpoint"), _integer(e[1], "edge endpoint")
    if a == b:
        raise ValueError(f"loop edge {e}")
    return (a, b) if a < b else (b, a)


class Graph:
    """Immutable simple undirected graph on {1, ..., n}; n and each endpoint must be integers, not bools."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge]):
        n = _integer(n, "vertex count")
        if n < 1:
            raise ValueError("vertex count must be positive")
        normalized = sorted({_normalize_edge(e) for e in edges})
        for a, b in normalized:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a}, {b}) outside vertex range [1, {n}]")
        adj: dict[int, tuple[int, ...]] = {}
        nbrs: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        for a, b in normalized:
            nbrs[a].append(b)
            nbrs[b].append(a)
        for v, lst in nbrs.items():
            adj[v] = tuple(sorted(lst))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "_adj", adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, a: int, b: int) -> bool:
        """False for every pair that is not an edge, vertices or not."""
        return b in self._adj.get(a, ())

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def _distances_from(g: Graph, root: int) -> dict[int, int]:
    """Breadth-first distances from root to every vertex of its component.

    The keys come in discovery order, neighbors of a vertex in increasing
    label order; ``spanning_tree`` and ``tree_distance_labeling`` rely on it.
    """
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    """True for the one-vertex graph and any graph with a single component."""
    return len(_distances_from(g, 1)) == g.n


def is_bipartite(g: Graph) -> bool:
    """No edge joins two vertices at distances of equal parity from their component's root."""
    dist: dict[int, int] = {}
    for start in g.vertices():
        if start not in dist:
            dist |= _distances_from(g, start)
    return all(dist[a] % 2 != dist[b] % 2 for a, b in g.edges)


def is_tree(g: Graph) -> bool:
    return len(g.edges) == g.n - 1 and is_connected(g)


def is_cycle_graph(g: Graph) -> bool:
    return (
        g.n >= 3
        and is_connected(g)
        and all(g.degree(v) == 2 for v in g.vertices())
    )


def validate_lex_labeling(g: Graph) -> bool:
    """True when every suffix {i+1, ..., n} induces a connected subgraph.

    This is the labeling condition under which powers of the complementary
    edge ideal acquire linear quotients in descending lex order.  Since
    {v, ..., n} is {v+1, ..., n} plus v, every suffix is connected exactly
    when every vertex v < n has a neighbor above v.
    """
    if not is_connected(g):
        raise PreconditionError("lex-labeling validation requires a connected graph")
    return all(g.neighbors(v)[-1] > v for v in range(1, g.n))


class LabeledTree:
    """A tree whose labels already satisfy the distance discipline.

    Labels are non-increasing in distance to the root leaf n, and each
    vertex j < n has a neighbor above j.  A tree has one edge per vertex
    below n, so that neighbor is unique: the parent phi(j) = neighbors(j)[-1].
    """

    __slots__ = ("graph", "parent")

    def __init__(self, graph: Graph):
        if not is_tree(graph):
            raise ValueError("LabeledTree requires a tree")
        n = graph.n
        if n >= 2 and graph.degree(n) != 1:
            raise ValueError(f"vertex {n} must be a leaf")
        if not validate_lex_labeling(graph):
            raise ValueError("some vertex below n has no neighbor above it")
        dist = _distances_from(graph, n)
        for j in range(1, n - 1):
            if dist[j] < dist[j + 1]:
                raise ValueError("labels are not non-increasing in distance to the root")
        parent = tuple(graph.neighbors(j)[-1] for j in range(1, n))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "parent", parent)

    @property
    def n(self) -> int:
        return self.graph.n

    def phi(self, j: int) -> int:
        """The unique neighbor of j larger than j, for j in [n-1]."""
        return self.parent[j - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, LabeledTree) and self.graph == other.graph

    def __hash__(self) -> int:
        return hash(self.graph)

    def __repr__(self) -> str:
        return f"LabeledTree({self.graph!r})"


class CycleLabeling:
    """The n-cycle with vertices 1..n in cyclic order.

    Edge j is {j, j+1} for j in [n-1]; edge 0 (also written edge n)
    is {n, 1}.
    """

    __slots__ = ("n", "_graph")

    def __init__(self, n: int):
        n = _integer(n, "cycle length")
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        edges = [(j, j + 1) for j in range(1, n)] + [(1, n)]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_graph", Graph(n, edges))

    @property
    def graph(self) -> Graph:
        return self._graph

    def edge(self, j: int) -> Edge:
        """Edge j for j in 0..n (indices 0 and n both mean {n, 1})."""
        j = j % self.n
        if j == 0:
            return (1, self.n)
        return (j, j + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, CycleLabeling) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("cycle", self.n))

    def __repr__(self) -> str:
        return f"CycleLabeling({self.n})"


def tree_distance_labeling(t: Graph, root_leaf: int) -> tuple[LabeledTree, tuple[int, ...]]:
    """Relabel a tree so root_leaf becomes n and labels decrease outward.

    Vertices are ordered by decreasing distance to the root leaf, ties
    broken by breadth-first discovery order (which itself visits smaller
    original names first), giving one deterministic admissible labeling.
    Returns (tree, perm) with perm[old-1] = new.
    """
    if not is_tree(t):
        raise PreconditionError("distance labeling requires a tree")
    if t.n > 1 and t.degree(root_leaf) != 1:
        raise PreconditionError(f"vertex {root_leaf} is not a leaf")
    dist = _distances_from(t, root_leaf)
    order = sorted(dist, key=lambda v: -dist[v])
    perm = invert_permutation(order)
    return LabeledTree(relabel_graph(t, perm)), perm


def _check_multiset(g: Graph, edges: tuple[Edge, ...]) -> tuple[Edge, ...]:
    """The multiset as the sorted tuple of its edges, each (smaller, larger); a non-edge of g raises ValueError."""
    for e in edges:
        if not g.has_edge(*e):
            raise ValueError(f"edge {e} is not an edge of the host graph")
    return tuple(sorted(map(_normalize_edge, edges)))


def _even_walk(
    g: Graph, j: int, is_end: Callable[[int], bool], edges: tuple[Edge, ...]
) -> list[int] | None:
    """The first walk in search order even-connecting j to a vertex v with is_end(v), or None.

    The one depth-first search behind ``even_connection_walk`` and
    ``edge_ideals.set_via_even_connected``, on a multiset as ``_check_multiset``
    returns it.  A state is the current vertex and the sorted tuple of unused
    edges; a state that failed once fails again, since ``is_end`` is fixed.
    An end is tested only after a multiset edge, so every walk uses one.
    """
    failed: set[tuple] = set()

    def search(v: int, remaining: tuple[Edge, ...]) -> list[int] | None:
        # ``v`` sits just after a free edge; next step must come from the multiset.
        if (v, remaining) in failed:
            return None
        # Each distinct edge once, in sorted order; slicing drops one copy.
        for p, edge in enumerate(remaining):
            if v not in edge or p and edge == remaining[p - 1]:
                continue
            w = edge[0] if edge[1] == v else edge[1]
            rest = remaining[:p] + remaining[p + 1 :]
            for x in g.neighbors(w):
                tail = [x] if is_end(x) else search(x, rest)
                if tail is not None:
                    return [v, w] + tail
        failed.add((v, remaining))
        return None

    for w in g.neighbors(j):
        tail = search(w, edges)
        if tail is not None:
            return [j] + tail
    return None


def even_connection_walk(
    g: Graph, j: int, k: int, edges: tuple[Edge, ...]
) -> list[int] | None:
    """A witness walk even-connecting j to k with respect to an edge multiset, or None.

    ``edges`` lists the multiset's edges with repeats; each must be an edge
    of g, and j and k must be vertices of g (ValueError otherwise).  The
    returned walk alternates free graph edges with multiset edges and uses
    at least one multiset edge, so it always has even vertex count >= 4
    and odd length.
    """
    for v in (j, k):
        if not 1 <= v <= g.n:
            raise ValueError(f"end vertex {v} outside vertex range [1, {g.n}]")
    return _even_walk(g, j, lambda v: v == k, _check_multiset(g, edges))


def even_connected(g: Graph, j: int, k: int, edges: tuple[Edge, ...]) -> bool:
    """Whether j and k are even-connected with respect to the edge multiset ``edges``."""
    return even_connection_walk(g, j, k, edges) is not None


def caterpillar_from_profile(a: Iterable[int]) -> LabeledTree:
    """The caterpillar tree whose spine vertices collect a_1, a_2, ... children.

    With partial sums s_k = a_1 + ... + a_k, the spine is s_1+1, ..., s_r+1,
    s_r+2, and every vertex but the last hangs from the first spine vertex
    above it, so exactly a_j vertices (s_{j-1}+1, ..., s_j) hang from s_j+1.
    """
    profile = tuple(_integer(x, "profile entry") for x in a)
    if not profile or any(x < 1 for x in profile):
        raise PreconditionError(f"profile must be nonempty with positive entries: {profile}")
    spine = [total + 1 for total in accumulate(profile)]
    spine.append(spine[-1] + 1)
    n = spine[-1]
    return LabeledTree(Graph(n, [(v, spine[bisect_right(spine, v)]) for v in range(1, n)]))


def spanning_paths_of_cycle(c: CycleLabeling) -> list[Graph]:
    """The n spanning paths of a cycle in its own labels, path j omitting edge j-1."""
    return [
        Graph(c.n, [e for e in c.graph.edges if e != c.edge(j - 1)]) for j in range(1, c.n + 1)
    ]


def spanning_tree(g: Graph) -> Graph:
    """The BFS spanning tree from vertex 1.

    Each vertex hangs from its earliest-discovered neighbor, which is the
    one whose breadth-first step discovered it.
    """
    order = {v: rank for rank, v in enumerate(_distances_from(g, 1))}
    if len(order) != g.n:
        raise PreconditionError("spanning tree requires a connected graph")
    return Graph(g.n, [(min(g.neighbors(v), key=order.get), v) for v in order if v != 1])


def relabel_graph(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Apply the permutation old -> perm[old-1] to vertex names."""
    return Graph(g.n, [(perm[a - 1], perm[b - 1]) for a, b in g.edges])


def lex_labeled_copy(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """A relabeled copy of g with suffix-connected labels, plus the permutation.

    Labeling a spanning tree by distance to a root leaf makes every suffix
    of the tree (hence of g) connected.  Returns (graph, perm) with
    perm[old-1] = new; perm is the identity when g already qualifies.
    """
    identity = tuple(range(1, g.n + 1))
    if validate_lex_labeling(g):
        return g, identity
    tree = spanning_tree(g)
    leaves = [v for v in tree.vertices() if tree.degree(v) == 1]
    _, perm = tree_distance_labeling(tree, max(leaves))
    return relabel_graph(g, perm), perm


def invert_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for old, new in enumerate(perm, start=1):
        inv[new - 1] = old
    return tuple(inv)


def graph_from_dict(data: dict) -> tuple[Graph, str | None]:
    """Parse the {"n": ..., "edges": [[i, j], ...]} format with optional kind hint.

    A "tree" or "cycle" kind is validated against the actual structure;
    a cycle may come in any vertex labels.
    """
    if not isinstance(data, dict):
        raise InputFormatError("graph document must be a JSON object")
    try:
        n = data["n"]
        edges = [tuple(e) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bad graph document: {exc}") from exc
    if any(len(e) != 2 for e in edges):
        raise InputFormatError("edges must be pairs of vertices")
    try:
        g = Graph(n, edges)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    kind = data.get("kind")
    if kind is not None:
        if kind == "tree":
            if not is_tree(g):
                raise InputFormatError("graph is declared a tree but is not one")
        elif kind == "cycle":
            if not is_cycle_graph(g):
                raise InputFormatError("graph is declared a cycle but is not one")
        else:
            raise InputFormatError(f"unknown graph kind {kind!r}")
    return g, kind


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}
