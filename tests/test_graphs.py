import os
import random
import subprocess
import sys
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations_with_replacement, product
from pathlib import Path

import numpy as np
import pytest
from networkx import from_prufer_sequence
from networkx.generators.atlas import graph_atlas_g

from homshift import (
    CycleLabeling,
    Graph,
    LabeledTree,
    MonomialIdeal,
    PreconditionError,
    caterpillar_from_profile,
    even_connected,
    even_connection_walk,
    graph_from_dict,
    graph_to_dict,
    is_bipartite,
    is_connected,
    is_tree,
    lex_labeled_copy,
    rename_variables,
    spanning_paths_of_cycle,
    spanning_tree,
    tree_distance_labeling,
    validate_lex_labeling,
)
from homshift.corpus import _compositions, connected_graphs, distance_labeled_trees
from homshift.graphs import relabel_graph

CATALOG = Path(__file__).resolve().parents[1] / "src" / "homshift" / "_catalog.py"


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


# ---------------------------------------------------------------------------
# reference definitions of the searches, each written out in full
# ---------------------------------------------------------------------------


def reachable_count(g, start=1):
    """How many vertices a depth-first walk from start reaches."""
    seen, stack = {start}, [start]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def two_colorable(g):
    """Whether some 0/1 coloring gives every edge two colors, grown from each uncolored vertex."""
    color = {}
    for start in g.vertices():
        if start in color:
            continue
        color[start], stack = 0, [start]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def suffixes_connected(g):
    """Whether each suffix {i+1, ..., n} is connected, by one search inside each suffix."""
    for i in range(1, g.n):
        seen, stack = {i + 1}, [i + 1]
        while stack:
            for w in g.neighbors(stack.pop()):
                if w > i and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != g.n - i:
            return False
    return True


def queue_bfs_tree(g):
    """The tree of the edges along which a queue-driven search from 1 first reaches each vertex."""
    edges, seen, queue = [], {1}, deque([1])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                edges.append((v, w))
                queue.append(w)
    return Graph(g.n, edges)


@lru_cache(maxsize=None)
def search_inputs() -> tuple[Graph, ...]:
    """Every connected catalog graph on at most 6 vertices under 3 seeded relabelings,
    then 120 seeded random graphs on 1..8 vertices, many of them disconnected."""
    rng = random.Random(20251018)
    out = []
    for n in range(1, 7):
        for g in connected_graphs(n):
            for _ in range(3):
                out.append(relabel_graph(g, tuple(rng.sample(range(1, n + 1), n))))
    for _ in range(120):
        n, p = rng.randint(1, 8), rng.random()
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        out.append(Graph(n, [e for e in pairs if rng.random() < p]))
    return tuple(out)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])
    g = Graph(3, [(2, 1), (2, 3), (1, 2)])
    assert g.edges == ((1, 2), (2, 3))
    assert g.neighbors(2) == (1, 3)


def test_is_connected_examples():
    assert is_connected(path(3))
    assert not is_connected(Graph(4, [(1, 2), (3, 4)]))
    assert is_connected(Graph(1, []))
    verdicts = [is_connected(g) for g in search_inputs()]
    assert verdicts == [reachable_count(g) == g.n for g in search_inputs()]
    assert False in verdicts


def test_has_edge_is_false_for_any_non_edge():
    c5 = CycleLabeling(5).graph
    assert c5.has_edge(1, 2) and c5.has_edge(2, 1) and c5.has_edge(5, 1)
    for a, b in [(9, 1), (1, 9), (0, 3), (3, 0), (9, 9), (2, 2), (1, 3)]:
        assert not c5.has_edge(a, b)
    # A multiset edge that is not a graph edge is refused in either order.
    for bad in [(9, 1), (1, 9)]:
        with pytest.raises(ValueError, match="not an edge of the host graph"):
            even_connection_walk(c5, 1, 3, (bad,))


def test_spanning_tree_is_the_queue_built_bfs_tree():
    trees = 0
    for g in search_inputs():
        if reachable_count(g) == g.n:
            t = spanning_tree(g)
            assert t == queue_bfs_tree(g) and is_tree(t)
            trees += 1
        else:
            with pytest.raises(PreconditionError):
                spanning_tree(g)
    assert 0 < trees < len(search_inputs())


def test_is_bipartite_examples():
    assert is_bipartite(CycleLabeling(4).graph)
    assert not is_bipartite(CycleLabeling(5).graph)
    for n in range(2, 7):
        for t in distance_labeled_trees(n):
            assert is_bipartite(t.graph)
    verdicts = [is_bipartite(g) for g in search_inputs()]
    assert verdicts == [two_colorable(g) for g in search_inputs()]
    assert True in verdicts and False in verdicts


def test_validate_lex_labeling_examples():
    assert validate_lex_labeling(path(4))
    # Vertex 1 in the interior: removing it disconnects {2} from {3, 4}.
    assert not validate_lex_labeling(Graph(4, [(2, 1), (1, 3), (3, 4)]))
    for n in range(3, 7):
        assert validate_lex_labeling(CycleLabeling(n).graph)
    with pytest.raises(PreconditionError):
        validate_lex_labeling(Graph(4, [(1, 2), (3, 4)]))
    verdicts = []
    for g in search_inputs():
        if reachable_count(g) == g.n:
            verdicts.append(validate_lex_labeling(g))
            assert verdicts[-1] == suffixes_connected(g)
        else:
            with pytest.raises(PreconditionError):
                validate_lex_labeling(g)
    assert True in verdicts and False in verdicts


def test_tree_distance_labeling_path():
    t, perm = tree_distance_labeling(path(3), 3)
    assert perm == (1, 2, 3)
    assert t.parent == (2, 3)


def test_tree_distance_labeling_star():
    star = Graph(4, [(3, 1), (3, 2), (3, 4)])
    t, _ = tree_distance_labeling(star, 1)
    # Leaves take {1, 2}, the center 3, the root 4.
    assert t.graph.edges == ((1, 3), (2, 3), (3, 4))
    assert t.parent == (3, 3, 4)


def test_tree_distance_labeling_single_edge():
    t, perm = tree_distance_labeling(Graph(2, [(1, 2)]), 2)
    assert perm == (1, 2)
    assert t.parent == (2,)


def test_tree_distance_labeling_rejections():
    with pytest.raises(PreconditionError):
        tree_distance_labeling(CycleLabeling(3).graph, 1)
    with pytest.raises(PreconditionError):
        tree_distance_labeling(path(4), 2)  # not a leaf


def test_distance_labelings_always_lex_valid():
    for n in range(2, 8):
        for t in distance_labeled_trees(n):
            assert validate_lex_labeling(t.graph)
            # labels non-increasing in distance to n
            dist = _bfs_dist(t.graph, t.n)
            for i in range(1, t.n):
                assert dist[i] >= dist[i + 1]


@pytest.mark.parametrize("n", range(2, 7))
def test_distance_labeled_trees_match_all_labeled_trees(n):
    # networkx decodes each labeled tree from its sequence encoding, on 0-based nodes.
    labeled = set()
    for seq in product(range(n), repeat=n - 2):
        tree = Graph(n, [(a + 1, b + 1) for a, b in from_prufer_sequence(list(seq)).edges()])
        leaves = [v for v in tree.vertices() if tree.degree(v) == 1]
        labeled.add(tree_distance_labeling(tree, max(leaves))[0].graph)
    assert labeled == {t.graph for t in distance_labeled_trees(n)}


def test_distance_labeled_tree_counts_are_catalan():
    counts = [len(distance_labeled_trees(n)) for n in range(2, 9)]
    assert counts == [1, 1, 2, 5, 14, 42, 132]


def _bfs_dist(g, root):
    from collections import deque

    dist = {root: 0}
    q = deque([root])
    while q:
        v = q.popleft()
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def test_even_connected_cycle_example():
    c4 = CycleLabeling(4).graph
    walk = even_connection_walk(c4, 4, 3, ((1, 2),))
    assert walk == [4, 1, 2, 3]
    assert even_connected(c4, 4, 3, ((1, 2),))
    with pytest.raises(ValueError, match="not an edge of the host graph"):
        even_connection_walk(c4, 4, 3, ((1, 2), (1, 3)))


def test_even_connection_walk_refuses_end_vertices_outside_the_graph():
    c5 = CycleLabeling(5).graph
    edges = ((1, 2),)
    # The same refusal in either end position, whether or not a walk could exist.
    for j, k in [(1, 9), (9, 1), (0, 1), (1, 0), (6, 6), (-1, 3)]:
        with pytest.raises(ValueError, match="outside vertex range"):
            even_connection_walk(c5, j, k, edges)
        with pytest.raises(ValueError, match="outside vertex range"):
            even_connected(c5, j, k, edges)
    # Refused before the multiset is looked at, even when it is empty.
    with pytest.raises(ValueError, match="outside vertex range"):
        even_connection_walk(c5, 9, 1, ())
    assert even_connection_walk(c5, 1, 5, edges) == [1, 2, 1, 5]


def test_even_connected_tree_never_closes():
    for n in range(2, 6):
        for t in distance_labeled_trees(n):
            g = t.graph
            for size in range(0, 3):
                for edges in combinations_with_replacement(g.edges, size):
                    for v in g.vertices():
                        assert not even_connected(g, v, v, edges)


def test_even_connected_odd_cycle_closes():
    c5 = CycleLabeling(5)
    walk = even_connection_walk(c5.graph, 5, 5, (c5.edge(1), c5.edge(3)))
    assert walk == [5, 1, 2, 3, 4, 5]
    for n in (5, 7):
        c = CycleLabeling(n)
        m = n // 2
        assert even_connected(c.graph, n, n, tuple(c.edge(2 * t + 1) for t in range(m)))


def test_even_connected_empty_multiset_is_false():
    g = path(4)
    assert not even_connected(g, 1, 4, ())


def _brute_even_connected(g, j, k, edges):
    """Independent check: enumerate all vertex sequences of admissible lengths."""
    available = Counter(edges)
    for l in range(1, len(edges) + 1):
        length = 2 * l + 2
        for seq in product(range(1, g.n + 1), repeat=length):
            if seq[0] != j or seq[-1] != k:
                continue
            if any(not g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
                continue
            used = Counter(tuple(sorted((seq[2 * t + 1], seq[2 * t + 2]))) for t in range(l))
            if all(c <= available[e] for e, c in used.items()):
                return True
    return False


@pytest.mark.parametrize("n", [4, 5])
def test_even_connected_matches_brute_force(n):
    c = CycleLabeling(n)
    g = c.graph
    for edges in combinations_with_replacement(g.edges, 2):
        for j in g.vertices():
            for k in g.vertices():
                assert even_connected(g, j, k, edges) == _brute_even_connected(g, j, k, edges)


def test_even_connected_is_symmetric():
    for g in [CycleLabeling(5).graph, path(5), Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)])]:
        for edges in combinations_with_replacement(g.edges, 2):
            for j in g.vertices():
                for k in g.vertices():
                    assert even_connected(g, j, k, edges) == even_connected(g, k, j, edges)


def test_witness_walk_shape():
    c6 = CycleLabeling(6)
    edges = (c6.edge(1), c6.edge(3))
    walk = even_connection_walk(c6.graph, 6, 5, edges)
    assert walk is not None
    assert len(walk) % 2 == 0 and len(walk) >= 4
    assert walk[0] == 6 and walk[-1] == 5
    for a, b in zip(walk, walk[1:]):
        assert c6.graph.has_edge(a, b)
    interior = [tuple(sorted(walk[2 * t + 1 : 2 * t + 3])) for t in range((len(walk) - 2) // 2)]
    for e in set(interior):
        assert interior.count(e) <= edges.count(e)


def test_caterpillar_examples():
    t = caterpillar_from_profile((1, 1))
    assert t.graph.edges == ((1, 2), (2, 3), (3, 4))
    t = caterpillar_from_profile((2, 1))
    assert set(t.graph.edges) == {(1, 3), (2, 3), (3, 4), (4, 5)}
    assert t.parent == (3, 3, 4, 5)
    t = caterpillar_from_profile((1,))
    assert t.graph.edges == ((1, 2), (2, 3))
    with pytest.raises(PreconditionError):
        caterpillar_from_profile(())
    with pytest.raises(PreconditionError):
        caterpillar_from_profile((1, 0))


def test_caterpillar_parent_fibers_match_profile():
    profiles = [p for total in range(1, 9) for p in _compositions(total)]
    assert len(profiles) == 255
    for profile in profiles:
        t = caterpillar_from_profile(profile)
        assert validate_lex_labeling(t.graph)
        sigma = 0
        for a in profile:
            sigma += a
            # spine vertex sigma_j + 1 collects exactly a_j children
            assert len([j for j in range(1, t.n) if t.phi(j) == sigma + 1]) == a


def test_spanning_paths_of_cycle():
    c3 = CycleLabeling(3)
    paths = spanning_paths_of_cycle(c3)
    assert len(paths) == 3
    assert all(p.n == 3 and is_tree(p) for p in paths)
    c4 = CycleLabeling(4)
    paths = spanning_paths_of_cycle(c4)
    # path 1 omits edge {4, 1}, path 2 edge {1, 2}; both keep the cycle's labels
    assert paths[0].edges == ((1, 2), (2, 3), (3, 4))
    assert paths[1].edges == ((1, 4), (2, 3), (3, 4))
    assert len(spanning_paths_of_cycle(CycleLabeling(6))) == 6


def test_labeled_tree_invariants_enforced():
    with pytest.raises(ValueError):
        LabeledTree(CycleLabeling(3).graph)
    with pytest.raises(ValueError):
        LabeledTree(Graph(3, [(1, 3), (2, 3)]))  # vertex 3 has degree 2
    with pytest.raises(ValueError):
        LabeledTree(Graph(4, [(1, 2), (1, 3), (3, 4)]))  # 4 is a leaf, 2 has no neighbor above
    with pytest.raises(ValueError):
        LabeledTree(Graph(5, [(1, 4), (2, 3), (3, 4), (4, 5)]))  # 2 lies farther from 5 than 1
    # Valid: the path in natural order.
    t = LabeledTree(path(4))
    assert t.parent == (2, 3, 4)


def test_graph_json_round_trip_and_kinds():
    g = path(4)
    doc = graph_to_dict(g)
    assert doc == {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}
    g2, kind = graph_from_dict(doc)
    assert g2 == g and kind is None
    _, kind = graph_from_dict({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]], "kind": "cycle"})
    assert kind == "cycle"
    _, kind = graph_from_dict({"n": 4, "edges": [[1, 3], [3, 2], [2, 4], [4, 1]], "kind": "cycle"})
    assert kind == "cycle"
    from homshift import InputFormatError

    with pytest.raises(InputFormatError):
        graph_from_dict({"n": 4, "edges": [[1, 2]], "kind": "cycle"})
    two_triangles = [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]
    with pytest.raises(InputFormatError):
        graph_from_dict({"n": 6, "edges": two_triangles, "kind": "cycle"})
    with pytest.raises(InputFormatError):
        graph_from_dict({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]], "kind": "tree"})
    with pytest.raises(InputFormatError):
        graph_from_dict({"edges": []})
    with pytest.raises(InputFormatError):
        graph_from_dict({"n": 2, "edges": [[1, 2, 3]]})


def test_graph_inputs_must_be_integers():
    # A float, a bool or a string is refused, never truncated or read as a vertex.
    for call in (
        lambda: Graph(3.9, [(1, 2), (2, 3)]),
        lambda: Graph(3, [(1.5, 2), (2, 3)]),
        lambda: Graph(3, [(True, 3), (2, 3)]),
        lambda: Graph(True, []),
        lambda: CycleLabeling(4.7),
        lambda: CycleLabeling("5"),
        lambda: caterpillar_from_profile([1.9, 2]),
        lambda: caterpillar_from_profile([True, 2]),
        lambda: rename_variables(MonomialIdeal.unit(2), [1.0, 2.0], 3),
        lambda: rename_variables(MonomialIdeal.unit(2), [True, 2], 2),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    from homshift import InputFormatError

    for doc in ({"n": 3.0, "edges": [[1, 2]]}, {"n": 3, "edges": [[1, 2.0]]}, {"n": 3, "edges": [[False, 2]]}):
        with pytest.raises(InputFormatError, match="must be an integer"):
            graph_from_dict(doc)
    # numpy integers are integers.
    assert Graph(np.int64(3), [(np.int8(1), np.uint16(2))]) == Graph(3, [(1, 2)])
    assert CycleLabeling(np.int32(4)) == CycleLabeling(4)


# ---------------------------------------------------------------------------
# the shipped catalog of connected graphs and the atlas pipeline it came from
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def atlas_catalog() -> dict[int, tuple[Graph, ...]]:
    """The connected graphs of networkx's atlas on 1..7 vertices, in atlas order.

    Each one is relabeled by ``lex_labeled_copy``, so every suffix of its
    vertex set induces a connected subgraph.  This is the pipeline that
    ``homshift/_catalog.py`` was generated from.
    """
    out: dict[int, list[Graph]] = {n: [] for n in range(1, 8)}
    for nx_graph in graph_atlas_g():
        n = nx_graph.number_of_nodes()
        if n == 0:
            continue
        g = Graph(n, [(u + 1, v + 1) for u, v in nx_graph.edges()])
        if is_connected(g):
            out[n].append(lex_labeled_copy(g)[0])
    return {n: tuple(gs) for n, gs in out.items()}


def to_graph6(g: Graph) -> str:
    """The graph6 string of g, with vertex v written as graph6 vertex v - 1."""
    bits = "".join(
        "1" if g.has_edge(i, j) else "0" for j in range(2, g.n + 1) for i in range(1, j)
    )
    bits += "0" * (-len(bits) % 6)
    return chr(g.n + 63) + "".join(chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6))


def catalog_source() -> str:
    """The text of ``homshift/_catalog.py``, generated from ``atlas_catalog``."""
    lines = [
        '"""Connected graphs on 1 to 7 vertices, one per isomorphism class, as graph6 strings.',
        "",
        "Generated by ``python tests/test_graphs.py``; do not edit.  ``GRAPH6[n]``",
        "holds the graphs on n vertices, separated by spaces, in the order of",
        "Read & Wilson, *An Atlas of Graphs* (1998), each in the suffix-connected",
        "labels that ``graphs.lex_labeled_copy`` gives it; graph6 vertex k is",
        "vertex k + 1.  ``test_catalog_matches_atlas`` rebuilds the table from",
        "networkx's copy of the atlas and compares it graph by graph.",
        '"""',
        "",
        "GRAPH6 = {",
    ]
    for n, gs in atlas_catalog().items():
        codes = [to_graph6(g) for g in gs]
        chunks = [" ".join(codes[k : k + 12]) for k in range(0, len(codes), 12)]
        if len(chunks) == 1:
            lines.append(f"    {n}: {chunks[0]!r},")
            continue
        lines.append(f"    {n}: (")
        lines += [f"        {chunk + ' '!r}" for chunk in chunks[:-1]]
        lines += [f"        {chunks[-1]!r}", "    ),"]
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", range(1, 8))
def test_catalog_matches_atlas(n):
    assert connected_graphs(n) == atlas_catalog()[n]


def test_catalog_counts():
    assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


@pytest.mark.parametrize("n", [-1, 0, 8])
def test_catalog_range(n):
    with pytest.raises(ValueError, match="1 to 7 vertices"):
        connected_graphs(n)


def test_catalog_needs_no_networkx():
    # A None entry in sys.modules makes every import of networkx fail.
    script = (
        "import sys; sys.modules['networkx'] = None\n"
        "import homshift\n"
        "from homshift.cli import main\n"
        "from homshift.corpus import connected_graphs\n"
        "print([len(connected_graphs(n)) for n in range(1, 8)])\n"
        "sys.exit(main(['verify', '--max-n', '4']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(CATALOG.parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "[1, 1, 2, 6, 21, 112, 853]"


if __name__ == "__main__":
    CATALOG.write_text(catalog_source())
    print(f"wrote {CATALOG}")
