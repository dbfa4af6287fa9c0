"""Built-in verification corpora and the registered checks that run over them.

Trees are enumerated through their parent maps: an admissibly labeled tree
on [n] sends each j <= n-2 to a parent phi(j) in {j+1, ..., n-1} and joins
n-1 to the root leaf n.  Of these (n-2)! trees the corpus keeps those the
deterministic distance labeling leaves unchanged, one per labeled result.

The connected graphs on up to 7 vertices ship with the package as a
generated table (``homshift._catalog``): the connected graphs of Read &
Wilson's atlas in atlas order, already in suffix-connected labels.  No
graph library is needed at run time; the test suite rebuilds the table
from networkx's atlas and compares the two.

Each claim that ``homshift verify`` checks has one check function here,
taking one instance and returning its verify record.  ``SUITES`` pairs each check with the
instances it covers up to a vertex count; ``homshift verify`` and the
acceptance tests both iterate it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product
from typing import Callable, Iterator, NamedTuple

from .edge_ideals import (
    comp_edge_ideal,
    pd_of_power,
    power_generators,
    power_set_map,
    set_cycle,
    set_tree,
    set_via_even_connected,
)
from .errors import PreconditionError
from .graphs import (
    Graph,
    LabeledTree,
    CycleLabeling,
    is_bipartite,
    is_tree,
    tree_distance_labeling,
)
from .monomials import VeroneseSpec, veronese_type
from .shifts import (
    _veronese_structure,
    caterpillar_realization,
    check_hs_maximal_identity,
    hs_closed_form,
    hs_linear_quotients,
)


@lru_cache(maxsize=None)
def distance_labeled_trees(n: int) -> tuple[LabeledTree, ...]:
    """Distinct distance-labeled trees on [n] (rooted at the largest leaf), by edge list."""
    if n < 2:
        return ()
    out = []
    for phi in product(*(range(j + 1, n) for j in range(1, n - 1))):
        g = Graph(n, [(j, p) for j, p in enumerate(phi, start=1)] + [(n - 1, n)])
        t, _ = tree_distance_labeling(g, n)
        if t.graph == g:
            out.append(t)
    return tuple(sorted(out, key=lambda t: t.graph.edges))


def cycles(n_max: int) -> tuple[CycleLabeling, ...]:
    return tuple(CycleLabeling(n) for n in range(3, n_max + 1))


def _from_graph6(code: str) -> Graph:
    """The graph of a graph6 string on at most 62 vertices; graph6 vertex k becomes k + 1."""
    n = ord(code[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in code[1:])
    pairs = ((i, j) for j in range(2, n + 1) for i in range(1, j))
    return Graph(n, [pair for pair, bit in zip(pairs, bits) if bit == "1"])


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """Connected graphs on 1 <= n <= 7 vertices, one per isomorphism class.

    The graphs come in the order of Read & Wilson's *An Atlas of Graphs*
    (1998).  Each representative is relabeled so that every suffix of its
    vertex set induces a connected subgraph, making all powers of its
    complementary edge ideal directly amenable to lex linear quotients.
    The table ships as graph6 strings in ``homshift._catalog``;
    ``python tests/test_graphs.py`` regenerates it from networkx's copy of
    the atlas, and ``test_catalog_matches_atlas`` checks it against that
    copy graph by graph.
    """
    if not 1 <= n <= 7:
        raise ValueError("the graph catalog covers 1 to 7 vertices")
    from ._catalog import GRAPH6

    return tuple(map(_from_graph6, GRAPH6[n].split()))


# ---------------------------------------------------------------------------
# registered checks: one instance in, one verify record out
# ---------------------------------------------------------------------------


def describe_instance(subject, **params) -> dict:
    """The JSON form of a check instance, as verify records print it.

    Cycles are named by their size alone, trees and graphs by n and edges,
    Veronese specs by profile and degree; ``params`` are added as given.
    """
    if isinstance(subject, CycleLabeling):
        doc = {"n": subject.n}
    elif isinstance(subject, VeroneseSpec):
        doc = {"profile": list(subject.caps), "d": subject.degree}
    else:
        g = subject.graph if isinstance(subject, LabeledTree) else subject
        doc = {"edges": [list(e) for e in g.edges], "n": g.n}
    return {**doc, **params}


def _record(check: str, subject, params: dict, verdict: bool, lhs_gens: int, rhs_gens: int):
    return {
        "check": check,
        "instance": describe_instance(subject, **params),
        "verdict": verdict,
        "lhs_gens": lhs_gens,
        "rhs_gens": rhs_gens,
    }


def check_set_maps(x: LabeledTree | CycleLabeling, s: int) -> dict:
    """Colon, even-connected and tree/cycle set maps agree on every generator of I^s."""
    kind, closed = ("tree", set_tree) if isinstance(x, LabeledTree) else ("cycle", set_cycle)
    multisets = power_generators(x.graph, s).edge_multisets()
    ok = all(
        su == set_via_even_connected(x.graph, edges) == closed(x, edges)
        for edges, su in zip(multisets, power_set_map(x.graph, s).sets)
    )
    return _record(f"set-maps/{kind}", x, {"s": s}, ok, len(multisets), len(multisets))


def check_hs_formulas(x: LabeledTree | CycleLabeling, i: int, s: int) -> dict:
    """The closed form of HS_i(I^s) from ``hs_closed_form`` equals the linear-quotient one."""
    lhs = hs_closed_form(x.graph, i, s)
    if lhs is None:
        raise PreconditionError(f"no closed form for HS_{i} of power {s} of {x!r}")
    rhs = hs_linear_quotients(power_set_map(x.graph, s), i)
    kind = "tree" if isinstance(x, LabeledTree) else "cycle"
    return _record(
        f"hs-formulas/{kind}", x, {"i": i, "s": s}, lhs == rhs, lhs.num_gens(), rhs.num_gens()
    )


def check_maximal_identity(g: Graph, i: int) -> dict:
    """HS_i(I) + HS_{i-1}(mI) = m^[i] I for I = I_c(g), and HS_n(I) = 0.

    Needs the Betti oracle for HS_{i-1}(mI).
    """
    result = check_hs_maximal_identity(comp_edge_ideal(g), i, set_map=power_set_map(g, 1))
    verdict = result.verdict and (i < g.n or result.hs_i.is_zero())
    lhs = result.hs_i + result.hs_prev_of_max_multiple
    return _record(
        "maximal-identity", g, {"i": i}, verdict, lhs.num_gens(), result.target.num_gens()
    )


def check_veronese(t: LabeledTree, i: int) -> dict:
    """The blocks J_i, K_i of the tree shifts have the Veronese-type structure."""
    verdict, j, k = _veronese_structure(t, i)
    return _record("veronese", t, {"i": i}, verdict, j.num_gens(), k.num_gens())


def check_caterpillar(spec: VeroneseSpec) -> dict:
    """The Veronese-type ideal of spec is realized by a caterpillar tree."""
    _, _, verdict = caterpillar_realization(spec)
    gens = veronese_type(spec).num_gens()
    return _record("caterpillar", spec, {}, verdict, gens, gens)


def check_monotonicity(g: Graph) -> dict:
    """pd of the powers of I_c(g), g connected on n >= 3 vertices.

    pd(I^s) is nondecreasing for s <= 4; pd(I) is 1 for trees and 2
    otherwise; over s <= n - 2 it rises strictly while below n - 2, and a
    bipartite g reaches n - 2.
    """
    pds = [pd_of_power(g, s) for s in range(1, 5)]
    scan = [pd_of_power(g, s) for s in range(1, g.n - 1)]
    verdict = (
        all(a <= b for a, b in zip(pds, pds[1:]))
        and pds[0] in (1, 2)
        and (pds[0] == 1) == is_tree(g)
        and all(b > a for a, b in zip(scan, scan[1:]) if a < g.n - 2)
        and (g.n - 2 in scan or not is_bipartite(g))
    )
    return _record("monotonicity", g, {}, verdict, pds[0], pds[-1])


# ---------------------------------------------------------------------------
# suites: the instances each check covers up to max_n vertices
# ---------------------------------------------------------------------------


def _trees(max_n: int) -> Iterator[LabeledTree]:
    for n in range(2, max_n + 1):
        yield from distance_labeled_trees(n)


def _set_map_instances(max_n: int):
    for x in chain(_trees(max_n), cycles(max_n)):
        for s in range(1, 4):
            yield x, {"s": s}


def _hs_formula_instances(max_n: int):
    for t in _trees(max_n):
        for s in range(1, 4):
            for i in range(1, s + 1):
                yield t, {"i": i, "s": s}
    for c in cycles(max_n):
        for s in range(1, 4):
            for i in range(1, c.n):
                if s >= i // 2:
                    yield c, {"i": i, "s": s}


def _maximal_identity_instances(max_n: int):
    # The oracle side grows fast with n; five vertices keep it cheap.
    for x in chain(_trees(min(max_n, 5)), cycles(min(max_n, 5))):
        for i in range(1, x.n + 1):
            yield x.graph, {"i": i}


def _veronese_instances(max_n: int):
    for t in _trees(max_n):
        for i in range(1, t.n - 1):
            yield t, {"i": i}


def _compositions(total: int, prefix: tuple[int, ...] = ()):
    if total == 0:
        yield prefix
    for first in range(1, total + 1):
        yield from _compositions(total - first, prefix + (first,))


def _caterpillar_instances(max_n: int):
    for total in range(1, min(max_n, 5) + 1):
        for profile in _compositions(total):
            for d in range(1, total + 1):
                yield VeroneseSpec(profile, d), {}


def _monotonicity_instances(max_n: int):
    # n = 2 yields the unit ideal (pd 0); the 1-or-2 dichotomy starts at n = 3.
    for x in chain(_trees(max_n), cycles(max_n)):
        if x.n >= 3:
            yield x.graph, {}


class Suite(NamedTuple):
    """A registered check and the (subject, params) instances it runs on.

    ``check(subject, **params)`` returns the verify record of one instance;
    ``instances(max_n)`` lists them up to max_n vertices.  Suites that need
    the Betti oracle can be skipped with ``verify --no-oracle``.
    """

    check: Callable[..., dict]
    instances: Callable[[int], Iterator[tuple[object, dict]]]
    needs_oracle: bool = False


SUITES = {
    "set-maps": Suite(check_set_maps, _set_map_instances),
    "hs-formulas": Suite(check_hs_formulas, _hs_formula_instances),
    "maximal-identity": Suite(
        check_maximal_identity, _maximal_identity_instances, needs_oracle=True
    ),
    "veronese": Suite(check_veronese, _veronese_instances),
    "caterpillar": Suite(check_caterpillar, _caterpillar_instances),
    "monotonicity": Suite(check_monotonicity, _monotonicity_instances),
}
