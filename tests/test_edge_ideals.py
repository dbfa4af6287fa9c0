from datetime import timedelta
from itertools import combinations_with_replacement, product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homshift.edge_ideals
from homshift import (
    CycleLabeling,
    Graph,
    MonomialIdeal,
    NotLinearQuotientsError,
    PreconditionError,
    SetMap,
    comp_edge_ideal,
    comp_power_ideal,
    hs_linear_quotients,
    pd_formula,
    pd_linear_quotients,
    pd_of_power,
    power_generators,
    power_set_map,
    set_cycle,
    set_map_colon,
    set_tree,
    set_via_even_connected,
)
from homshift.corpus import connected_graphs, distance_labeled_trees
from homshift.graphs import tree_distance_labeling
from homshift.monomials import Monomial


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def ideal(n, *rows):
    return MonomialIdeal.from_exponents(n, rows)


def test_comp_edge_ideal_examples():
    assert comp_edge_ideal(path(3)) == ideal(3, (1, 0, 0), (0, 0, 1))
    assert comp_edge_ideal(path(4)) == ideal(4, (1, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 1))
    c4 = CycleLabeling(4).graph
    assert comp_edge_ideal(c4) == ideal(
        4, (1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)
    )
    assert all(g.degree() == 2 for g in comp_edge_ideal(c4).gens)
    with pytest.raises(PreconditionError):
        comp_edge_ideal(Graph(3, []))
    with pytest.raises(PreconditionError, match="at least one edge"):
        power_generators(Graph(1, []), 1)


def test_power_generators_tree_counts():
    for n in range(2, 7):
        g = path(n)
        for s in range(1, 4):
            facts = power_generators(g, s)
            assert len(facts) == comb(len(g.edges) + s - 1, s)
            assert len({f.monomial for f in facts}) == len(facts)


def test_power_generators_single_edge_per_factor_at_s1():
    g = CycleLabeling(5).graph
    facts = power_generators(g, 1)
    assert len(facts) == len(g.edges)
    assert all(len(f.edges) == 1 for f in facts)


def _edge_product(n, edges):
    return prod((Monomial.from_support(n, e) for e in edges), start=Monomial.uniform(n, 0))


def _expressions(g, s):
    """Every multiset of s edges of g, grouped by the monomial alpha^s / product."""
    groups = {}
    for edges in combinations_with_replacement(g.edges, s):
        mono = Monomial.uniform(g.n, s) / _edge_product(g.n, edges)
        groups.setdefault(mono, []).append(edges)
    return groups


def test_power_generators_even_cycle_collision():
    g = CycleLabeling(4).graph
    expressions = _expressions(g, 2)
    assert sum(len(v) for v in expressions.values()) == 10
    assert len(expressions) == 9
    collisions = {m: v for m, v in expressions.items() if len(v) > 1}
    assert len(collisions) == 1
    (mono, multisets), = collisions.items()
    assert mono == Monomial((1, 1, 1, 1))
    assert set(multisets) == {((1, 2), (3, 4)), ((1, 4), (2, 3))}
    # the canonical representative is the lexicographically smallest multiset
    facts = power_generators(g, 2)
    kept = next(f for f in facts if f.monomial == mono)
    assert kept.edges == ((1, 2), (3, 4))


def test_power_generators_match_generic_ideal_power():
    for g in [path(4), CycleLabeling(4).graph, CycleLabeling(5).graph]:
        I = comp_edge_ideal(g)
        for s in range(1, 4):
            assert comp_power_ideal(g, s) == I.power(s)


def test_factorization_invariants():
    g = CycleLabeling(4).graph
    for s in (1, 2, 3):
        for f in power_generators(g, s):
            assert f.monomial.degree() == (g.n - 2) * s
            assert len(f.edges) == s and list(f.edges) == sorted(f.edges)
            assert all(e in g.edges for e in f.edges)
            assert f.monomial == Monomial.uniform(g.n, s) / _edge_product(g.n, f.edges)


def test_lex_order_examples():
    # power_generators lists monomials in descending lex order; for these
    # suffix-connected labels the variable order is x1 > ... > xn.
    exps = [f.monomial.exps for f in power_generators(path(4), 1)]
    assert exps == [(1, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 1)]
    c4 = CycleLabeling(4).graph
    exps = [f.monomial.exps for f in power_generators(c4, 1)]
    assert exps == [(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)]
    assert len(power_generators(Graph(2, [(1, 2)]), 1)) == 1


def test_set_map_colon_examples():
    sm = set_map_colon(comp_edge_ideal(path(4)).gens)
    assert [sorted(s) for s in sm.sets] == [[], [2], [1]]
    sm = set_map_colon(comp_edge_ideal(CycleLabeling(4).graph).gens)
    assert [sorted(s) for s in sm.sets] == [[], [2], [1], [1, 2]]
    sm = set_map_colon([Monomial((1, 1, 0))])
    assert sm.sets == (frozenset(),)


def test_set_map_colon_rejects_non_linear_quotients():
    # (x1x2, x3x4) in that order: the colon is generated by a degree-2 monomial.
    with pytest.raises(NotLinearQuotientsError) as err:
        set_map_colon([Monomial((1, 1, 0, 0)), Monomial((0, 0, 1, 1))])
    assert err.value.index == 1
    with pytest.raises(ValueError):
        set_map_colon([Monomial((1, 0)), Monomial((1, 0))])


def test_set_map_colon_check_rejects_nonempty_set():
    # set(x1^2) = {2} is found, but the colon (x3^2, x2x3, x1x2) : x1^2 = (x2, x3^2).
    order = [Monomial((0, 0, 2)), Monomial((0, 1, 1)), Monomial((1, 1, 0)), Monomial((2, 0, 0))]
    with pytest.raises(NotLinearQuotientsError) as err:
        set_map_colon(order)
    assert err.value.index == 3
    assert set_map_colon(order[:3]).sets == (frozenset(), {3}, {3})


def test_set_map_colon_rejects_mixed_degrees():
    with pytest.raises(PreconditionError):
        set_map_colon([Monomial((1, 1, 0)), Monomial((0, 0, 1))])


def test_set_map_colon_rejects_mixed_variable_counts(monkeypatch):
    def no_array(gens, n):
        raise AssertionError("exponent matrix built for generators in different rings")

    monkeypatch.setattr(homshift.edge_ideals, "_exponent_matrix", no_array)
    # Both have degree 2, so only the variable counts tell them apart.
    with pytest.raises(ValueError, match="ambient variable counts differ"):
        set_map_colon([Monomial((1, 1)), Monomial((2, 0, 0))])


def test_set_map_keeps_its_exponent_matrix():
    sm = power_set_map(CycleLabeling(5).graph, 2)
    assert sm.exps.tolist() == [list(u.exps) for u in sm.gens]
    assert not sm.exps.flags.writeable
    assert sm.exps is sm.exps
    # Not a field: no part of eq, hash or repr, and not a constructor argument.
    bare = SetMap(sm.gens, sm.sets)
    assert bare == sm and hash(bare) == hash(sm) and repr(bare) == repr(sm)
    assert "exps" not in vars(bare)
    assert SetMap((), ()).exps.shape == (0, 0)
    # Construction builds no matrix: only HS_i refuses an exponent past int64.
    huge = SetMap((Monomial((2**63, 0)),), (frozenset({2}),))
    with pytest.raises(OverflowError):
        hs_linear_quotients(huge, 1)


@st.composite
def equal_degree_orders(draw):
    """Distinct monomials of one degree in n <= 5 variables, in a random order."""
    n = draw(st.integers(0, 5))
    d = draw(st.integers(1, 3)) if n else 0
    monomials = [e for e in product(range(d + 1), repeat=n) if sum(e) == d]
    rows = draw(st.lists(st.sampled_from(monomials), unique=True, min_size=1, max_size=8))
    if draw(st.booleans()):
        rows.sort(reverse=True)  # descending lex has linear quotients more often
    return n, [Monomial(r) for r in rows]


@settings(derandomize=True, max_examples=250, deadline=timedelta(seconds=2), database=None)
@given(equal_degree_orders())
def test_set_map_colon_matches_brute_force_colons(case):
    # Each colon (u_1, ..., u_{i-1}) : u_i comes from MonomialIdeal.colon, not from the bitsets.
    n, gens = case
    expected = []
    for i, u in enumerate(gens):
        colon = MonomialIdeal(n, gens[:i]).colon(u)
        if any(g.degree() != 1 for g in colon.gens):
            with pytest.raises(NotLinearQuotientsError) as err:
                set_map_colon(gens)
            assert err.value.index == i
            return
        expected.append(frozenset(v for g in colon.gens for v in g.support()))
    sm = set_map_colon(gens)
    assert sm.gens == tuple(gens) and sm.sets == tuple(expected)


def test_set_map_matches_generic_colon():
    # The generic colon in monomials shares no code with the set-map lookup.
    for n in range(2, 6):
        for g in connected_graphs(n):
            for s in (1, 2):
                sm = power_set_map(g, s)
                for i, (u, su) in enumerate(sm.items()):
                    variables = [Monomial.variable(n, v) for v in su]
                    colon = MonomialIdeal(n, sm.gens[:i]).colon(u)
                    assert colon == MonomialIdeal(n, variables)


def test_set_via_even_connected_examples():
    c4 = CycleLabeling(4).graph
    f = next(f for f in power_generators(c4, 1) if f.monomial == Monomial((0, 0, 1, 1)))
    assert set_via_even_connected(c4, f.edges) == {1, 2}
    p4 = path(4)
    f = next(f for f in power_generators(p4, 1) if f.monomial == Monomial((1, 1, 0, 0)))
    assert set_via_even_connected(p4, f.edges) == frozenset()
    f = next(f for f in power_generators(p4, 1) if f.monomial == Monomial((1, 0, 0, 1)))
    assert set_via_even_connected(p4, f.edges) == {2}


def test_set_tree_examples():
    t, _ = tree_distance_labeling(path(4), 4)
    assert set_tree(t, ((1, 2), (2, 3))) == {1, 2}
    assert set_tree(t, ((3, 4), (3, 4))) == frozenset()
    assert set_tree(t, ((1, 2), (1, 2))) == {1}


def test_set_cycle_examples():
    c4 = CycleLabeling(4)
    assert set_cycle(c4, ((1, 2),)) == {1, 2}
    assert set_cycle(c4, ((1, 4),)) == {1}
    c5 = CycleLabeling(5)
    assert set_cycle(c5, ((1, 2), (3, 4))) == {1, 2, 3, 4}


def test_set_cycle_independent_of_expression():
    for n, s in [(4, 2), (4, 3), (6, 3)]:
        c = CycleLabeling(n)
        for multisets in _expressions(c.graph, s).values():
            assert len({set_cycle(c, edges) for edges in multisets}) == 1


def test_set_routes_agree_on_small_corpus():
    for n in range(2, 6):
        for t in distance_labeled_trees(n):
            for s in (1, 2):
                sm = power_set_map(t.graph, s)
                for f, su in zip(power_generators(t.graph, s), sm.sets):
                    assert su == set_tree(t, f.edges) == set_via_even_connected(t.graph, f.edges)
    for n in range(3, 6):
        c = CycleLabeling(n)
        for s in (1, 2):
            sm = power_set_map(c.graph, s)
            for f, su in zip(power_generators(c.graph, s), sm.sets):
                assert su == set_cycle(c, f.edges) == set_via_even_connected(c.graph, f.edges)


def test_even_connected_route_on_general_connected_graphs():
    # not just trees and cycles: the walk criterion reproduces every colon set
    for n in range(3, 6):
        for g in connected_graphs(n):
            for s in (1, 2):
                sm = power_set_map(g, s)
                for f, su in zip(power_generators(g, s), sm.sets):
                    assert set_via_even_connected(g, f.edges) == su


def test_pd_linear_quotients_examples():
    assert pd_linear_quotients(set_map_colon(comp_edge_ideal(path(4)).gens)) == 1
    assert pd_linear_quotients(set_map_colon(comp_edge_ideal(CycleLabeling(4).graph).gens)) == 2
    assert pd_linear_quotients(set_map_colon(comp_edge_ideal(path(3)).gens)) == 1


def test_pd_formula_examples():
    assert pd_formula(path(6), 3) == 3
    assert pd_formula(CycleLabeling(6).graph, 5) == 4
    assert pd_formula(CycleLabeling(5).graph, 2) == 4
    with pytest.raises(PreconditionError):
        pd_formula(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]), 1)
    with pytest.raises(PreconditionError):
        pd_formula(path(4), 0)


def test_pd_subgraph_monotone():
    c4 = CycleLabeling(4).graph
    p4 = path(4)
    for s in (1, 2, 3):
        assert pd_of_power(p4, s) <= pd_of_power(c4, s)
    k4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    for s in (1, 2):
        assert pd_of_power(c4, s) <= pd_of_power(k4, s)


def test_pd_first_power_dichotomy():
    for n in range(3, 6):
        for g in connected_graphs(n):
            pd1 = pd_of_power(g, 1)
            assert pd1 in (1, 2)
            assert (pd1 == 1) == (len(g.edges) == g.n - 1)
