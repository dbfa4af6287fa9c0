from datetime import timedelta
from itertools import chain, combinations, combinations_with_replacement, product
from math import comb, prod
from operator import mul
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from homshift.graphs import (
    lex_labeled_copy,
    relabel_graph,
    tree_distance_labeling,
    validate_lex_labeling,
)
from homshift.monomials import Monomial


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def complete(n):
    return Graph(n, list(combinations(range(1, n + 1), 2)))


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
            gens = power_generators(g, s)
            assert len(gens) == comb(len(g.edges) + s - 1, s)
            assert len({tuple(row) for row in gens.exps.tolist()}) == len(gens)


def test_power_generators_single_edge_per_factor_at_s1():
    g = CycleLabeling(5).graph
    gens = power_generators(g, 1)
    assert len(gens) == len(g.edges)
    assert all(len(edges) == 1 for edges in gens.edge_multisets())


def _edge_product(n, edges):
    return prod((Monomial.from_support(n, e) for e in edges), start=Monomial.uniform(n, 0))


def _expressions(g, s):
    """Every multiset of s edges of g, grouped by the monomial alpha^s / product."""
    groups = {}
    for edges in combinations_with_replacement(g.edges, s):
        mono = Monomial.uniform(g.n, s) / _edge_product(g.n, edges)
        groups.setdefault(mono, []).append(edges)
    return groups


def _multiset_of(g, s, u):
    """The kept edge multiset of the generator u of the s-th power, read from the arrays."""
    gens = power_generators(g, s)
    return next(edges for row, edges in zip(gens.exps.tolist(), gens.edge_multisets()) if Monomial(row) == u)


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
    assert _multiset_of(g, 2, mono) == ((1, 2), (3, 4))


def test_power_generators_match_generic_ideal_power():
    for g in [path(4), CycleLabeling(4).graph, CycleLabeling(5).graph]:
        I = comp_edge_ideal(g)
        for s in range(1, 4):
            assert comp_power_ideal(g, s) == I.power(s)


def test_factorization_invariants():
    g = CycleLabeling(4).graph
    for s in (1, 2, 3):
        gens = power_generators(g, s)
        for row, edges in zip(gens.exps.tolist(), gens.edge_multisets()):
            u = Monomial(row)
            assert u.degree() == (g.n - 2) * s
            assert len(edges) == s and list(edges) == sorted(edges)
            assert all(e in g.edges for e in edges)
            assert u == Monomial.uniform(g.n, s) / _edge_product(g.n, edges)


@st.composite
def named_connected_graphs(draw):
    """A random connected graph on 2 to 7 vertices under random vertex names."""
    n = draw(st.integers(2, 7))
    names = draw(st.permutations(range(1, n + 1)))
    # Each vertex after the first hangs off an earlier one; then some chords.
    edges = {(names[k], names[draw(st.integers(0, k - 1))]) for k in range(1, n)}
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return Graph(n, edges)


def _first_multisets_in_lex_order(g, s):
    """Power generators by their definition, with exponent tuples as keys.

    The edges are ordered by their images under perm, the first multiset
    reached per monomial is kept, and the monomials are sorted by
    descending lex order of their images under perm.
    """
    _, perm = lex_labeled_copy(g)
    edges = sorted(g.edges, key=lambda e: sorted(perm[v - 1] for v in e))
    first = {}
    for multiset in combinations_with_replacement(edges, s):
        exps = [s] * g.n
        for a, b in multiset:
            exps[a - 1] -= 1
            exps[b - 1] -= 1
        first.setdefault(tuple(exps), multiset)

    def image(exps):
        out = [0] * g.n
        for v, e in enumerate(exps, start=1):
            out[perm[v - 1] - 1] = e
        return out

    return [(exps, tuple(sorted(first[exps]))) for exps in sorted(first, key=image, reverse=True)]


@settings(derandomize=True, max_examples=120, deadline=timedelta(seconds=5), database=None)
@given(named_connected_graphs(), st.integers(1, 3))
def test_power_generators_match_tuple_keyed_enumeration(g, s):
    gens = power_generators(g, s)
    rows = [tuple(row) for row in gens.exps.tolist()]
    assert list(zip(rows, gens.edge_multisets())) == _first_multisets_in_lex_order(g, s)


@settings(derandomize=True, max_examples=80, deadline=timedelta(seconds=5), database=None)
@given(named_connected_graphs(), st.integers(1, 3))
# The smallest catalog graph whose kept multisets change when the edges are walked by ascending weight.
@example(complete(5), 3)
def test_power_matrix_matches_factorizations(g, s):
    gens = power_generators(g, s)
    assert not gens.exps.flags.writeable
    rows = [tuple(row) for row in gens.exps.tolist()]
    multisets = gens.edge_multisets()
    # The arrays alone give the enumeration by definition, first multiset per monomial.
    assert list(zip(rows, multisets)) == _first_multisets_in_lex_order(g, s)
    for row, edges in zip(rows, multisets):
        assert row == tuple(s - sum(v in e for e in edges) for v in g.vertices())
    assert len(gens) == len(rows)


def test_power_keys_past_int64():
    # Keys of P45 at s = 2 reach 3^44 in both the enumeration and the colon sweep.
    g, s = path(45), 2
    assert 3**44 > 2**63
    gens = power_generators(g, s)
    exps = [tuple(row) for row in gens.exps.tolist()]
    # On a tree every edge multiset gives its own monomial.
    assert len(gens) == comb(len(g.edges) + s - 1, s)
    assert exps == sorted(set(exps), reverse=True)
    t, perm = tree_distance_labeling(g, g.n)
    assert t.graph == g and perm == tuple(g.vertices())
    sm = power_set_map(g, s)
    assert [u.exps for u in sm.gens] == exps
    for edges, su in zip(gens.edge_multisets(), sm.sets):
        assert su == set_tree(t, edges) == set_via_even_connected(g, edges)
    assert pd_linear_quotients(sm) == pd_formula(g, s) == 2


def test_lex_order_examples():
    # power_generators lists monomials in descending lex order; for these
    # suffix-connected labels the variable order is x1 > ... > xn.
    exps = power_generators(path(4), 1).exps.tolist()
    assert exps == [[1, 1, 0, 0], [1, 0, 0, 1], [0, 0, 1, 1]]
    c4 = CycleLabeling(4).graph
    exps = power_generators(c4, 1).exps.tolist()
    assert exps == [[1, 1, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]]
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


def test_set_map_keeps_its_exponent_matrix(monkeypatch):
    g = CycleLabeling(5).graph
    sm = power_set_map(g, 2)
    # The matrix the generators were read from, and set(u) as a bool matrix of the same shape.
    assert sm.exps is power_generators(g, 2).exps
    assert sm.members.dtype == bool and sm.members.shape == sm.exps.shape
    colon = set_map_colon(Monomial(row) for row in sm.exps.tolist())
    for arrays in (sm, colon):
        for array in (arrays.exps, arrays.members):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0
    assert colon.exps.dtype == sm.exps.dtype and colon.exps.tolist() == sm.exps.tolist()
    assert colon.members.tolist() == sm.members.tolist()
    # gens and sets are built anew on each read, never kept, and are not constructor arguments.
    built = []
    real_wrap_all, real_bit_rows = Monomial._wrap_all.__func__, homshift.edge_ideals._bit_rows

    def counting_wrap_all(cls, rows):
        built.append(("gens", len(rows)))
        return real_wrap_all(cls, rows)

    def counting_bit_rows(bits):
        built.append(("sets", len(bits)))
        return real_bit_rows(bits)

    monkeypatch.setattr(Monomial, "_wrap_all", classmethod(counting_wrap_all))
    monkeypatch.setattr(homshift.edge_ideals, "_bit_rows", counting_bit_rows)
    bare = SetMap(sm.exps, sm.members)
    gens, sets = bare.gens, bare.sets
    assert built == [("gens", len(sm.exps)), ("sets", len(sm.exps))]
    again = bare.gens, bare.sets
    assert again == (gens, sets) and again[0] is not gens and again[1] is not sets
    assert built == [("gens", len(sm.exps)), ("sets", len(sm.exps))] * 2
    assert "gens" not in vars(bare) and "sets" not in vars(bare)
    assert [u.exps for u in gens] == [tuple(row) for row in sm.exps.tolist()]
    assert sets == tuple(frozenset((np.flatnonzero(row) + 1).tolist()) for row in sm.members)
    assert bare.n == 5 and list(zip(bare.gens, bare.sets)) == list(zip(gens, sets))
    # Equality and hashing are by identity.
    twin = SetMap(sm.exps, sm.members)
    assert bare == bare and bare != twin and len({bare, twin}) == 2
    assert hash(bare) == object.__hash__(bare)
    empty = set_map_colon([])
    assert empty.exps.shape == empty.members.shape == (0, 0)
    assert empty.gens == () and empty.sets == () and empty.n == 0


def test_set_map_refuses_members_of_another_shape_or_dtype():
    exps = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8)
    for members in (
        np.array([[False, True], [True, False]]),  # 2 x 2 for three variables
        np.array([[0, 5, 0], [1, 0, 0]]),  # ints, not bools
        [[False, True, False], [True, False, False]],  # not an array
    ):
        with pytest.raises(ValueError):
            SetMap(exps, members)
    assert SetMap(exps, np.zeros(exps.shape, dtype=bool)).n == 3


def test_set_map_refuses_exps_that_are_not_a_non_negative_integer_matrix():
    members = np.ones((1, 2), dtype=bool)
    for exps in (
        np.array([[-1, 2]]),  # a negative entry, once read as 255
        [[1, 0]],  # not an array
        np.array([[True, False]]),  # bools, not integers
        np.array([[1.0, 0.0]]),  # floats
        np.array([1, 0]),  # one row, not a matrix
    ):
        with pytest.raises(ValueError):
            SetMap(exps, members.reshape(np.shape(exps)))
    assert SetMap(np.array([[1, 2]]), members).n == 2


def test_comp_power_ideal_rows_in_own_labels():
    # A scrambled 8-cycle: power_generators lists its rows in the lex order of other labels.
    g = Graph(8, [(1, 2), (1, 8), (2, 3), (3, 4), (4, 5), (5, 7), (6, 7), (6, 8)])
    assert not validate_lex_labeling(g)
    for s in (1, 2, 3):
        power = comp_power_ideal(g, s)
        expected = {
            tuple(s - sum(v in e for e in edges) for v in g.vertices())
            for edges in combinations_with_replacement(g.edges, s)
        }
        assert [tuple(row) for row in power.exps.tolist()] == sorted(expected, reverse=True)
        assert power == ideal(8, *expected)


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


@st.composite
def scaled_and_padded(draw):
    """An ``equal_degree_orders`` case times (x1*...*xn)^c, embedded among variables of exponent c.

    Neither step changes a colon.  The n original variables land at sorted
    random positions among up to 70; c = 40 packs several columns per key
    block, c = 2**40 leaves one key per column, and past 63 variables the
    set bitmasks are read from packed bytes.
    """
    n, gens = draw(equal_degree_orders())
    c = draw(st.sampled_from([40, 2**40]))
    # Half the cases reach past 63 variables.
    width = draw(st.one_of(st.integers(max(n, 1), 63), st.integers(64, 70)))
    at = sorted(draw(st.permutations(range(width)))[:n])
    wide = []
    for g in gens:
        row = [c] * width
        for k, e in zip(at, g.exps):
            row[k] += e
        wide.append(Monomial(row))
    return gens, wide, at


@settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=2), database=None)
@given(scaled_and_padded())
def test_set_map_colon_independent_of_key_blocks(case):
    gens, wide, at = case
    try:
        sets = set_map_colon(gens).sets
    except NotLinearQuotientsError as err:
        with pytest.raises(NotLinearQuotientsError) as wide_err:
            set_map_colon(wide)
        assert wide_err.value.index == err.index
        return
    assert set_map_colon(wide).sets == tuple(frozenset(at[v - 1] + 1 for v in su) for su in sets)


def _dict_lookup_sets(gens):
    """set(u) by a hash lookup: each earlier drop u_t / x_j is stored with bit j, keyed as an integer.

    With top the largest exponent, key(u) = sum of u_k * (top+1)^k and
    key(u / x_k) = key(u) - (top+1)^k, so u / x_k collects the bits of
    every earlier u_t = (u / x_k) * x_j.  Equal sets share one frozenset.
    """
    n = gens[0].n
    weight = [(max(max(g.exps) for g in gens) + 1) ** k for k in range(n)]
    below, shared, sets = {}, {}, []
    for g in gens:
        u = g.exps
        key = sum(map(mul, u, weight))
        drops = [(key - weight[k], 1 << k) for k in range(n) if u[k]]
        mask = 0
        for w, _ in drops:
            mask |= below.get(w, 0)
        if mask not in shared:
            shared[mask] = frozenset(j + 1 for j in range(n) if mask >> j & 1)
        sets.append(shared[mask])
        for w, bit in drops:
            below[w] = below.get(w, 0) | bit
    return tuple(sets)


def test_set_map_colon_matches_the_dict_lookup():
    rng = Random(3)
    cases = []
    for g in (CycleLabeling(12).graph, path(12), complete(7)):
        perm = list(g.vertices())
        rng.shuffle(perm)
        cases.append((relabel_graph(g, tuple(perm)), 3))
    cases += [(g, 2) for g in connected_graphs(7)[::120]]
    for g, s in cases:
        sm = power_set_map(g, s)
        assert sm.sets == _dict_lookup_sets(sm.gens)
        # Each distinct set(u) is one object.
        assert len(set(map(id, sm.sets))) == len(set(sm.sets))


def test_set_map_matches_generic_colon():
    # The generic colon in monomials shares no code with the set-map lookup.
    for n in range(2, 6):
        for g in connected_graphs(n):
            for s in (1, 2):
                sm = power_set_map(g, s)
                for i, (u, su) in enumerate(zip(sm.gens, sm.sets)):
                    variables = [Monomial.variable(n, v) for v in su]
                    colon = MonomialIdeal(n, sm.gens[:i]).colon(u)
                    assert colon == MonomialIdeal(n, variables)


def test_set_via_even_connected_examples():
    c4 = CycleLabeling(4).graph
    edges = _multiset_of(c4, 1, Monomial((0, 0, 1, 1)))
    assert set_via_even_connected(c4, edges) == {1, 2}
    p4 = path(4)
    edges = _multiset_of(p4, 1, Monomial((1, 1, 0, 0)))
    assert set_via_even_connected(p4, edges) == frozenset()
    edges = _multiset_of(p4, 1, Monomial((1, 0, 0, 1)))
    assert set_via_even_connected(p4, edges) == {2}


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


def test_set_routes_agree_on_either_spelling_of_an_edge():
    # set_cycle once compared (b, a) with the chain edges, always written (a, b) with a < b.
    c7 = CycleLabeling(7)
    t, _ = tree_distance_labeling(path(4), 4)
    for edges in (((1, 2), (3, 4)), ((2, 1), (4, 3)), ((2, 1), (3, 4)), ((7, 1), (2, 3))):
        forward = tuple(tuple(sorted(e)) for e in edges)
        assert set_cycle(c7, edges) == set_cycle(c7, forward) == set_via_even_connected(c7.graph, edges)
    assert set_cycle(c7, ((2, 1), (4, 3))) == {1, 2, 3, 4}
    for edges in (((2, 1), (3, 2)), ((4, 3), (1, 2))):
        forward = tuple(tuple(sorted(e)) for e in edges)
        assert set_tree(t, edges) == set_tree(t, forward) == set_via_even_connected(t.graph, edges)


def test_closed_set_maps_refuse_edges_outside_the_graph():
    # The same refusal as set_via_even_connected gives for a non-edge.
    with pytest.raises(ValueError, match="not an edge"):
        set_cycle(CycleLabeling(5), ((1, 3),))
    t, _ = tree_distance_labeling(path(4), 4)
    with pytest.raises(ValueError, match="not an edge"):
        set_tree(t, ((1, 4),))
    with pytest.raises(ValueError, match="not an edge"):
        set_via_even_connected(CycleLabeling(5).graph, ((1, 3),))


def _set_cycle_by_definition(c, edges):
    """set(u) from the chains written out: each chain's largest admissible length l.

    The chain e1, e3, ..., e_{2l-1} has l edges, l up to m - 1 (n = 2m) or m
    (n = 2m + 1), and gives [2l]; the chain e0, e2, ..., e_{2l} has l + 1
    edges, l from 1 up to m - 2 or m - 1, and gives [2l + 1].
    """
    n, m = c.n, c.n // 2
    support = set(edges)
    caps = (m - 1, m - 2) if n % 2 == 0 else (m, m - 1)
    odd = max(
        (l for l in range(1, caps[0] + 1) if {c.edge(2 * t + 1) for t in range(l)} <= support),
        default=0,
    )
    even = max(
        (l for l in range(1, caps[1] + 1) if {c.edge(2 * t) for t in range(l + 1)} <= support),
        default=0,
    )
    result = set(range(1, 2 * odd + 1)) | (set(range(1, 2 * even + 2)) if even else set())
    result |= {min(e) for e in support} - {n - 1}
    return frozenset(result)


def test_set_cycle_matches_chain_definition():
    # Every edge subset of C_n, n = 3..11, and every multiset of s edges for
    # s <= 4 (n <= 9) or s <= 3 (n = 10, 11): 6,710 inputs.
    inputs = 0
    for n in range(3, 12):
        c = CycleLabeling(n)
        subsets = (sub for r in range(n + 1) for sub in combinations(c.graph.edges, r))
        multisets = (
            ms
            for s in range(1, (4 if n <= 9 else 3) + 1)
            for ms in combinations_with_replacement(c.graph.edges, s)
        )
        for edges in chain(subsets, multisets):
            assert set_cycle(c, edges) == _set_cycle_by_definition(c, edges), (n, edges)
            inputs += 1
    assert inputs == 6710


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
                for edges, su in zip(power_generators(t.graph, s).edge_multisets(), sm.sets):
                    assert su == set_tree(t, edges) == set_via_even_connected(t.graph, edges)
    for n in range(3, 6):
        c = CycleLabeling(n)
        for s in (1, 2):
            sm = power_set_map(c.graph, s)
            for edges, su in zip(power_generators(c.graph, s).edge_multisets(), sm.sets):
                assert su == set_cycle(c, edges) == set_via_even_connected(c.graph, edges)


def test_even_connected_route_on_general_connected_graphs():
    # not just trees and cycles: the walk criterion reproduces every colon set
    for n in range(3, 6):
        for g in connected_graphs(n):
            for s in (1, 2):
                sm = power_set_map(g, s)
                for edges, su in zip(power_generators(g, s).edge_multisets(), sm.sets):
                    assert set_via_even_connected(g, edges) == su


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
