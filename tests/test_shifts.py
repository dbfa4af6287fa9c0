import gc
import tracemalloc
from datetime import timedelta
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homshift import (
    CycleLabeling,
    Graph,
    Monomial,
    MonomialIdeal,
    PreconditionError,
    VeroneseSpec,
    caterpillar_from_profile,
    caterpillar_realization,
    check_hs_maximal_identity,
    comp_edge_ideal,
    comp_power_ideal,
    generation_degree_profile,
    hs1_formula,
    hs1_power_identity_check,
    hs1_via_lcm,
    hs_closed_form,
    hs_cycle_formula,
    hs_cycle_top,
    hs_linear_quotients,
    hs_oracle,
    hs_power,
    hs_subgraph_containment_check,
    hs_tree_formula,
    j_ideal,
    k_ideal,
    maximal_ideal,
    pd_formula,
    pd_of_power,
    power_generators,
    power_set_map,
    rename_variables,
    spanning_paths_of_cycle,
    squarefree_power_of_maximal,
    tree_distance_labeling,
    veronese_structure_check,
    veronese_type,
)
from homshift.corpus import connected_graphs, distance_labeled_trees
from homshift.graphs import relabel_graph, validate_lex_labeling


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def ideal(n, *rows):
    return MonomialIdeal.from_exponents(n, rows)


def read_back(ideal, perm):
    """Generator exponents of an ideal on vertices renamed v -> perm[v-1], in the old names."""
    return sorted(tuple(u.exps[p - 1] for p in perm) for u in ideal.gens)


def test_hs_linear_quotients_examples():
    sm = power_set_map(path(4), 1)
    assert hs_linear_quotients(sm, 0) == comp_edge_ideal(path(4))
    assert hs_linear_quotients(sm, 1) == ideal(4, (1, 1, 0, 1), (1, 0, 1, 1))
    sm4 = power_set_map(CycleLabeling(4).graph, 1)
    assert hs_linear_quotients(sm4, 2) == ideal(4, (1, 1, 1, 1))
    assert hs_linear_quotients(sm4, 3).is_zero()


def test_hs1_via_lcm_examples():
    assert hs1_via_lcm(ideal(3, (1, 0, 0), (0, 0, 1))) == ideal(3, (1, 0, 1))
    I = comp_edge_ideal(path(4))
    assert hs1_via_lcm(I) == ideal(4, (1, 1, 0, 1), (1, 0, 1, 1))
    assert hs1_via_lcm(ideal(2, (1, 1))).is_zero()


def test_hs1_formula_examples():
    c4 = CycleLabeling(4).graph
    assert hs1_formula(c4) == ideal(
        4, (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)
    )
    assert hs1_formula(path(4)) == ideal(4, (1, 1, 0, 1), (1, 0, 1, 1))
    assert hs1_formula(path(3)) == ideal(3, (1, 0, 1))


def test_hs1_power_identity_examples():
    assert hs1_power_identity_check(path(4), 1)
    assert hs1_power_identity_check(CycleLabeling(4).graph, 1)
    assert hs1_power_identity_check(CycleLabeling(5).graph, 0)


def test_hs_tree_formula_examples():
    t = path(4)
    assert hs_tree_formula(t, 1, 1) == ideal(4, (1, 1, 0, 1), (1, 0, 1, 1))
    assert hs_tree_formula(t, 2, 2) == ideal(4, (2, 1, 1, 2))
    expanded = hs_tree_formula(t, 1, 2)
    sm = power_set_map(t, 2)
    assert expanded == hs_linear_quotients(sm, 1)
    with pytest.raises(PreconditionError):
        hs_tree_formula(t, 2, 1)
    with pytest.raises(PreconditionError):
        hs_tree_formula(t, 0, 1)
    with pytest.raises(PreconditionError):
        hs_tree_formula(CycleLabeling(4).graph, 1, 1)


def test_hs_tree_formula_label_independent():
    # Renaming the vertices of a tree and then evaluating the formula must give
    # the formula's output on the tree, renamed.  Under these renamings the
    # largest leaf is often another leaf of the tree, so the formula is rooted
    # elsewhere.
    perms = {5: (5, 3, 1, 2, 4), 6: (2, 6, 4, 1, 5, 3)}
    rerooted = 0
    for n, perm in perms.items():
        for t in distance_labeled_trees(n):
            moved = relabel_graph(t.graph, perm)
            rerooted += max(v for v in moved.vertices() if moved.degree(v) == 1) != perm[n - 1]
            for i, s in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
                want = sorted(u.exps for u in hs_tree_formula(t.graph, i, s).gens)
                assert read_back(hs_tree_formula(moved, i, s), perm) == want
    assert rerooted == 17  # of the 19 trees


def test_j_and_k_ideal_examples():
    t = path(4)
    assert j_ideal(t, 1) == ideal(4, (1, 0, 1, 1), (1, 1, 0, 1))
    assert k_ideal(t, 1) == ideal(4, (0, 1, 0, 0), (0, 0, 1, 0))
    # Rooted at leaf 4, whose neighbor is 3: F runs over {1, 2}, both children of 3.
    star = Graph(4, [(3, 1), (3, 2), (3, 4)])
    assert k_ideal(star, 1) == ideal(4, (0, 0, 1, 0))
    assert j_ideal(star, 1) == ideal(4, (1, 1, 0, 1))
    assert j_ideal(t, 0) == MonomialIdeal.unit(4)
    assert k_ideal(t, 0) == MonomialIdeal.unit(4)
    with pytest.raises(PreconditionError):
        j_ideal(t, 3)
    with pytest.raises(PreconditionError):
        j_ideal(t, -1)
    with pytest.raises(PreconditionError):
        k_ideal(CycleLabeling(4).graph, 1)


def test_hs_cycle_formula_examples():
    c4 = CycleLabeling(4).graph
    assert hs_cycle_formula(c4, 1, 1) == hs1_formula(c4)
    assert hs_cycle_formula(c4, 2, 1) == ideal(4, (1, 1, 1, 1))
    c5 = CycleLabeling(5).graph
    assert hs_cycle_formula(c5, 4, 2) == ideal(5, (2, 2, 2, 2, 2))
    with pytest.raises(PreconditionError):
        hs_cycle_formula(c4, 4, 2)
    with pytest.raises(PreconditionError):
        hs_cycle_formula(c5, 4, 1)
    with pytest.raises(PreconditionError):
        hs_cycle_formula(path(4), 1, 1)


@pytest.mark.parametrize("n", range(3, 10))
def test_hs_cycle_formula_matches_definition(n):
    # The sum over k of I^{s-i+k} * (alpha^{i-k} / x_F : |F| = i - 2k), with ideal * and +.
    c = CycleLabeling(n).graph
    for i in range(1, n):
        for s in range(i // 2, i // 2 + 4):
            total = MonomialIdeal.zero(n)
            for k in range(max(i - (n + 1) // 2 + 1, 0), i // 2 + 1):
                alpha = Monomial.uniform(n, i - k)
                block = MonomialIdeal(
                    n, [alpha / Monomial.from_support(n, F) for F in combinations(c.vertices(), i - 2 * k)]
                )
                total = total + comp_power_ideal(c, s - i + k) * block
            assert hs_cycle_formula(c, i, s) == total, (n, i, s)


def test_hs_cycle_top_examples():
    c5 = CycleLabeling(5).graph
    assert hs_cycle_top(c5, 2) == ideal(5, (2, 2, 2, 2, 2))
    c4 = CycleLabeling(4).graph
    assert hs_cycle_top(c4, 1) == ideal(4, (1, 1, 1, 1))
    c6 = CycleLabeling(6).graph
    want = comp_power_ideal(c6, 1).scaled(Monomial.uniform(6, 2))
    assert hs_cycle_top(c6, 3) == want
    sm = power_set_map(c6, 3)
    assert want == hs_linear_quotients(sm, 4)
    with pytest.raises(PreconditionError):
        hs_cycle_top(c5, 1)
    with pytest.raises(PreconditionError):
        hs_cycle_top(path(5), 2)


def test_hs_power_vanishing_matches_pd():
    for g in [path(4), CycleLabeling(4).graph, CycleLabeling(5).graph]:
        for s in (1, 2):
            pd = pd_of_power(g, s)
            for i in range(0, pd + 3):
                assert hs_power(g, i, s).is_zero() == (i > pd)


def test_hs_generators_are_squarefree_multiples_of_generators():
    for g in [path(5), CycleLabeling(5).graph]:
        for s in (1, 2):
            I = comp_power_ideal(g, s)
            for i in range(1, pd_of_power(g, s) + 1):
                for h in hs_power(g, i, s).gens:
                    witnesses = [
                        u for u in I.gens
                        if u.divides(h)
                        and (h / u).degree() == i
                        and all(e <= 1 for e in (h / u).exps)
                    ]
                    assert witnesses


def test_maximal_identity_examples():
    I = ideal(3, (1, 0, 0), (0, 0, 1))
    res = check_hs_maximal_identity(I, 1)
    assert res.verdict
    assert res.hs_i == ideal(3, (1, 0, 1))
    assert res.target == maximal_ideal(3) * I
    # i = n: HS_n(I) = 0, so the identity pins HS_{n-1}(m I) = m^[n] I
    res = check_hs_maximal_identity(I, 3)
    assert res.verdict and res.hs_i.is_zero()
    assert res.hs_prev_of_max_multiple == squarefree_power_of_maximal(3, 3) * I
    c4 = CycleLabeling(4).graph
    res = check_hs_maximal_identity(comp_edge_ideal(c4), 2, set_map=power_set_map(c4, 1))
    assert res.verdict


def test_veronese_structure_examples():
    t, _ = tree_distance_labeling(path(4), 4)
    assert veronese_structure_check(t, 1)
    assert k_ideal(t.graph, 1) == veronese_type(VeroneseSpec((0, 1, 1, 0), 1))
    star5, _ = tree_distance_labeling(Graph(5, [(4, 1), (4, 2), (4, 3), (4, 5)]), 1)
    assert k_ideal(star5.graph, 1) == ideal(5, (0, 0, 0, 1, 0))
    assert veronese_structure_check(star5, 1)
    for n in range(3, 7):
        for t in distance_labeled_trees(n):
            assert veronese_structure_check(t, n - 2)


def test_caterpillar_realization_examples():
    t, content, ok = caterpillar_realization(VeroneseSpec((1, 1), 1))
    assert ok
    assert t.graph.edges == ((1, 2), (2, 3), (3, 4))
    assert content == Monomial((1, 0, 0, 1))
    t, content, ok = caterpillar_realization(VeroneseSpec((1,), 1))
    assert ok and content.is_one()
    _, _, ok = caterpillar_realization(VeroneseSpec((2, 1), 2))
    assert ok
    with pytest.raises(ValueError):
        caterpillar_realization(VeroneseSpec((1,), 2))


def test_caterpillar_realization_against_linear_quotients():
    # formula-based shift ideal equals the linear-quotient one on the built tree
    for caps, d in [((2, 1), 1), ((1, 2), 2), ((3,), 1)]:
        t = caterpillar_from_profile(caps)
        i = sum(caps) - d
        assert hs_tree_formula(t.graph, i, i) == hs_power(t.graph, i, i)


def test_rees_containment_examples():
    # The profile asserts I * HS_i(I^{s-1}) <= HS_i(I^s) at s = 1 and s = 2.
    assert generation_degree_profile(path(4), 1, 2) == [1]
    assert generation_degree_profile(CycleLabeling(5).graph, 2, 2) == [1, 2]
    assert generation_degree_profile(CycleLabeling(4).graph, 4, 2) == []  # vacuous


def test_generation_degree_profile_examples():
    assert generation_degree_profile(path(5), 2, 4) == [2]
    c6 = CycleLabeling(6).graph
    profile = generation_degree_profile(c6, 3, 4)
    assert profile and max(profile) <= 2  # bound i - q with q = 1
    assert generation_degree_profile(path(5), 0, 3) == []


def test_generation_degree_profiles_trees_exact():
    for n in range(3, 6):
        for t in distance_labeled_trees(n):
            for i in range(1, n - 1):
                assert generation_degree_profile(t.graph, i, i + 2) == [i]


def test_generation_degree_profiles_cycles_bounded():
    for n in range(3, 7):
        c = CycleLabeling(n).graph
        ceil_half = (n + 1) // 2
        for i in range(1, n):
            q = max(i - ceil_half + 1, 0)
            bound = i - q
            profile = generation_degree_profile(c, i, min(i + 1, 4))
            assert all(s <= bound for s in profile)


def test_subgraph_containment_examples():
    c4 = CycleLabeling(4).graph
    assert hs_subgraph_containment_check(c4, [1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)], 1, 1)
    c5 = CycleLabeling(5).graph
    assert hs_subgraph_containment_check(c5, [1, 2, 3, 4, 5], c5.edges, 2, 1)
    assert hs_subgraph_containment_check(path(4), [2, 3, 4], [(2, 3), (3, 4)], 1, 1)
    with pytest.raises(PreconditionError):
        hs_subgraph_containment_check(path(4), [1, 4], [(1, 4)], 1, 1)
    # An endpoint outside the host graph is refused in either order.
    for bad in [(9, 1), (1, 9)]:
        with pytest.raises(PreconditionError):
            hs_subgraph_containment_check(c5, [1, 2, 3], [bad, (1, 2)], 1, 1)


def test_hs_closed_form_dispatch():
    p4 = path(4)
    assert hs_closed_form(p4, 1, 1) == hs_power(p4, 1, 1)
    assert hs_closed_form(p4, 2, 1) is None  # outside the tree range i <= s
    assert hs_closed_form(p4, 0, 2) == comp_power_ideal(p4, 2)
    c5 = CycleLabeling(5).graph
    assert hs_closed_form(c5, 4, 1) is None  # s < floor(i/2)
    assert hs_closed_form(c5, 3, 1) == hs_power(c5, 3, 1)  # in range, both zero
    assert hs_closed_form(c5, 2, 2) == hs_power(c5, 2, 2)
    k4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert hs_closed_form(k4, 1, 1) is None


def test_closed_form_refuses_a_graph_without_edges():
    point = Graph(1, [])
    for i, s in ((0, 1), (1, 1), (2, 3)):
        for route in (hs_power, hs_closed_form):
            with pytest.raises(PreconditionError, match="at least one edge"):
                route(point, i, s)
    # At s = 0 neither route needs an edge: HS_0 is the unit ideal and HS_1 is zero.
    for i in (0, 1):
        assert hs_closed_form(point, i, 0) == hs_power(point, i, 0)


def test_hs_power_on_relabeled_graph_matches_oracle():
    weird = Graph(4, [(2, 1), (1, 3), (3, 4)])  # path 2-1-3-4, bad labeling
    I = comp_edge_ideal(weird)
    for i in range(0, 3):
        assert hs_power(weird, i, 1) == hs_oracle(I, i)


def test_hs_power_commutes_with_relabeling():
    # One fixed relabeling per n; 23 of the 30 images are not suffix-connected.
    perms = {2: (2, 1), 3: (2, 1, 3), 4: (3, 1, 4, 2), 5: (4, 2, 5, 1, 3)}
    unadmissible = 0
    for n, perm in perms.items():
        for g in connected_graphs(n):
            shuffled = relabel_graph(g, perm)
            unadmissible += not validate_lex_labeling(shuffled)
            for s in (1, 2):
                assert pd_of_power(shuffled, s) == pd_of_power(g, s)
                for i in range(n + 1):
                    assert hs_power(shuffled, i, s) == rename_variables(hs_power(g, i, s), perm, n)
    assert unadmissible == 23


def test_power_enumerated_once_in_input_labels():
    c6 = relabel_graph(CycleLabeling(6).graph, (3, 6, 1, 4, 2, 5))
    assert not validate_lex_labeling(c6)
    for cached in (power_generators, power_set_map, hs_power):
        cached.cache_clear()
    pd_of_power(c6, 2)
    hs_power(c6, 1, 2)
    comp_power_ideal(c6, 2)
    assert power_generators.cache_info().misses == 1


def test_power_route_builds_no_set_map_views(monkeypatch):
    built, real_wrap_all = [], Monomial._wrap_all.__func__

    def counting(cls, rows):
        built.append(len(rows))
        return real_wrap_all(cls, rows)

    monkeypatch.setattr(Monomial, "_wrap_all", classmethod(counting))
    c8 = relabel_graph(CycleLabeling(8).graph, (5, 2, 8, 3, 7, 1, 6, 4))
    for cached in (power_generators, power_set_map, hs_power):
        cached.cache_clear()
    pd = pd_of_power(c8, 3)
    assert pd == 6
    for i in range(pd + 1):
        hs_power(c8, i, 3)
    sm = power_set_map(c8, 3)
    assert "gens" not in vars(sm) and "sets" not in vars(sm)
    assert built == []
    # Reading the views is what builds them.
    assert len(sm.gens) == len(sm.sets) == built[0] > 0


def test_spanning_path_shift_sum_is_first_component():
    # sum over spanning paths of HS_i equals the k = 0 slice of the cycle form
    for n in (4, 5):
        c = CycleLabeling(n)
        for i in (1, 2):
            if not i < n / 2:
                continue
            for s in (i, i + 1):
                total = MonomialIdeal.zero(n)
                # Each path is rooted at its own largest leaf, in the cycle's labels.
                for p in spanning_paths_of_cycle(c):
                    total = total + hs_tree_formula(p, i, s)
                alpha_i = Monomial.uniform(n, i)
                P = comp_power_ideal(c.graph, s - i)
                gens = []
                for F in combinations(range(1, n + 1), i):
                    m = alpha_i / Monomial.from_support(n, F)
                    gens.extend(m * u for u in P.gens)
                assert total == MonomialIdeal(n, gens)


def test_hs1_routes_agree_on_connected_corpus():
    for n in range(3, 6):
        for g in connected_graphs(n):
            I = comp_edge_ideal(g)
            assert hs1_formula(g) == hs1_via_lcm(I) == hs_power(g, 1, 1)


@st.composite
def named_trees_and_cycles(draw):
    """A random tree or cycle on 8 to 10 vertices under random vertex names."""
    n = draw(st.integers(8, 10))
    names = draw(st.permutations(range(1, n + 1)))
    if draw(st.booleans()):
        # Each vertex after the first hangs off an earlier one.
        edges = [(names[k], names[draw(st.integers(0, k - 1))]) for k in range(1, n)]
    else:
        edges = [(names[k], names[(k + 1) % n]) for k in range(n)]
    return Graph(n, edges)


@settings(derandomize=True, max_examples=25, deadline=timedelta(seconds=5), database=None)
@given(named_trees_and_cycles())
def test_closed_forms_match_linear_quotients_in_any_labels(g):
    for s in (1, 2, 3):
        pd = pd_of_power(g, s)
        assert pd == pd_formula(g, s)
        for i in range(pd + 2):
            form = hs_closed_form(g, i, s)
            if form is not None:
                assert form == hs_power(g, i, s)


def test_kernel_shift_ideals_build_monomials_only_when_read(monkeypatch):
    c = CycleLabeling(6).graph
    sm = power_set_map(c, 3)
    for t in range(1, 4):
        comp_power_ideal(c, t)  # fill the generator caches
    built = []
    real_init, real_wrap_all = Monomial.__init__, Monomial._wrap_all.__func__

    def counting_init(self, exps):
        built.append(1)
        real_init(self, exps)

    def counting_wrap_all(cls, rows):
        built.append(len(rows))
        return real_wrap_all(cls, rows)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    monkeypatch.setattr(Monomial, "_wrap_all", classmethod(counting_wrap_all))
    lq = hs_linear_quotients(sm, 2)
    closed = hs_cycle_formula(c, 2, 3)
    assert lq == closed and not built
    assert not lq.exps.flags.writeable and lq.exps.dtype == np.uint8
    # Built anew on each read of gens, in the matrix's row order; no read is kept.
    gens = lq.gens
    assert built == [lq.num_gens()]
    again = lq.gens
    assert again == gens and again is not gens and built == [lq.num_gens()] * 2
    assert [g.exps for g in gens] == [tuple(row) for row in lq.exps.tolist()]


def test_cached_shift_ideals_keep_no_monomials():
    c10 = relabel_graph(CycleLabeling(10).graph, (4, 9, 1, 6, 10, 3, 8, 2, 7, 5))
    ideals = [hs_power(c10, i, 4) for i in range(pd_of_power(c10, 4) + 1)]
    assert sum(x.num_gens() for x in ideals) == 5351
    matrices = sum(x.exps.nbytes for x in ideals)
    # A full collection empties the tuple free list; one read of the largest ideal refills it.
    gc.collect()
    gc.disable()
    try:
        max(ideals, key=MonomialIdeal.num_gens).gens
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for x in ideals:
            x.gens
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    # A kept read would pin about 168 B per generator (a Monomial and its tuple) beside its row.
    assert grown < matrices == 53510
