from datetime import timedelta
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homshift.betti
from homshift import (
    CycleLabeling,
    Graph,
    Monomial,
    MonomialIdeal,
    OracleCapError,
    SimplicialComplex,
    betti_monotonicity_check,
    betti_table,
    comp_edge_ideal,
    comp_power_ideal,
    hs_oracle,
    lcm_lattice,
    pd_oracle,
    upper_koszul,
)
from homshift.betti import integer_rank
from homshift.corpus import connected_graphs


def ideal(n, *rows):
    return MonomialIdeal.from_exponents(n, rows)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def mask(*vertices):
    return sum(1 << (v - 1) for v in vertices)


def complex_on(*facets):
    return SimplicialComplex(frozenset(mask(*f) for f in facets))


def _sparse(rows):
    """Each dense row as the dict of its nonzero entries, the input ``integer_rank`` takes."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank(_sparse([[0, 0], [0, 0]])) == 0
    assert integer_rank(_sparse([[1, 2], [2, 4]])) == 1
    assert integer_rank(_sparse([[2, 0, 1], [0, 3, 1], [2, 3, 2]])) == 2
    assert integer_rank(_sparse([[1, 0], [0, 1], [1, 1]])) == 2
    # entries that would overflow machine ints must still be exact
    big = [[10**30, 1], [1, 10**30]]
    assert integer_rank(_sparse(big)) == 2
    # No pivot entry is +-1, so every step is the fraction-free one.
    assert integer_rank(_sparse([[3, 2], [3, 3], [6, 4]])) == 2


def _rank_by_fractions(rows):
    """Rank by Gauss-Jordan elimination over exact fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    st.integers(0, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 10**20]), min_size=cols, max_size=cols),
            max_size=6,
        )
    )
)
def test_integer_rank_matches_fraction_elimination(rows):
    assert integer_rank(_sparse(rows)) == _rank_by_fractions(rows)


def test_simplicial_complex_faces_and_void():
    void = SimplicialComplex(frozenset())
    assert void.faces_by_dim() == {} and void.reduced_homology() == {}
    empty = SimplicialComplex(frozenset({0}))
    assert empty.faces_by_dim() == {-1: [0]}
    assert void != empty
    two_pts = complex_on({1}, {3})
    assert two_pts.faces_by_dim() == {-1: [0], 0: [mask(1), mask(3)]}
    # A facet inside another adds no face.
    c = complex_on({1, 2}, {1}, {2, 3})
    assert c.faces_by_dim() == {
        -1: [0],
        0: [mask(1), mask(2), mask(3)],
        1: [mask(1, 2), mask(2, 3)],
    }


def test_reduced_homology_examples():
    assert complex_on({1}, {2}).reduced_homology() == {0: 1}
    assert complex_on({1, 2}, {1, 3}, {2, 3}).reduced_homology() == {1: 1}
    assert complex_on({1, 2, 3}).reduced_homology() == {}
    assert SimplicialComplex(frozenset({0})).reduced_homology() == {-1: 1}
    # The boundary of a tetrahedron: a 2-sphere.
    sphere = complex_on(*combinations((1, 2, 3, 4), 3))
    assert sphere.reduced_homology() == {2: 1}


def test_upper_koszul_examples():
    I = ideal(3, (1, 0, 0), (0, 0, 1))
    c = upper_koszul(I, Monomial((1, 0, 1)))
    assert c == complex_on({1}, {3})
    gen = Monomial((1, 0, 0))
    c = upper_koszul(I, gen)
    assert c.faces_by_dim()[-1] == [0]
    missing = upper_koszul(I, Monomial((0, 1, 0)))
    assert missing == SimplicialComplex(frozenset())
    with pytest.raises(ValueError):
        upper_koszul(I, Monomial((1, 0)))


def test_betti_examples():
    I = ideal(3, (1, 0, 0), (0, 0, 1))
    entries = betti_table(I).entries
    assert entries == {(0, (1, 0, 0)): 1, (0, (0, 0, 1)): 1, (1, (1, 0, 1)): 1}
    assert (0, (1, 0, 1)) not in entries


def test_hs_oracle_examples():
    I = ideal(3, (1, 0, 0), (0, 0, 1))
    assert hs_oracle(I, 1) == ideal(3, (1, 0, 1))
    assert hs_oracle(I, 0) == I
    c4 = CycleLabeling(4).graph
    assert hs_oracle(comp_edge_ideal(c4), 2) == ideal(4, (1, 1, 1, 1))
    assert hs_oracle(I, 5).is_zero()


def test_pd_oracle_examples():
    assert pd_oracle(ideal(3, (1, 0, 0), (0, 0, 1))) == 1
    assert pd_oracle(comp_edge_ideal(CycleLabeling(4).graph)) == 2
    assert pd_oracle(ideal(2, (1, 1))) == 0
    assert pd_oracle(MonomialIdeal.unit(2)) == 0
    with pytest.raises(ValueError):
        pd_oracle(MonomialIdeal.zero(2))


def test_lcm_lattice():
    I = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    lattice = {m.exps for m in lcm_lattice(I)}
    assert lattice == {(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)}
    with pytest.raises(OracleCapError):
        lcm_lattice(I, gen_cap=2)


def test_betti_monotonicity_examples():
    c4 = CycleLabeling(4).graph
    I = comp_edge_ideal(c4)
    u = I.gens[0]
    assert betti_monotonicity_check(I.scaled(u), I * I)
    assert not betti_monotonicity_check(I * I, I.scaled(u))
    assert betti_monotonicity_check(I, I)
    # x1 * I_c(P3 on {2,3,4}) inside I_c(P4): the re-embedded subgraph pattern
    p4 = path(4)
    J = ideal(4, (1, 1, 0, 0), (1, 0, 0, 1))
    assert J.is_contained_in(comp_edge_ideal(p4))
    assert betti_monotonicity_check(J, comp_edge_ideal(p4))


def test_total_betti_numbers_nondecreasing_in_power():
    for n in range(3, 6):
        for g in connected_graphs(n):
            t1 = betti_table(comp_power_ideal(g, 1))
            t2 = betti_table(comp_power_ideal(g, 2))
            for i in range(0, max(t1.max_index(), t2.max_index()) + 1):
                total1 = sum(b for (j, _), b in t1.entries.items() if j == i)
                total2 = sum(b for (j, _), b in t2.entries.items() if j == i)
                assert total1 <= total2


def test_linear_resolution_degree_concentration():
    # every nonzero beta_{i,a} of I_c(G)^s sits in total degree (n-2)s + i
    for n in range(3, 6):
        for g in connected_graphs(n):
            for s in (1, 2):
                I = comp_power_ideal(g, s)
                d = (n - 2) * s
                for (i, a), b in betti_table(I).entries.items():
                    assert b > 0 and sum(a) == d + i


def test_betti_table_export_shape():
    I = comp_edge_ideal(path(4))
    doc = betti_table(I).to_dict(I)
    assert doc["ideal"] == I.to_dict()
    rows = doc["entries"]
    assert rows == sorted(rows, key=lambda r: (r["i"], r["deg"]))
    assert all(r["beta"] > 0 for r in rows)
    assert {r["i"] for r in rows} == {0, 1}


def test_betti_table_cache_respects_caps():
    I = comp_edge_ideal(CycleLabeling(4).graph)
    betti_table(I)
    with pytest.raises(OracleCapError):
        betti_table(I, gen_cap=2)
    with pytest.raises(OracleCapError):
        betti_table(I, size_cap=3)


def test_lcm_lattice_keys_past_the_packed_range():
    # Joins are sorted by their _lex_keys, b = bit_length(largest entry) bits
    # per entry and 63 // b entries per int64 key: one key for 2^40 (a uint64
    # matrix), two for 63-bit entries in two variables, three for 70
    # variables at 2 bits; and 0/1 rows take one key up to 63 variables and
    # two at 64.
    rows63 = [tuple(int(p % q == 0) for p in range(63)) for q in (2, 3, 5, 7)]
    rows64 = [tuple(int(p % q == 1) for p in range(64)) for q in (2, 3, 5, 7, 11)]
    for I in (
        ideal(1, (2**40,)),
        ideal(2, (2**62, 0), (0, 2**62 + 1), (1, 1)),
        ideal(70, (1,) * 69 + (0,), (0,) + (1,) * 69, (2,) + (0,) * 69),
        ideal(63, *rows63),
        ideal(64, *rows64),
    ):
        gens = [g.exps for g in I.gens]
        joins = {
            tuple(map(max, zip(*subset)))
            for k in range(1, len(gens) + 1)
            for subset in combinations(gens, k)
        }
        assert [m.exps for m in lcm_lattice(I)] == sorted(joins)


def test_lcm_lattice_trivial_ideals():
    for n in range(4):
        zero = MonomialIdeal.zero(n)
        assert lcm_lattice(zero) == []
        assert betti_table(zero).entries == {}
        unit = MonomialIdeal.unit(n)
        assert lcm_lattice(unit) == [Monomial.one(n)]
        assert betti_table(unit).entries == {(0, (0,) * n): 1}


def test_lcm_lattice_caps_are_exact():
    for I in (
        ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1)),
        comp_power_ideal(CycleLabeling(5).graph, 2),
    ):
        size = len(lcm_lattice(I))
        assert len(lcm_lattice(I, size_cap=size)) == size
        with pytest.raises(OracleCapError, match="size cap"):
            lcm_lattice(I, size_cap=size - 1)
        with pytest.raises(OracleCapError, match="size cap"):
            betti_table(I, size_cap=size - 1)


def test_lcm_lattice_independent_of_join_blocks(monkeypatch):
    ideals = [comp_power_ideal(g, 2) for g in connected_graphs(5)]
    lattices = [lcm_lattice(I) for I in ideals]
    monkeypatch.setattr(homshift.betti, "_TABLE_CACHE", {})
    tables = [betti_table(I).entries for I in ideals]
    # One frontier row per block: every round spans many blocks, and
    # betti_table reads one lattice row per block.
    monkeypatch.setattr(homshift.betti, "_JOIN_BLOCK", 1)
    monkeypatch.setattr(homshift.betti, "_TABLE_CACHE", {})
    assert [lcm_lattice(I) for I in ideals] == lattices
    assert [betti_table(I).entries for I in ideals] == tables
    for I, lattice in zip(ideals, lattices):
        assert len(lcm_lattice(I, size_cap=len(lattice))) == len(lattice)
        with pytest.raises(OracleCapError, match="size cap"):
            lcm_lattice(I, size_cap=len(lattice) - 1)


def test_betti_table_returns_cached_object(monkeypatch):
    monkeypatch.setattr(homshift.betti, "_TABLE_CACHE", {})
    I = comp_power_ideal(CycleLabeling(5).graph, 2)
    table = betti_table(I)
    assert betti_table(I) is table
    assert len(homshift.betti._TABLE_CACHE) == 1


def test_betti_table_ranks_each_distinct_complex_once(monkeypatch):
    I = comp_power_ideal(CycleLabeling(5).graph, 2)
    complexes = [upper_koszul(I, a).facets for a in lcm_lattice(I)]
    assert len(complexes) > len(set(complexes))  # some complexes repeat
    seen = []
    faces_by_dim = SimplicialComplex.faces_by_dim

    def counting(self):
        seen.append(self.facets)
        return faces_by_dim(self)

    monkeypatch.setattr(SimplicialComplex, "faces_by_dim", counting)
    monkeypatch.setattr(homshift.betti, "_TABLE_CACHE", {})
    betti_table(I)
    assert sorted(seen, key=sorted) == sorted(set(complexes), key=sorted)


def test_betti_table_beyond_64_variables():
    # Facet masks are Python ints: bit 69 or bit 128 must not wrap onto a low bit.
    n = 70
    gens = [Monomial.from_support(n, e) for e in ((1, 2), (2, 70), (1, 70))]
    lcm = Monomial.from_support(n, (1, 2, 70)).exps
    want = {(0, u.exps): 1 for u in gens}
    want[(1, lcm)] = 2  # K^lcm is the three points {1}, {2}, {70}
    assert betti_table(MonomialIdeal(n, gens)).entries == want
    for n in (66, 70, 130):
        # Two disjoint edges {1, 2} and {n-1, n}: one reduced 0-cycle.
        low, high = Monomial.from_support(n, (1, 2)), Monomial.from_support(n, (n - 1, n))
        assert betti_table(MonomialIdeal(n, [low, high])).entries == {
            (0, low.exps): 1,
            (0, high.exps): 1,
            (1, (low * high).exps): 1,
        }
    assert complex_on({1, 2}, {129, 130}).reduced_homology() == {0: 1}


def test_gen_cap_refuses_before_lattice_work(monkeypatch):
    def no_work(ideal):
        raise AssertionError("exponent matrix built for a refused ideal")

    monkeypatch.setattr(homshift.betti, "_exponent_matrix", no_work)
    I = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    for call in (lcm_lattice, betti_table):
        with pytest.raises(OracleCapError, match="oracle cap of 2"):
            call(I, gen_cap=2)


@st.composite
def small_ideals(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=6))
    return MonomialIdeal.from_exponents(n, rows)


ORACLE_PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@ORACLE_PROPERTY
@given(small_ideals())
def test_lcm_lattice_matches_subset_lcms(I):
    gens = [g.exps for g in I.gens]
    joins = {
        tuple(map(max, zip(*subset)))
        for k in range(1, len(gens) + 1)
        for subset in combinations(gens, k)
    }
    assert [m.exps for m in lcm_lattice(I)] == sorted(joins)


@ORACLE_PROPERTY
@given(small_ideals(), st.lists(st.integers(0, 300), min_size=5, max_size=5))
def test_upper_koszul_matches_definition(I, extra):
    for a in lcm_lattice(I) + [Monomial(extra[: I.n])]:
        support = a.support()
        want = {
            mask(*face)
            for k in range(len(support) + 1)
            for face in combinations(support, k)
            if a / Monomial.from_support(I.n, face) in I
        }
        got = upper_koszul(I, a).faces_by_dim()
        assert {face for faces in got.values() for face in faces} == want


def _homology_from_definition(faces):
    """Nonzero reduced homology ranks of a set of faces (sorted tuples), keyed by dimension."""
    by_dim = {}
    for face in sorted(faces):
        by_dim.setdefault(len(face) - 1, []).append(face)
    ranks = {}
    for d, upper in by_dim.items():
        lower = by_dim.get(d - 1)
        if lower is None:
            continue
        # Column of face (v_0 < ... < v_d): (-1)^t at the row of the face without v_t.
        mat = [[0] * len(upper) for _ in lower]
        for j, face in enumerate(upper):
            for t in range(len(face)):
                mat[lower.index(face[:t] + face[t + 1 :])][j] = (-1) ** t
        ranks[d] = _rank_by_fractions(mat)
    homology = {d: len(fs) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d, fs in by_dim.items()}
    return {d: h for d, h in homology.items() if h}


def _faces_of(facets):
    """Every face of a set of facet masks, as sorted vertex tuples."""
    return {
        tuple(v + 1 for v in range(7) if face >> v & 1)
        for facet in facets
        for face in range(facet + 1)
        if face & facet == face
    }


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.frozensets(st.integers(0, (1 << 7) - 1), max_size=6))
@example(frozenset())  # the void complex: no faces
@example(frozenset({0}))  # {empty face}: reduced homology in dimension -1
def test_reduced_homology_matches_definition(facets):
    assert SimplicialComplex(facets).reduced_homology() == _homology_from_definition(_faces_of(facets))


def test_reduced_homology_ranks_each_boundary_map_once_on_every_face(monkeypatch):
    # The tracer reads len(rows) * len(rows[0]) after each call as the nonzeros
    # ranked: one call per d >= 0 with all f_d rows of d + 1 entries keeps that
    # count a function of the complex alone, whatever the vertex labels.
    calls = []
    rank = homshift.betti.integer_rank

    def counting(rows):
        shape = [len(row) for row in rows]
        result = rank(rows)
        calls.append((shape, len(rows) * len(rows[0])))
        return result

    monkeypatch.setattr(homshift.betti, "integer_rank", counting)
    I = comp_power_ideal(CycleLabeling(5).graph, 2)
    complexes = {upper_koszul(I, a) for a in lcm_lattice(I)}
    complexes |= {complex_on(*combinations((1, 2, 3, 4), 3)), complex_on({2, 5}, {1, 3, 4, 7})}
    for c in complexes:
        calls.clear()
        c.reduced_homology()
        by_dim = c.faces_by_dim()
        want = [([d + 1] * len(fs), (d + 1) * len(fs)) for d, fs in by_dim.items() if d >= 0]
        assert calls == want


@settings(derandomize=True, max_examples=150, deadline=timedelta(seconds=5), database=None)
@given(small_ideals())
def test_betti_table_matches_definition(I):
    gens = [g.exps for g in I.gens]
    lattice = {
        tuple(map(max, zip(*subset)))
        for k in range(1, len(gens) + 1)
        for subset in combinations(gens, k)
    }
    want = {}
    for exps in lattice:
        a = Monomial(exps)
        support = a.support()
        faces = {
            face
            for k in range(len(support) + 1)
            for face in combinations(support, k)
            if a / Monomial.from_support(I.n, face) in I
        }
        for d, h in _homology_from_definition(faces).items():
            want[(d + 1, exps)] = h
    assert betti_table(I).entries == want
