from datetime import timedelta
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homshift.monomials
from homshift import (
    Monomial,
    MonomialIdeal,
    SetMap,
    comp_power_ideal,
    hs_linear_quotients,
    set_map_colon,
    VeroneseSpec,
    divide_out,
    has_strong_exchange,
    maximal_ideal,
    rename_variables,
    squarefree_power_of_maximal,
    veronese_type,
)
from homshift.corpus import connected_graphs
from homshift.graphs import invert_permutation
from homshift.errors import NotLinearQuotientsError
from homshift.monomials import _bit_rows, _ideal_from_rows, _minimal_rows, exchange_violation


def mono(*exps):
    return Monomial(exps)


def ideal(n, *rows):
    return MonomialIdeal.from_exponents(n, rows)


def test_monomial_basics():
    m = mono(1, 0, 2)
    assert m.degree() == 3
    assert m.support() == (1, 3)
    assert str(m) == "x1*x3^2"
    assert str(Monomial.one(3)) == "1"
    assert Monomial.variable(3, 2) == mono(0, 1, 0)
    assert Monomial.from_support(4, {2, 4}) == mono(0, 1, 0, 1)
    assert mono(1, 1) * mono(0, 2) == mono(1, 3)
    assert mono(2, 1) / mono(1, 0) == mono(1, 1)
    with pytest.raises(ValueError):
        mono(1, 0) / mono(0, 1)
    with pytest.raises(ValueError):
        Monomial((-1, 0))
    assert mono(1, 2).gcd(mono(2, 1)) == mono(1, 1)
    assert mono(1, 2).lcm(mono(2, 1)) == mono(2, 2)


def test_divides_rejects_variable_count_mismatch():
    with pytest.raises(ValueError):
        mono(1, 0).divides(mono(1, 0, 0))


def test_gcd_rejects_variable_count_mismatch():
    with pytest.raises(ValueError):
        mono(1, 2).gcd(mono(1, 2, 3))


def test_lcm_rejects_variable_count_mismatch():
    with pytest.raises(ValueError):
        mono(1, 2, 3).lcm(mono(1, 2))


def test_minimalize_examples():
    # The constructor keeps only the minimal generators.
    assert MonomialIdeal(2, [mono(1, 0), mono(1, 1)]) == ideal(2, (1, 0))
    assert MonomialIdeal(2, []) == MonomialIdeal.zero(2)
    got = MonomialIdeal(3, [mono(1, 1, 0), mono(0, 1, 1), mono(1, 1, 1)])
    assert got == ideal(3, (1, 1, 0), (0, 1, 1))


def test_canonical_order_is_descending_lex():
    I = ideal(4, (0, 0, 1, 1), (1, 1, 0, 0), (1, 0, 0, 1))
    assert [g.exps for g in I.gens] == [(1, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 1)]


def test_product_and_power_examples():
    I = ideal(3, (1, 0, 0), (0, 0, 1))
    assert I.power(2) == ideal(3, (2, 0, 0), (1, 0, 1), (0, 0, 2))
    assert I.power(0) == MonomialIdeal.unit(3)
    assert I.power(-1) == MonomialIdeal.zero(3)
    J = ideal(3, (1, 1, 0), (0, 1, 1))
    assert J * ideal(3, (0, 1, 0)) == ideal(3, (1, 2, 0), (0, 2, 1))


def test_product_algebra_properties():
    I = ideal(3, (1, 1, 0), (0, 1, 1))
    J = ideal(3, (1, 0, 0), (0, 0, 2))
    K = ideal(3, (0, 1, 0))
    assert I * J == J * I
    assert (I * J) * K == I * (J * K)
    for s, t in [(0, 1), (1, 2), (2, 2)]:
        assert I.power(s + t) == I.power(s) * I.power(t)


def test_colon_examples():
    assert ideal(2, (1, 1)).colon(mono(0, 1)) == ideal(2, (1, 0))
    got = ideal(4, (1, 1, 0, 0), (1, 0, 0, 1)).colon(mono(0, 0, 1, 1))
    assert got == ideal(4, (1, 0, 0, 0))
    assert ideal(1, (1,)).colon(mono(1)) == MonomialIdeal.unit(1)


def test_colon_cancels_principal_multiplication():
    I = ideal(3, (1, 1, 0), (0, 1, 1), (2, 0, 0))
    for m in [mono(1, 0, 0), mono(0, 2, 1), mono(1, 1, 1)]:
        assert (I * MonomialIdeal(3, [m])).colon(m) == I


def test_squarefree_power_of_maximal():
    got = squarefree_power_of_maximal(3, 2)
    assert got == ideal(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert squarefree_power_of_maximal(4, 4) == ideal(4, (1, 1, 1, 1))
    assert squarefree_power_of_maximal(3, 0) == MonomialIdeal.unit(3)
    with pytest.raises(ValueError):
        squarefree_power_of_maximal(3, 4)


def test_veronese_examples():
    assert veronese_type(VeroneseSpec((2, 1), 2)) == ideal(2, (2, 0), (1, 1))
    assert veronese_type(VeroneseSpec((1, 1, 1), 2)) == squarefree_power_of_maximal(3, 2)
    assert veronese_type(VeroneseSpec((1, 1), 2)) == ideal(2, (1, 1))
    with pytest.raises(ValueError):
        VeroneseSpec((1,), 2)


def test_veronese_squarefree_agrees_with_maximal_powers():
    for n in range(1, 6):
        for d in range(0, n + 1):
            assert veronese_type(VeroneseSpec((1,) * n, d)) == squarefree_power_of_maximal(n, d)


def test_exchange_property_examples():
    V = veronese_type(VeroneseSpec((2, 1), 2))
    assert has_strong_exchange(V) and exchange_violation(V) is None
    split = ideal(4, (1, 1, 0, 0), (0, 0, 1, 1))
    assert not has_strong_exchange(split)
    assert has_strong_exchange(MonomialIdeal.unit(3))
    mixed = ideal(2, (1, 0), (0, 2))
    assert not has_strong_exchange(mixed)  # not generated in a single degree
    # (x1, x2)(x3, x4) is polymatroidal, but has no strong exchange.
    transversal = ideal(4, (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
    u, v, i, j = exchange_violation(transversal)
    assert u.exps[i - 1] > v.exps[i - 1] and u.exps[j - 1] < v.exps[j - 1]
    assert _swap(u.exps, i - 1, j - 1) not in {g.exps for g in transversal.gens}


def _swap(u, i, j):
    w = list(u)
    w[i] -= 1
    w[j] += 1
    return tuple(w)


def _is_polymatroidal(I):
    """The exchange property by brute force: for u_i > v_i some u_j < v_j keeps u x_j / x_i."""
    gens = {g.exps for g in I.gens}
    if len({sum(u) for u in gens}) > 1:
        return False
    return all(
        any(u[j] < v[j] and _swap(u, i, j) in gens for j in range(I.n))
        for u in gens
        for v in gens
        for i in range(I.n)
        if u[i] > v[i]
    )


def test_strong_exchange_implies_polymatroidal_exhaustively():
    # Every subset of the degree-2 monomials in 3 variables.
    from itertools import combinations

    degree2 = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    for k in range(1, len(degree2) + 1):
        for rows in combinations(degree2, k):
            I = ideal(3, *rows)
            if has_strong_exchange(I):
                assert _is_polymatroidal(I)
    assert _is_polymatroidal(ideal(4, (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))
    assert not _is_polymatroidal(ideal(4, (1, 1, 0, 0), (0, 0, 1, 1)))


def test_divide_out_examples():
    content, core = divide_out(ideal(4, (1, 1, 0, 1), (1, 0, 1, 1)))
    assert content == mono(1, 0, 0, 1)
    assert core == ideal(4, (0, 1, 0, 0), (0, 0, 1, 0))
    content, core = divide_out(ideal(1, (1,)))
    assert content == mono(1) and core == MonomialIdeal.unit(1)
    content, core = divide_out(ideal(2, (1, 0), (0, 1)))
    assert content == Monomial.one(2)
    with pytest.raises(ValueError):
        divide_out(MonomialIdeal.zero(2))


def test_divide_out_idempotent():
    I = ideal(3, (2, 1, 1), (1, 2, 1), (1, 1, 3))
    _, core = divide_out(I)
    content2, core2 = divide_out(core)
    assert content2.is_one() and core2 == core


def test_serialization_round_trip_is_exact():
    I = ideal(4, (1, 1, 0, 0), (0, 0, 2, 1))
    again = MonomialIdeal.from_dict(I.to_dict())
    assert again == I and again.to_dict() == I.to_dict()
    assert MonomialIdeal.zero(3).to_dict() == {"n": 3, "gens": []}


def test_maximal_ideal():
    assert maximal_ideal(2) == ideal(2, (1, 0), (0, 1))


def test_rename_variables():
    I = ideal(4, (2, 1, 0, 0), (0, 1, 1, 3), (1, 0, 0, 1))
    assert rename_variables(I, (1, 2, 3, 4), 4) is I
    moved = rename_variables(I, (3, 1, 4, 2), 4)
    assert moved == ideal(4, (1, 0, 2, 0), (1, 3, 0, 1), (0, 1, 1, 0))
    assert rename_variables(moved, invert_permutation((3, 1, 4, 2)), 4) == I
    J = ideal(3, (1, 2, 0), (0, 1, 1))
    assert rename_variables(J, (2, 4, 5), 5) == ideal(5, (0, 1, 0, 2, 0), (0, 0, 0, 1, 1))
    for bad in ((2, 2, 5), (2, 4, 6), (2, 4)):
        with pytest.raises(ValueError):
            rename_variables(J, bad, 5)


# ---------------------------------------------------------------------------
# the matrix kernels (*, + and HS_i) against their definitions
# ---------------------------------------------------------------------------


def brute_minimal(rows):
    """Rows no other row divides, in descending lex order."""
    rows = set(rows)
    divides = lambda s, r: s != r and all(a <= b for a, b in zip(s, r))
    return sorted((r for r in rows if not any(divides(s, r) for s in rows)), reverse=True)


def exps_of(ideal):
    # Python ints only: a numpy scalar would hash and print like one but is not one.
    assert all(type(e) is int for g in ideal.gens for e in g.exps)
    return [g.exps for g in ideal.gens]


KERNEL_PROPERTY = settings(
    derandomize=True, max_examples=200, deadline=timedelta(seconds=2), database=None
)


@st.composite
def row_lists(draw):
    """n <= 5 and two lists of exponent rows; empty lists are zero ideals.

    Exponents are small, or mixed with values near 2^20 and 2^40 so that
    lex order needs several packed sort keys, or one key per column.  In
    the third kind every row permutes one tuple, so all degrees agree and
    the minimalization pass, which sorts again, is skipped.
    """
    n = draw(st.integers(0, 5))
    large = st.sampled_from((0, 1, 3, 2**20, 2**20 + 1, 2**40))
    kind = draw(st.sampled_from(("small", "large", "one degree")))
    if kind == "small":
        row = st.tuples(*[st.integers(0, 3)] * n)
    elif kind == "large":
        row = st.tuples(*[large] * n)
    else:
        row = st.permutations(draw(st.tuples(*[large] * n))).map(tuple)
    return n, draw(st.lists(row, max_size=6)), draw(st.lists(row, max_size=6))


@KERNEL_PROPERTY
@given(row_lists())
def test_ideal_sum_and_product_match_definitions(case):
    n, rows_a, rows_b = case
    I, J = MonomialIdeal.from_exponents(n, rows_a), MonomialIdeal.from_exponents(n, rows_b)
    sums = [tuple(a + b for a, b in zip(u, v)) for u in rows_a for v in rows_b]
    assert exps_of(I * J) == brute_minimal(sums)
    assert exps_of(I + J) == brute_minimal(rows_a + rows_b)


@st.composite
def set_maps(draw):
    """Distinct generators of mixed degrees with an arbitrary bool member matrix, and an index i."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), unique=True, max_size=6))
    members = [draw(st.tuples(*[st.booleans()] * n)) for _ in rows]
    i = draw(st.integers(-1, n + 1))
    shape = (len(rows), n)
    exps = np.array(rows, dtype=np.uint8).reshape(shape)
    return SetMap(exps, np.array(members, dtype=bool).reshape(shape)), i


@KERNEL_PROPERTY
@given(set_maps())
def test_hs_linear_quotients_matches_definition(case):
    sm, i = case
    candidates = [
        tuple(e + (v + 1 in F) for v, e in enumerate(u.exps))
        for u, su in zip(sm.gens, sm.sets)
        for F in combinations(sorted(su), i)
    ] if i >= 0 else []
    assert exps_of(hs_linear_quotients(sm, i)) == brute_minimal(candidates)


def test_kernels_on_zero_unit_and_no_variables():
    for n in (0, 1, 3):
        zero, unit = MonomialIdeal.zero(n), MonomialIdeal.unit(n)
        assert zero * unit == unit * zero == zero * zero == zero
        assert unit * unit == unit + zero == zero + unit == unit + unit == unit
        assert zero + zero == zero
        units = SetMap(np.zeros((1, n), dtype=np.uint8), np.ones((1, n), dtype=bool))
        for i in range(n + 1):
            assert hs_linear_quotients(units, i) == squarefree_power_of_maximal(n, i)
        assert hs_linear_quotients(units, n + 1) == zero
    I = ideal(2, (1, 0), (0, 2))
    assert I * MonomialIdeal.unit(2) == I == I + MonomialIdeal.zero(2)
    assert I + MonomialIdeal.unit(2) == MonomialIdeal.unit(2)


def test_kernels_refuse_int64_overflow():
    top = 2**63 - 1
    half = ideal(1, (2**62,))
    assert exps_of(half * ideal(1, (2**62 - 1,))) == [(top,)]
    with pytest.raises(OverflowError):
        half * half  # 2^63 does not fit
    with pytest.raises(OverflowError):
        ideal(1, (2**63,)) + ideal(1, (1,))
    # Each exponent fits, but the degree does not: degrees are summed exactly.
    assert ideal(2, (2**62, 2**62)) + ideal(2, (1, 0)) == ideal(2, (1, 0))
    quarter = ideal(2, (2**61, 2**61))
    assert exps_of(quarter * quarter) == [(2**62, 2**62)]
    assert exps_of(quarter.scaled(Monomial((2**62, 2**61)))) == [(3 * 2**61, 2**62)]
    with pytest.raises(OverflowError):
        half.scaled(Monomial((2**62,)))  # 2^63 does not fit
    # Degree 2^64 would wrap to 0 in uint64; containment reads the entries alone.
    big, unit = ideal(3, (top, top, 2)), MonomialIdeal.unit(3)
    assert big.is_contained_in(unit) and not unit.is_contained_in(big)
    with pytest.raises(OverflowError):
        ideal(1, (2**63,)).is_contained_in(MonomialIdeal.unit(1))
    # Building a set map checks nothing; HS_i refuses a sum past int64.
    one = np.ones((1, 1), dtype=bool)
    near = SetMap(np.array([[top - 1]], dtype=np.uint64), one)
    assert exps_of(hs_linear_quotients(near, 1)) == [(top,)]
    for row in (top, 2**63):
        past = SetMap(np.array([[row]], dtype=np.uint64), one)
        with pytest.raises(OverflowError):
            hs_linear_quotients(past, 1)
    # HS_0 is the ideal of the generators: it builds where from_exponents does, and refuses past int64.
    assert exps_of(hs_linear_quotients(SetMap(np.array([[top]], dtype=np.uint64), one), 0)) == [(top,)]
    with pytest.raises(OverflowError):
        hs_linear_quotients(SetMap(np.array([[2**63]], dtype=np.uint64), one), 0)


def test_minimalization_sums_degrees_past_int64_exactly():
    # Each entry fits int64, but the second generator's degree 2^64 does not:
    # summed in int64 it wraps to 0 and x1 no longer looks like a divisor.
    top = 2**63 - 1
    rows = [(1, 0, 0), (top, top, 2)]
    x1 = ideal(3, (1, 0, 0))
    for I in (MonomialIdeal.from_exponents(3, rows), MonomialIdeal(3, [Monomial(r) for r in rows])):
        assert I == x1 and hash(I) == hash(x1) and exps_of(I) == [(1, 0, 0)]
    assert exps_of(ideal(3, (top, top, 2), (top, top, 1))) == [(top, top, 1)]


def test_constructors_and_membership_refuse_malformed_input():
    with pytest.raises(ValueError):
        MonomialIdeal(2, [mono(1, 0), mono(1, 0, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal.from_exponents(2, [(1, 0), (0, -1)])
    # Ragged rows, and rows that agree with each other but not with n.
    for rows in ([(1, 0), (1, 0, 0)], [(1, 0, 0)], [(1,), (0,)]):
        with pytest.raises(ValueError):
            MonomialIdeal.from_exponents(2, rows)
    with pytest.raises(OverflowError):
        MonomialIdeal.from_exponents(1, [(2**63,)])
    for m in (mono(1, 0, 0), mono(1)):
        with pytest.raises(ValueError):
            m in ideal(2, (1, 0))
        with pytest.raises(ValueError):
            m in MonomialIdeal.zero(2)


def test_constructors_refuse_non_integer_exponents():
    # Floats and strings are refused, not truncated or parsed.
    for exps in ((1.5,), (1.0,), ("1",), (np.float64(2),), (1, None)):
        with pytest.raises(ValueError, match="integers"):
            Monomial(exps)
        with pytest.raises(ValueError, match="integers"):
            MonomialIdeal.from_exponents(len(exps), [exps])
    for gens in ([[1.9, "2"]], [[1, 0], [0, 2.0]]):
        with pytest.raises(ValueError, match="integers"):
            MonomialIdeal.from_dict({"n": 2, "gens": gens})
    # Python and numpy integers are read exactly; past int64 an ideal still overflows.
    m = Monomial((np.int64(2), np.uint8(1), 2**70))
    assert m.exps == (2, 1, 2**70) and all(type(e) is int for e in m.exps)
    assert MonomialIdeal.from_exponents(2, [(np.uint64(1), np.int8(2))]) == ideal(2, (1, 2))
    for rows in ([(2**63, 0)], [(2**64, 1)], [(np.uint64(2**63), 0)]):
        with pytest.raises(OverflowError):
            MonomialIdeal.from_exponents(2, rows)


def test_variable_count_caps_and_degree_refuse_non_integers():
    # Neither truncated, parsed nor read as a bool.
    for n in (2.9, "2", True, None):
        with pytest.raises(ValueError, match="n must be an integer"):
            MonomialIdeal.from_dict({"n": n, "gens": [[1, 2]]})
    for caps in ((1.5, 2), ("1", 2), (True, 2)):
        with pytest.raises(ValueError, match="cap must be an integer"):
            VeroneseSpec(caps, 2)
    for degree in (1.5, "1", False):
        with pytest.raises(ValueError, match="degree must be an integer"):
            VeroneseSpec((1, 2), degree)
    # numpy integers are read exactly.
    assert MonomialIdeal.from_dict({"n": np.int64(2), "gens": [[1, 2]]}) == ideal(2, (1, 2))
    spec = VeroneseSpec((np.uint8(1), 2), np.int64(2))
    assert spec == VeroneseSpec((1, 2), 2) and type(spec.degree) is int


def test_exponents_refuse_bools():
    # bool is an int subclass, and np.array reads true beside an int as 1.
    calls = [
        lambda: Monomial((True, 2)),
        lambda: MonomialIdeal.from_exponents(2, [(True, False)]),
        lambda: MonomialIdeal.from_dict({"n": 1, "gens": [[True]]}),
        lambda: MonomialIdeal.from_dict({"n": 2, "gens": [[True, 2]]}),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="exponents must be integers"):
            call()
    # numpy integers and JSON ints still pass.
    assert MonomialIdeal.from_dict({"n": 2, "gens": [[np.uint8(1), 2]]}) == ideal(2, (1, 2))
    assert MonomialIdeal.from_dict({"n": 2, "gens": [[1, 2], [0, 3]]}) == ideal(2, (1, 2), (0, 3))


def test_membership_and_colon_exact_past_int64():
    I = ideal(2, (2, 0), (1, 3))
    assert mono(2, 0) in I and mono(1, 5) in I and mono(3, 1) in I
    assert mono(1, 2) not in I and mono(0, 9) not in I
    assert mono() in MonomialIdeal.unit(0) and mono() not in MonomialIdeal.zero(0)
    # A monomial past int64 is compared exactly, not wrapped.
    top = ideal(1, (2**63 - 1,))
    assert mono(2**70) in top and mono(2**63 - 2) not in top
    assert mono(2**70, 0) in I and mono(0, 2**70) not in I
    assert top.colon(mono(2**70)) == MonomialIdeal.unit(1)
    assert I.colon(mono(2**64, 1)) == ideal(2, (0, 0))


def test_product_independent_of_blocks(monkeypatch):
    ideals = [comp_power_ideal(g, 2) for g in connected_graphs(5)[:6]]
    products = [I * J for I in ideals for J in ideals]
    # One row of the left factor per block: every product spans many blocks.
    monkeypatch.setattr(homshift.monomials, "_JOIN_BLOCK", 1)
    assert [I * J for I in ideals for J in ideals] == products


# ---------------------------------------------------------------------------
# two routes into the one form of an ideal: exponent rows and a kernel's matrix
# ---------------------------------------------------------------------------


def built(n, rows, path):
    """The ideal of ``rows``, read from exponent rows (path 0) or from an int64 matrix (path 1).

    Both routes end in the same minimalization, so the two must be
    indistinguishable to every operation.
    """
    if path == 0:
        return MonomialIdeal.from_exponents(n, rows)
    return _ideal_from_rows(n, np.array(rows, dtype=np.int64).reshape(len(rows), n))


def plus(u, v):
    return tuple(a + b for a, b in zip(u, v))


def divides(v, u):
    return all(a <= b for a, b in zip(v, u))


@KERNEL_PROPERTY
@given(row_lists())
def test_ideal_forms_match_tuple_definitions(case):
    n, rows_a, rows_b = case
    unit = [(0,) * n]
    m = Monomial(rows_b[0] if rows_b else (1,) * n)
    for ra, rb in ((rows_a, rows_b), (rows_a, []), ([], rows_b), (rows_a, unit), (unit, rows_b)):
        min_a, min_b = brute_minimal(ra), brute_minimal(rb)
        # Both forms of one ideal are equal and hash equal.
        assert built(n, ra, 0) == built(n, ra, 1)
        assert hash(built(n, ra, 0)) == hash(built(n, ra, 1))
        for p, q in product((0, 1), repeat=2):
            I, J = built(n, ra, p), built(n, rb, q)
            assert (I == J) == (min_a == min_b)
            assert min_a != min_b or hash(I) == hash(J)
            contained = all(any(divides(v, u) for v in min_b) for u in min_a)
            assert I.is_contained_in(J) == contained
            assert exps_of(built(n, ra, p) + built(n, rb, q)) == brute_minimal(ra + rb)
            products = [plus(u, v) for u in ra for v in rb]
            assert exps_of(built(n, ra, p) * built(n, rb, q)) == brute_minimal(products)
        for p in (0, 1):
            I = built(n, ra, p)
            assert I.num_gens() == len(min_a) and I.is_zero() == (not min_a)
            assert exps_of(I.scaled(m)) == brute_minimal([plus(u, m.exps) for u in ra])


def test_matrix_ideals_compare_without_monomials(monkeypatch):
    graphs = connected_graphs(5)[:8]
    for g, s in product(graphs, (1, 2)):
        comp_power_ideal(g, s)  # fill the generator caches

    def no_monomials(cls, rows):
        raise AssertionError("Monomials built to compare or contain ideals")

    monkeypatch.setattr(Monomial, "_wrap_all", classmethod(no_monomials))
    for g in graphs:
        I, I2 = comp_power_ideal(g, 1), comp_power_ideal(g, 2)
        square = I * I
        # One common degree and mixed degrees.
        assert square == I2 and hash(square) == hash(I2) and square.is_contained_in(I2)
        assert I2.is_contained_in(I) and not I.is_contained_in(I2)
        assert (I + I2) == I and (I + I2).is_contained_in(I)
        assert I != I2 and not I2.is_contained_in(I2.scaled(Monomial.variable(g.n, 1)))


def test_bit_rows_exact_on_both_sides_of_int64():
    # Up to 63 columns the rows go through one int64 dot product; wider rows
    # through packed bytes. Both give the same exact Python ints.
    rng = np.random.default_rng(0)
    for width in (0, 1, 8, 62, 63, 64, 65, 130):
        bits = rng.random((6, width)) < 0.5
        bits[0] = True
        want = [sum(1 << p for p in range(width) if row[p]) for row in bits]
        got = _bit_rows(bits)
        assert got == want and all(type(x) is int for x in got)
    assert _bit_rows(np.zeros((0, 5), dtype=bool)) == []


# ---------------------------------------------------------------------------
# the packing boundary: a row in one int64 key (n * b <= 63) or in several
# ---------------------------------------------------------------------------

BOUNDARY_PROPERTY = settings(
    derandomize=True, max_examples=150, deadline=timedelta(seconds=5), database=None
)


@st.composite
def boundary_cases(draw):
    """n <= 25, two row lists of mixed degree whose largest entry is 7, 8, 15 or 16, set(u) picks and i.

    An entry up to 7, 8, 15 or 16 takes b = 3, 4, 4 or 5 bits, and one more
    bit in HS at 7 and 15, so a row fits one key for n up to 21, 15 or 12
    and needs several beyond.  Either list may be empty.
    """
    n = draw(st.integers(0, 25))
    top = draw(st.sampled_from((7, 8, 15, 16)))
    # Many 0s and 1s, so that rows repeat and divide one another.
    entry = st.one_of(st.integers(0, 1), st.integers(0, top))

    def rows():
        drawn = draw(st.lists(st.tuples(*[entry] * n), max_size=7))
        if drawn and n:
            first = list(drawn[0])
            first[draw(st.integers(0, n - 1))] = top
            drawn[0] = tuple(first)
        return drawn + draw(st.lists(st.sampled_from(drawn), max_size=2)) if drawn else drawn

    rows_a, rows_b = rows(), rows()
    picks = st.sets(st.integers(0, n - 1), max_size=4) if n else st.just(set())
    members = [draw(picks) for _ in rows_a]
    return n, rows_a, rows_b, members, draw(st.integers(0, 4))


@BOUNDARY_PROPERTY
@given(boundary_cases())
def test_kernels_match_definitions_across_the_packing_boundary(case):
    n, rows_a, rows_b, members, i = case
    for dtype in (np.uint8, np.int64):
        got = _minimal_rows(np.array(rows_a, dtype=dtype).reshape(len(rows_a), n))
        assert list(map(tuple, got.tolist())) == brute_minimal(rows_a)
    I, J = MonomialIdeal.from_exponents(n, rows_a), MonomialIdeal.from_exponents(n, rows_b)
    assert exps_of(I * J) == brute_minimal([plus(u, v) for u in rows_a for v in rows_b])
    exps = np.array(rows_a, dtype=np.uint8).reshape(len(rows_a), n)
    in_set = np.zeros(exps.shape, dtype=bool)
    for r, su in enumerate(members):
        in_set[r, sorted(su)] = True
    candidates = [
        tuple(e + (j in F) for j, e in enumerate(u))
        for u, su in zip(rows_a, members)
        for F in combinations(sorted(su), i)
    ]
    assert exps_of(hs_linear_quotients(SetMap(exps, in_set), i)) == brute_minimal(candidates)


def brute_sets(rows):
    """set(u_i) from the colons (u_1, ..., u_{i-1}) : u_i, or the first i whose colon needs more than variables."""
    sets = []
    for i, u in enumerate(rows):
        colon = [tuple(max(a - b, 0) for a, b in zip(v, u)) for v in rows[:i]]
        su = {c.index(1) for c in colon if sum(c) == 1}
        if not all(any(c[j] for j in su) for c in colon):
            return i
        sets.append({j + 1 for j in su})
    return sets


@st.composite
def boundary_orders(draw):
    """Distinct rows base + e_j + e_k over pairs {j, k} in a set S of columns, in descending lex order.

    All pairs give base * (x_j : j in S)^2, which has linear quotients;
    some pairs may not.  n <= 25 and entries up to 7, 8, 15 or 16 put the
    colon sweep's drop keys, with the pair indices, on both sides of 63 bits.
    """
    n = draw(st.integers(1, 25))
    top = draw(st.sampled_from((7, 8, 15, 16)))
    base = list(draw(st.tuples(*[st.integers(0, top - 2)] * n)))
    base[draw(st.integers(0, n - 1))] = top - 2
    S = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=5)))
    pairs = list(combinations(S, 2)) + [(j, j) for j in S]
    chosen = draw(st.one_of(st.just(pairs), st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    rows = []
    for j, k in chosen:
        row = base.copy()
        row[j] += 1
        row[k] += 1
        rows.append(tuple(row))
    return sorted(rows, reverse=True)


@BOUNDARY_PROPERTY
@given(boundary_orders())
def test_set_map_colon_matches_definition_across_the_packing_boundary(rows):
    want = brute_sets(rows)
    if isinstance(want, int):
        with pytest.raises(NotLinearQuotientsError) as err:
            set_map_colon([Monomial(r) for r in rows])
        assert err.value.index == want
    else:
        sm = set_map_colon([Monomial(r) for r in rows])
        assert list(map(tuple, sm.exps.tolist())) == rows and list(sm.sets) == want


def test_one_key_holds_a_row_exactly_up_to_63_bits():
    # Largest entry 7: 3 bits per entry, so 21 variables fill 63 bits and 22 need two keys;
    # HS_1 adds 1, so its keys take 4 bits per entry and split past 15 variables.
    for n in (15, 16, 21, 22):
        rows = [tuple((r + j) % 8 for j in range(n)) for r in range(8)]
        matrix = np.array(rows, dtype=np.uint8)
        assert len(homshift.monomials._lex_keys(matrix, 7)) == (1 if 3 * n <= 63 else 2)
        assert len(homshift.monomials._lex_keys(matrix, 8)) == (1 if 4 * n <= 63 else 2)
        assert list(map(tuple, _minimal_rows(matrix).tolist())) == brute_minimal(rows)
        I = MonomialIdeal.from_exponents(n, rows)
        assert exps_of(I * I) == brute_minimal([plus(u, v) for u in rows for v in rows])
        sm = SetMap(matrix, np.ones(matrix.shape, dtype=bool))
        candidates = [tuple(e + (j == k) for j, e in enumerate(u)) for u in rows for k in range(n)]
        assert exps_of(hs_linear_quotients(sm, 1)) == brute_minimal(candidates)
