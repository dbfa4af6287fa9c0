"""Homological shift ideals: generic computation and tree/cycle closed forms.

HS_i(I) is generated by the monomials x_F * u over generators u and
subsets F of set(u) with |F| = i whenever I has linear quotients.  For
complementary edge ideals this module also evaluates the closed forms

  trees:   HS_i(I^s) = I^{s-i} * ( alpha^i / prod_{k in F} x_phi(k) ),
           rooted at the largest leaf r, F running over the i-subsets of
           the vertices other than r and its neighbor, phi(k) the parent
           of k toward r; valid for 1 <= i <= s;

  cycles:  HS_i(I^s) = sum over k from max(i - (n - 1) // 2, 0) to
           floor(i/2) of (alpha^{i-k} / x_F) * I^{s-i+k} with |F| = i - 2k,
           valid for 1 <= i < n and s >= floor(i/2);

with I^0 the unit ideal and I^t = 0 for t < 0.  Both are evaluated in the
graph's own labels: on an admissibly labeled tree r = n and F runs over
[n-2], and the cycle form sums over all subsets F of [n].  Outside those
ranges the engine falls back to the linear-quotient computation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from typing import Iterable, NamedTuple

import numpy as np

from .betti import hs_oracle
from .edge_ideals import (
    SetMap,
    comp_edge_ideal,
    comp_power_ideal,
    power_set_map,
)
from .errors import PreconditionError
from .graphs import (
    Graph,
    LabeledTree,
    _distances_from,
    caterpillar_from_profile,
    is_connected,
    is_cycle_graph,
    is_tree,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    VeroneseSpec,
    _distinct_keys,
    _ideal_from_keys,
    _ideal_from_rows,
    _lex_keys,
    _product_keys,
    _subset_sums,
    divide_out,
    has_strong_exchange,
    maximal_ideal,
    rename_variables,
    squarefree_power_of_maximal,
    veronese_type,
)


def hs_linear_quotients(sm: SetMap, i: int) -> MonomialIdeal:
    """HS_i from a linear-quotients set map: all x_F * u with F in set(u).

    Candidates are packed ``_lex_keys`` at the largest exponent plus one,
    so no field carries: the key of x_F * u is the key of u plus the keys
    of the x_j, j in F.  Generators are grouped by |set(u)| = c, the row
    counts of ``sm.members``; each class adds the unit keys of set(u) times
    the selector ``_subset_sums(range(c), c, i).T`` to its row keys by one
    broadcast.  One sort of the keys drops repeats (one ``np.sort`` when a
    row fits one key), and only the distinct keys are unpacked.  HS_0 is
    the ideal of the generators; any exponent past int64 raises OverflowError.
    """
    n = sm.n
    if i < 0:
        return MonomialIdeal.zero(n)
    if i == 0:
        return _ideal_from_rows(n, sm.exps)
    largest = int(sm.exps.max(initial=0)) + 1
    keys = _lex_keys(sm.exps, largest)
    units = _lex_keys(np.eye(n, dtype=np.int64), largest)
    sizes = np.count_nonzero(sm.members, axis=1)
    blocks = []
    for c in sorted(set(sizes[sizes >= i].tolist())):
        at = np.flatnonzero(sizes == c)
        # Row-major order lists each row's columns in ascending order.
        sets = np.nonzero(sm.members[at])[1].reshape(-1, c)
        selector = _subset_sums(range(c), c, i).T
        blocks.append([(key[at, None] + unit[sets] @ selector).ravel() for key, unit in zip(keys, units)])
    if not blocks:
        return MonomialIdeal.zero(n)
    candidates = [np.concatenate(parts) for parts in zip(*blocks)]
    return _ideal_from_keys(n, _distinct_keys(candidates), largest)


@lru_cache(maxsize=None)
def hs_power(g: Graph, i: int, s: int) -> MonomialIdeal:
    """HS_i of the s-th power of the complementary edge ideal of g.

    Computed via linear quotients in g's own labels, in the generator
    order of ``power_generators``.
    """
    if not is_connected(g):
        raise PreconditionError("homological shifts require a connected graph")
    if s < 0:
        return MonomialIdeal.zero(g.n)
    if s == 0:
        return MonomialIdeal.unit(g.n) if i == 0 else MonomialIdeal.zero(g.n)
    return hs_linear_quotients(power_set_map(g, s), i)


def hs1_via_lcm(ideal: MonomialIdeal) -> MonomialIdeal:
    """HS_1 as the ideal of pairwise lcms of distinct generators."""
    if ideal.num_gens() < 2:
        return MonomialIdeal.zero(ideal.n)
    lcms = (u.lcm(v) for u, v in combinations(ideal.gens, 2))
    return MonomialIdeal(ideal.n, tuple(lcms))


def hs1_formula(g: Graph) -> MonomialIdeal:
    """HS_1 of a complementary edge ideal: the ``_subset_sums`` rows alpha / x_v, v of degree >= 2."""
    if not is_connected(g):
        raise PreconditionError("the HS_1 formula requires a connected graph")
    heavy = [v - 1 for v in g.vertices() if g.degree(v) >= 2]
    return _ideal_from_rows(g.n, 1 - _subset_sums(heavy, g.n, 1))


def hs1_power_identity_check(g: Graph, s: int) -> bool:
    """Whether HS_1(I^{s+1}) equals I^s * HS_1(I)."""
    if s < 0:
        raise PreconditionError("power must be non-negative")
    lhs = hs_power(g, 1, s + 1)
    rhs = comp_power_ideal(g, s) * hs_power(g, 1, 1)
    return lhs == rhs


def _tree_parents(t: Graph, i: int) -> list[int]:
    """The columns phi(k) - 1 over the non-root vertices k in ascending order, once the index is checked.

    The root is the largest leaf r; the non-root vertices are all but r
    and its neighbor, and phi(k) is the neighbor of k one step closer to
    r.  On an admissibly labeled tree they are [n-2] and phi is the parent
    map.  The index must lie in [0, n - 2].
    """
    n = t.n
    dist = _distances_from(t, max((v for v in t.vertices() if t.degree(v) == 1), default=1))
    # n - 1 edges reaching all n vertices from one root: a tree.
    if len(t.edges) != n - 1 or len(dist) != n:
        raise PreconditionError("the tree formulas require a tree")
    if i < 0 or i > n - 2:
        raise PreconditionError(f"index {i} outside [0, {n - 2}]")
    return [next(v for v in t.neighbors(k) if dist[v] < dist[k]) - 1 for k in t.vertices() if dist[k] > 1]


def j_ideal(t: Graph, i: int) -> MonomialIdeal:
    """The ideal of alpha^i / prod_{k in F} x_phi(k) over i-subsets F of the non-root vertices."""
    return _ideal_from_rows(t.n, i - _subset_sums(_tree_parents(t, i), t.n, i))


def k_ideal(t: Graph, i: int) -> MonomialIdeal:
    """The ideal of prod_{k in F} x_phi(k) over i-subsets F of the non-root vertices; K_0 = S."""
    return _ideal_from_rows(t.n, _subset_sums(_tree_parents(t, i), t.n, i))


def hs_tree_formula(t: Graph, i: int, s: int) -> MonomialIdeal:
    """The tree closed form I^{s-i} * J_i, valid for 1 <= i <= s."""
    if not is_tree(t):
        raise PreconditionError("the tree formula requires a tree")
    if not 1 <= i <= s:
        raise PreconditionError(f"tree formula needs 1 <= i <= s, got i={i}, s={s}")
    if i > t.n - 2:
        return MonomialIdeal.zero(t.n)
    return comp_power_ideal(t, s - i) * j_ideal(t, i)


def hs_cycle_formula(c: Graph, i: int, s: int) -> MonomialIdeal:
    """The cycle closed form, valid for 1 <= i < n and s >= floor(i/2)."""
    if not is_cycle_graph(c):
        raise PreconditionError("the cycle formula requires a cycle")
    n = c.n
    if not 1 <= i < n:
        raise PreconditionError(f"cycle formula needs 1 <= i < n, got i={i}")
    if s < i // 2:
        raise PreconditionError(f"cycle formula needs s >= floor(i/2), got s={s}")
    factors = []
    for k in range(max(i - (n - 1) // 2, 0), i // 2 + 1):
        power = comp_power_ideal(c, s - i + k)
        if power.is_zero():
            continue
        # alpha^{i-k} / x_F for every (i-2k)-subset F of the vertices.
        factors.append((power.exps, i - k - _subset_sums(range(n), n, i - 2 * k)))
    if not factors:
        return MonomialIdeal.zero(n)
    # One key width for every term, so the terms' product keys sort together.
    largest = max(int(a.max(initial=0)) + int(b.max(initial=0)) for a, b in factors)
    terms = [_product_keys(a, b, largest) for a, b in factors]
    keys = _distinct_keys([np.concatenate(parts) for parts in zip(*terms)])
    # Every term has degree (n-2)s + i, so the rows need no minimalizing.
    return _ideal_from_keys(n, keys, largest)


def hs_cycle_top(c: Graph, s: int) -> MonomialIdeal:
    """The top nonvanishing shift ideal of a cycle power as alpha-power times a power.

    With l = (n - 1) // 2 this is HS_{2l}(I^s) = alpha^l * I^{s-l} for
    s >= l: l = m for odd n = 2m+1 and l = m-1 for even n = 2m.
    """
    if not is_cycle_graph(c):
        raise PreconditionError("the top shift formula requires a cycle")
    threshold = (c.n - 1) // 2
    if s < threshold:
        raise PreconditionError(f"top shift formula needs s >= {threshold}, got {s}")
    return comp_power_ideal(c, s - threshold).scaled(Monomial.uniform(c.n, threshold))


class MaximalIdentityResult(NamedTuple):
    verdict: bool
    hs_i: MonomialIdeal
    hs_prev_of_max_multiple: MonomialIdeal
    target: MonomialIdeal


def check_hs_maximal_identity(
    ideal: MonomialIdeal, i: int, set_map: SetMap | None = None
) -> MaximalIdentityResult:
    """Check HS_i(I) + HS_{i-1}(m*I) = m^[i] * I for an ideal with linear resolution.

    HS_i(I) comes from the set map when one is supplied, otherwise from the
    Betti oracle; HS_{i-1}(m*I) always goes through the oracle.  At i = n
    this degenerates to HS_{n-1}(m*I) = m^[n] * I.
    """
    n = ideal.n
    if not 1 <= i <= n:
        raise PreconditionError(f"index {i} outside [1, {n}]")
    hs_i = (
        hs_linear_quotients(set_map, i) if set_map is not None else hs_oracle(ideal, i)
    )
    m_ideal = maximal_ideal(n) * ideal
    hs_prev = hs_oracle(m_ideal, i - 1)
    target = squarefree_power_of_maximal(n, i) * ideal
    return MaximalIdentityResult(hs_i + hs_prev == target, hs_i, hs_prev, target)


def veronese_structure_check(t: LabeledTree, i: int) -> bool:
    """Verify the Veronese structure of the tree shift building blocks.

    Checks that (i) K_i equals the Veronese-type ideal capped by the
    parent-fiber sizes b_k = |phi^{-1}(k)|, (ii) the cleared identity
    x^b * J_i = alpha^i * K_{n-2-i} holds, and (iii) J_i has the strong
    exchange property.
    """
    return _veronese_structure(t, i)[0]


def _veronese_structure(t: LabeledTree, i: int) -> tuple[bool, MonomialIdeal, MonomialIdeal]:
    """The verdict of ``veronese_structure_check`` and the blocks J_i, K_i it checked.

    All three blocks are ``_subset_sums`` over one parent map phi on [n-2],
    read by ``_tree_parents``; b counts the fibers of phi, and the cleared
    identity compares b + J_i with i + K_{n-2-i} as rows.
    """
    n = t.n
    if not 1 <= i <= n - 2:
        raise PreconditionError(f"index {i} outside [1, {n - 2}]")
    phi = _tree_parents(t.graph, i)
    b = np.bincount(phi, minlength=n)
    sums = _subset_sums(phi, n, i)
    j, k = _ideal_from_rows(n, i - sums), _ideal_from_rows(n, sums)
    ok_veronese = k == veronese_type(VeroneseSpec(tuple(b.tolist()), i))
    ok_cleared = _ideal_from_rows(n, b + j.exps) == _ideal_from_rows(n, i + _subset_sums(phi, n, n - 2 - i))
    ok_exchange = has_strong_exchange(j)
    return ok_veronese and ok_cleared and ok_exchange, j, k


def _embed_veronese(spec: VeroneseSpec, t: LabeledTree) -> MonomialIdeal:
    """Lift the Veronese ideal into the caterpillar's ring via its spine vertices."""
    spine = [total + 1 for total in accumulate(spec.caps)]
    return rename_variables(veronese_type(spec), spine, t.n)


def caterpillar_realization(
    spec: VeroneseSpec,
) -> tuple[LabeledTree, Monomial, bool]:
    """Realize a Veronese-type ideal as a shift ideal of a caterpillar tree.

    Builds the caterpillar T for the cap profile, takes
    H = HS_{|a|-d}(I_c(T)^{|a|-d}) from ``hs_closed_form``, and compares the
    content-free core of H with that of the Veronese ideal embedded along the
    spine.  Returns (T, content of H, verdict).  Core comparison is used
    because the two sides agree up to a monomial factor that can carry
    negative exponents when some cap exceeds |a| - d.
    """
    caps = spec.caps
    if any(a < 1 for a in caps):
        raise PreconditionError(f"caterpillar profile needs positive caps: {caps}")
    if not 1 <= spec.degree <= sum(caps):
        raise PreconditionError(
            f"degree {spec.degree} outside [1, {sum(caps)}]"
        )
    t = caterpillar_from_profile(caps)
    i = sum(caps) - spec.degree
    content, core = divide_out(hs_closed_form(t.graph, i, i))
    _, veronese_core = divide_out(_embed_veronese(spec, t))
    return t, content, core == veronese_core


def generation_degree_profile(g: Graph, i: int, s_max: int) -> list[int]:
    """Powers s <= s_max where HS_i(I^s) strictly exceeds I * HS_i(I^{s-1}).

    These are the degrees contributing new module generators to the i-th
    shift module over the powers of I.  The containment
    I * HS_i(I^{s-1}) <= HS_i(I^s) is asserted along the way.
    """
    ideal = comp_edge_ideal(g)
    previous = hs_power(g, i, 0)
    degrees = []
    for s in range(1, s_max + 1):
        current = hs_power(g, i, s)
        base = ideal * previous
        if not base.is_contained_in(current):
            raise AssertionError(f"shift module containment failed at s={s}")
        if current != base:
            degrees.append(s)
        previous = current
    return degrees


def hs_subgraph_containment_check(
    g: Graph,
    h_vertices: Iterable[int],
    h_edges: Iterable[tuple[int, int]],
    i: int,
    s: int,
) -> bool:
    """Whether u^s * HS_i(I_c(H)^s) lies in HS_i(I_c(G)^s).

    H is a connected subgraph of g on the given vertices; u is the product
    of the variables outside V(H).  H's shift ideal is computed in its own
    compressed ring and re-embedded by padding exponents with zeros.
    """
    vs = sorted(set(h_vertices))
    if any(not 1 <= v <= g.n for v in vs):
        raise PreconditionError("subgraph vertices outside the host graph")
    pos = {v: idx + 1 for idx, v in enumerate(vs)}
    edges = [tuple(e) for e in h_edges]
    for a, b in edges:
        if not g.has_edge(a, b) or a not in pos or b not in pos:
            raise PreconditionError(f"edge ({a}, {b}) is not a subgraph edge")
    h = Graph(len(vs), [(pos[a], pos[b]) for a, b in edges])
    if not is_connected(h):
        raise PreconditionError("the subgraph must be connected")
    hs_h = hs_power(h, i, s)
    outside = Monomial.from_support(g.n, set(g.vertices()) - set(vs)) ** s
    lifted = rename_variables(hs_h, vs, g.n).scaled(outside)
    return lifted.is_contained_in(hs_power(g, i, s))


def hs_closed_form(g: Graph, i: int, s: int) -> MonomialIdeal | None:
    """Closed-form HS_i(I^s) for trees and cycles, in g's own labels.

    Returns None when g is neither a tree nor a cycle, or when (i, s) sits
    outside the proven range of the respective formula; callers fall back
    to hs_power in that case.  i = 0 always returns the power itself.  A
    positive power of a graph without edges raises PreconditionError, as
    in hs_power.
    """
    if s < 0:
        return MonomialIdeal.zero(g.n)
    if i == 0:
        return comp_power_ideal(g, s)
    if s == 0:
        return MonomialIdeal.zero(g.n)
    if not g.edges:
        raise PreconditionError("power generators need at least one edge")
    if is_tree(g):
        return hs_tree_formula(g, i, s) if 1 <= i <= s else None
    if is_cycle_graph(g):
        return hs_cycle_formula(g, i, s) if 1 <= i < g.n and s >= i // 2 else None
    return None
