"""Edge and complementary edge ideals, their powers, set maps, and pd functions.

The complementary edge ideal of a graph on [n] is generated by
x1*...*xn / (xj*xk) over the edges {j, k}.  Every generator of its s-th
power is (x1*...*xn)^s divided by a product of s edges; a Factorization
pairs the monomial with one such edge list.  When the vertex labels make every
suffix {i+1, ..., n} induce a connected subgraph, all powers have linear
quotients in descending lex order, and set(u) collects the variables
generating each successive colon ideal.  Any connected graph is worked on
in its own labels: the variable order is descending lex under the
permutation of ``lex_labeled_copy(g)``, which is x1 > ... > xn when the
labels are already suffix-connected.

Both steps key monomials by exact integers, never by exponent tuples: a
vector with entries at most b - 1 is read as a base-b number.  Powers are
enumerated once per edge multiset, keyed by its degree vector (each degree
at most s, so base s + 1, digits in the variable order); ascending keys
are then descending lex order, and the first multiset per key is kept.
Set maps come from one sort of the drops u / x_k of all generators, keyed
by the packed ``_lex_keys`` of u minus those of x_k: u_t / x_j = u / x_k
exactly when u_t = (u / x_k) * x_j, so each run of equal keys pairs every
generator with the earlier ones that put a variable into its set.  Row
bitsets then confirm that every colon is generated by those variables:
per variable j and exponent e, one Python int marks the generators
exceeding e in x_j, built once per set map with ``np.packbits``, so each
generator's check is a few integer ORs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import Iterable

import numpy as np

from .errors import NotLinearQuotientsError, PreconditionError
from .graphs import (
    CycleLabeling,
    Edge,
    Graph,
    LabeledTree,
    _check_multiset,
    _even_walk,
    is_connected,
    is_cycle_graph,
    is_tree,
    lex_labeled_copy,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    _bit_rows,
    _distinct_rows,
    _exponent_matrix,
    _frozen_rows,
    _ideal_from_rows,
    _lex_keys,
    _row_degrees,
)


def comp_edge_ideal(g: Graph) -> MonomialIdeal:
    """The complementary edge ideal, generated in degree n - 2."""
    if not g.edges:
        raise PreconditionError("complementary edge ideal needs at least one edge")
    alpha = Monomial.uniform(g.n, 1)
    gens = (alpha / Monomial.from_support(g.n, e) for e in g.edges)
    return MonomialIdeal(g.n, tuple(gens))


def _power_exponents(g: Graph, multiset: tuple) -> tuple[int, ...]:
    """Exponents of alpha^s divided by the product of the s edges in ``multiset``."""
    s = len(multiset)
    exps = [s] * g.n
    for a, b in multiset:
        exps[a - 1] -= 1
        exps[b - 1] -= 1
    return tuple(exps)


@dataclass(frozen=True, slots=True)
class Factorization:
    """A power generator: alpha^s divided by the product of the s edges in ``edges``.

    ``edges`` lists edges of the graph in sorted order, repeats included.
    """

    monomial: Monomial
    edges: tuple[Edge, ...]


def _check_power_args(g: Graph, s: int) -> None:
    if s < 1:
        raise PreconditionError("power must be at least 1")
    if not g.edges:
        raise PreconditionError("power generators need at least one edge")
    if not is_connected(g):
        raise PreconditionError("power generators require a connected graph")


@lru_cache(maxsize=None)
def power_generators(g: Graph, s: int) -> tuple[Factorization, ...]:
    """One Factorization per distinct minimal generator of the s-th power.

    Everything stays in g's labels; only the variable order comes from the
    permutation perm of ``lex_labeled_copy(g)``: monomials are listed in
    descending lex order of their images under perm, which is x1 > ... > xn
    for suffix-connected labels.

    Each edge multiset M is keyed by an exact integer: vertex v weighs
    (s+1)^(n - perm[v]), an edge weighs the sum of its two ends, and M the
    sum of its edges.  The key is then the degree vector of M (each degree
    at most s) written in base s+1 with digits in perm order, so it is
    unique per monomial, and since x_v has exponent s minus the degree of
    v, ascending keys are descending lex order of the monomials.
    Distinct multisets can collide on the same monomial (e.g. the two
    alternating perfect matchings of an even cycle); the multiset whose
    image under perm is lexicographically smallest is kept as the canonical
    expression.  Enumerating the edges by descending weight, which is
    ascending lex order of their images, makes that the first multiset
    reached.
    """
    _check_power_args(g, s)
    _, perm = lex_labeled_copy(g)
    vertex = {v: (s + 1) ** (g.n - perm[v - 1]) for v in g.vertices()}
    weight = {(a, b): vertex[a] + vertex[b] for a, b in g.edges}
    edges = sorted(g.edges, key=weight.__getitem__, reverse=True)
    keys = map(sum, combinations_with_replacement([weight[e] for e in edges], s))
    first: dict[int, tuple[Edge, ...]] = {}
    for _ in map(first.setdefault, keys, combinations_with_replacement(edges, s)):
        pass
    kept = [first[key] for key in sorted(first)]
    monomials = Monomial._wrap_all([_power_exponents(g, multiset) for multiset in kept])
    return tuple(
        Factorization(m, tuple(sorted(multiset))) for m, multiset in zip(monomials, kept)
    )


@dataclass(frozen=True)
class SetMap:
    """Ordered generators of an ideal with linear quotients and their set(u)."""

    gens: tuple[Monomial, ...]
    sets: tuple[frozenset[int], ...]

    @cached_property
    def exps(self) -> np.ndarray:
        """The generators' exponent matrix, one row per generator, read-only.

        Built on first use and kept in the smallest unsigned dtype that fits,
        since cached set maps live for the whole process.  Not a field, so it
        takes no part in equality, hashing or repr.
        """
        return _frozen_rows(_exponent_matrix(self.gens, self.n))

    @cached_property
    def set_columns(self) -> np.ndarray:
        """Each set(u) as its sorted 0-based columns, one row per generator, read-only.

        Rows shorter than the largest set(u) are padded with -1.  Built on
        first use in the smallest signed dtype that fits and, like ``exps``,
        not a field.
        """
        width = max(map(len, self.sets), default=0)
        # Padding with 0 before the shift to 0-based columns makes it -1.
        padded = {su: sorted(su) + [0] * (width - len(su)) for su in set(self.sets)}
        cols = np.array(
            [padded[su] for su in self.sets], dtype=np.min_scalar_type(-max(self.n, 1))
        ).reshape(len(self.sets), width)
        cols -= 1
        cols.flags.writeable = False
        return cols

    @property
    def n(self) -> int:
        return self.gens[0].n if self.gens else 0

    def items(self):
        return zip(self.gens, self.sets)


def _above_bitsets(rows: np.ndarray) -> list[dict[int, int]]:
    """Per column j and value e of that column, the rows t with rows[t, j] > e as an int.

    Bit t of ``above[j][e]`` is set when rows[t, j] > e.  Keys are the
    distinct values of each column, so the bitsets take at most
    n * (distinct values per column) * N bits for N rows in n columns.
    """
    above = []
    for col in rows.T:
        values = sorted(set(col.tolist()))
        above.append(dict(zip(values, _bit_rows(col[None, :] > np.array(values)[:, None]))))
    return above


def set_map_colon(ordered: Iterable[Monomial]) -> SetMap:
    """Compute set(u) for each generator from the successive colon ideals.

    The generators must be pairwise distinct (ValueError otherwise) and all
    of one degree (PreconditionError otherwise).  Then u_t / gcd(u_t, u) has
    degree 1 exactly when u_t = (u / x_k) * x_j, that is when u and u_t
    have the same drop u / x_k = u_t / x_j.  One sort finds every such
    pair: each drop is keyed by the packed ``_lex_keys`` of its row minus
    those of the unit row x_k (the keys are linear in the row, so no drop
    row is built), and the (drop, row) pairs are sorted by key, then by row.
    A run of equal keys holds at most n pairs, one per k, with rows
    ascending; each later row of a run gets the k of every earlier pair in
    its set.  One vectorized step per offset within the runs does this,
    exact at any n and exponent size.  Generators with the same set(u)
    share one frozenset.

    Verifies the linear-quotients property along the way: each colon
    (u_1, ..., u_{i-1}) : (u_i) must be generated by variables, i.e. every
    earlier u_t must exceed u_i in some variable of set(u_i).  Row bitsets
    built once per call decide this for all t < i at once: ``above[j][e]``
    has bit t set when u_t[j] > e, and row i passes when the OR of
    ``above[j][u_i[j]]`` over j in set(u_i) covers bits 0..i-1.  The
    bitsets take at most n * (distinct values per column) * N bits for N
    generators in n variables.  Raises NotLinearQuotientsError at the
    first row that fails.
    """
    gens = tuple(ordered)
    if len({g.n for g in gens}) > 1:
        raise ValueError("ambient variable counts differ")
    n = gens[0].n if gens else 0
    exps = _exponent_matrix(gens, n)
    largest = int(exps.max(initial=0))
    if len(_distinct_rows(exps, largest)) < len(gens):
        raise ValueError("ordered generators must be pairwise distinct")
    if not gens:
        return SetMap((), ())
    degrees = _row_degrees(exps, largest)
    if np.count_nonzero(degrees != degrees[0]):
        raise PreconditionError("set_map_colon needs generators of a single degree")
    # One (row, k) pair per drop u / x_k, in row-major order.
    row, col = np.nonzero(exps)
    units = _lex_keys(np.eye(n, dtype=np.int64), largest)
    drops = [key[row] - unit[col] for key, unit in zip(_lex_keys(exps, largest), units)]
    order = np.lexsort([row, *drops])
    row, col = row[order], col[order]
    # same[p]: sorted pairs p and p + 1 have the same drop, so they lie in one run.
    same = np.ones(max(len(row) - 1, 0), dtype=bool)
    for drop in drops:
        drop = drop[order]
        same &= drop[1:] == drop[:-1]
    # link[p]: sorted pairs p and p + d lie in one run, so x_col[p] is in set(u_row[p + d]).
    found = np.zeros(exps.shape, dtype=bool)
    link, d = same, 1
    while link.any():
        found[row[d:][link], col[:-d][link]] = True
        link, d = link[:-1] & same[d:], d + 1
    above = _above_bitsets(exps)
    # The columns and the frozenset of each distinct set(u), keyed by its bitmask.
    shared: dict[int, tuple[list[int], frozenset[int]]] = {}
    sets: list[frozenset[int]] = []
    for i, (g, mask) in enumerate(zip(gens, _bit_rows(found))):
        if mask not in shared:
            cols = [j for j in range(n) if mask >> j & 1]
            shared[mask] = cols, frozenset(j + 1 for j in cols)
        cols, su = shared[mask]
        # Linear quotients: every earlier u_t exceeds u in some variable of set(u).
        u = g.exps
        covered = 0
        for j in cols:
            covered |= above[j][u[j]]
        earlier = (1 << i) - 1
        if covered & earlier != earlier:
            raise NotLinearQuotientsError(i, g)
        sets.append(su)
    return SetMap(gens, tuple(sets))


def set_via_even_connected(g: Graph, edges: tuple[Edge, ...]) -> frozenset[int]:
    """set(u) computed combinatorially from adjacency and even-connected walks.

    For u = alpha^s / (product of ``edges``), a vertex i qualifies when some
    edge {i, j} of the list admits a k > i with {j, k} an edge of g or j
    even-connected to k with respect to the remaining edges.  One walk
    search per (i, j) looks for any end vertex above i at once.
    """
    _check_multiset(g, edges)
    support = set(edges)
    result = set()
    # No vertex lies above n, so n never qualifies.
    for i in sorted({v for e in support for v in e} - {g.n}):
        for e in support:
            if i not in e:
                continue
            j = e[0] if e[1] == i else e[1]
            at = edges.index(e)
            rest = edges[:at] + edges[at + 1 :]
            # Neighbors are sorted, so the last one is the largest.
            if g.neighbors(j)[-1] > i or _even_walk(g, j, lambda v: v > i, rest) is not None:
                result.add(i)
                break
    return frozenset(result)


def set_tree(t: LabeledTree, edges: tuple[Edge, ...]) -> frozenset[int]:
    """set(u) for a tree power generator: edge minima, excluding n - 1."""
    _check_multiset(t.graph, edges)
    mins = {min(e) for e in edges}
    mins.discard(t.n - 1)
    return frozenset(mins)


def set_cycle(c: CycleLabeling, edges: tuple[Edge, ...]) -> frozenset[int]:
    """set(u) for a cycle power generator from the two alternating edge chains.

    Each chain, e1, e3, ... and e0, e2, ..., counts its leading edges in
    the support, up to (n - 1) // 2; a count of l gives [2l] on the first
    chain and [2l - 1] on the second.  Edge minima (minus n - 1) give the rest.
    """
    _check_multiset(c.graph, edges)
    support = set(edges)
    cap = (c.n - 1) // 2
    # Chains grow by prefixes, so the first missing edge ends each count.
    odd, even = (
        next((l for l in range(cap) if c.edge(start + 2 * l) not in support), cap)
        for start in (1, 0)
    )
    mins = {min(e) for e in support}
    mins.discard(c.n - 1)
    return frozenset(range(1, max(2 * odd, 2 * even - 1) + 1)) | mins


def pd_linear_quotients(sm: SetMap) -> int:
    """Projective dimension as the largest |set(u)| over the generators."""
    if not sm.gens:
        raise PreconditionError("projective dimension of the zero ideal is undefined")
    return max((len(s) for s in sm.sets), default=0)


@lru_cache(maxsize=None)
def power_set_map(g: Graph, s: int) -> SetMap:
    """Set map of the s-th power in the order of ``power_generators``; cached per (g, s).

    The order has linear quotients for every connected g, so the sets are
    in g's own labels.
    """
    facts = power_generators(g, s)
    return set_map_colon([f.monomial for f in facts])


def comp_power_ideal(g: Graph, s: int) -> MonomialIdeal:
    """The s-th power of the complementary edge ideal via edge-multiset enumeration."""
    if s < 0:
        return MonomialIdeal.zero(g.n)
    if s == 0:
        return MonomialIdeal.unit(g.n)
    # The generators come in the lex order of lex_labeled_copy's labels, not of g's own.
    rows = _exponent_matrix([f.monomial for f in power_generators(g, s)], g.n)
    return _ideal_from_rows(g.n, rows)


def pd_of_power(g: Graph, s: int) -> int:
    """pd of the s-th power for any connected graph."""
    return pd_linear_quotients(power_set_map(g, s))


def pd_formula(g: Graph, s: int) -> int:
    """Closed-form pd of the s-th power for trees and cycles only.

    min(s, n - 2) for trees; min(2s, 2l) for cycles, l = (n - 1) // 2.
    """
    if s < 1:
        raise PreconditionError("power must be at least 1")
    if is_tree(g):
        return min(s, g.n - 2)
    if is_cycle_graph(g):
        return min(2 * s, 2 * ((g.n - 1) // 2))
    raise PreconditionError("closed-form pd is only available for trees and cycles")
