"""Edge and complementary edge ideals, their powers, set maps, and pd functions.

The complementary edge ideal of a graph on [n] is generated by
x1*...*xn / (xj*xk) over the edges {j, k}.  Every generator of its s-th
power is (x1*...*xn)^s divided by a product of s edges.  The generators
of a power are held in one form, a read-only exponent matrix beside the
kept edge multisets.  When the vertex labels make every suffix
{i+1, ..., n} induce a connected subgraph, all powers have linear
quotients in descending lex order, and set(u) collects the variables
generating each successive colon ideal.  Any connected graph is worked on
in its own labels: the variable order is descending lex under the
permutation of ``lex_labeled_copy(g)``, which is x1 > ... > xn when the
labels are already suffix-connected.

Both steps key monomials by exact integers, never by exponent tuples.
Powers are enumerated once per edge multiset, walked as tuples of edge
indices and keyed by its degree vector read as a base-(s + 1) number
(each degree at most s, digits in the variable order); ascending keys
are then descending lex order, and the first multiset per key is kept.
One numpy step turns the kept multisets into the exponent matrix, s
minus the sum of their edges' incidence rows, which the colon sweep and
I^s read as it is.  Set maps come from one sort of the drops u / x_k of
all generators, keyed by the bit-packed ``_lex_keys`` of u minus those
of x_k: u_t / x_j = u / x_k exactly when u_t = (u / x_k) * x_j, so each
run of equal keys pairs every generator with the earlier ones that put
a variable into its set.  Row bitsets then confirm that every colon is
generated by those variables: per variable j and exponent e, one Python
int marks the generators exceeding e in x_j, built once per set map
with ``np.packbits``, so each generator's check is a few integer ORs.
A set map holds two read-only arrays, the exponent matrix and the bool
matrix whose row r marks the variables of set(u_r), and nothing else;
HS_i and pd read them, and each read of ``gens`` or ``sets`` builds its
Monomials or frozensets anew.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement

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
    _distinct_keys,
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


def _check_power_args(g: Graph, s: int) -> None:
    if s < 1:
        raise PreconditionError("power must be at least 1")
    if not g.edges:
        raise PreconditionError("power generators need at least one edge")
    if not is_connected(g):
        raise PreconditionError("the power enumeration requires a connected graph")


class PowerGenerators:
    """The generators of a power, in enumeration order, held as arrays.

    ``exps`` is the read-only exponent matrix, one row per generator, in
    the smallest unsigned dtype that fits, and ``len`` counts its rows.
    ``edge_multisets()`` lists each row's edges in sorted order, repeats
    included, without building a Monomial.
    """

    __slots__ = ("exps", "_edges", "_multisets")

    def __init__(self, exps: np.ndarray, edges: tuple[Edge, ...], multisets: np.ndarray):
        # multisets[r] holds the sorted indices into ``edges`` of row r's edges.
        self.exps, self._edges, self._multisets = exps, edges, multisets

    def __len__(self) -> int:
        return len(self.exps)

    def edge_multisets(self) -> list[tuple[Edge, ...]]:
        """Each generator's edges in sorted order, repeats included, one tuple per row."""
        columns = (map(self._edges.__getitem__, col) for col in self._multisets.T.tolist())
        return list(zip(*columns))


@lru_cache(maxsize=None)
def power_generators(g: Graph, s: int) -> PowerGenerators:
    """The distinct minimal generators of the s-th power, one edge multiset each.

    Everything stays in g's labels; only the variable order comes from the
    permutation perm of ``lex_labeled_copy(g)``: monomials are listed in
    descending lex order of their images under perm, which is x1 > ... > xn
    for suffix-connected labels.  The result holds the exponent matrix and
    the kept multisets, one row each.

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
    reached.  Multisets are walked as tuples of indices into ``g.edges``,
    and one numpy step subtracts the kept rows of the edge incidence
    matrix from s.
    """
    _check_power_args(g, s)
    _, perm = lex_labeled_copy(g)
    vertex = {v: (s + 1) ** (g.n - perm[v - 1]) for v in g.vertices()}
    weight = [vertex[a] + vertex[b] for a, b in g.edges]
    order = sorted(range(len(g.edges)), key=weight.__getitem__, reverse=True)
    keys = map(sum, combinations_with_replacement([weight[e] for e in order], s))
    first: dict[int, tuple[int, ...]] = {}
    for _ in map(first.setdefault, keys, combinations_with_replacement(order, s)):
        pass
    flat = chain.from_iterable(map(first.__getitem__, sorted(first)))
    kept = np.fromiter(flat, dtype=np.intp, count=len(first) * s).reshape(len(first), s)
    # Degrees are at most s, so every sum fits the dtype of s.
    incidence = np.zeros((len(g.edges), g.n), dtype=np.min_scalar_type(s))
    incidence[np.arange(len(g.edges))[:, None], np.array(g.edges) - 1] = 1
    exps = _frozen_rows(s - incidence[kept].sum(axis=1, dtype=incidence.dtype))
    # Indices into the sorted g.edges sort like the edges themselves.
    multisets = np.sort(kept, axis=1).astype(np.min_scalar_type(len(g.edges) - 1))
    return PowerGenerators(exps, g.edges, multisets)


@dataclass(frozen=True, eq=False)
class SetMap:
    """Ordered generators of an ideal with linear quotients and their set(u), as two arrays.

    ``exps`` is the generators' exponent matrix, a 2-D non-negative integer
    array with one row each in order, and ``members`` the bool matrix of its
    shape with ``members[r, j]`` true when x_{j+1} lies in set(u_r); other
    arrays raise ValueError.  Both are read-only and all a set map keeps:
    ``gens`` and ``sets`` are built anew on each read.  Equality and
    hashing are by identity.
    """

    exps: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        exps = self.exps
        integer = isinstance(exps, np.ndarray) and exps.ndim == 2 and exps.dtype.kind in "iu"
        if not integer or np.count_nonzero(exps < 0):
            raise ValueError(f"exps must be a 2-D non-negative integer array, got {exps!r}")
        if getattr(self.members, "dtype", None) != bool or self.members.shape != exps.shape:
            raise ValueError(f"members must be a bool array of shape {exps.shape}")

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The generators as Monomials, a new tuple built from ``exps`` on each read."""
        return Monomial._wrap_all(self.exps)

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        """Each set(u) as a frozenset of 1-based variables, built anew from ``members`` on each read.

        Generators with the same set(u) share one frozenset.
        """
        masks = _bit_rows(self.members)
        shared = {m: frozenset(j + 1 for j in range(self.n) if m >> j & 1) for m in set(masks)}
        return tuple(map(shared.__getitem__, masks))

    @property
    def n(self) -> int:
        return self.exps.shape[1]


def _above_bitsets(rows: np.ndarray) -> list[dict[int, int]]:
    """Per column j and value e of that column, the rows t with rows[t, j] > e as an int.

    Bit t of ``above[j][e]`` is set when rows[t, j] > e.  Keys are the
    distinct values of each column, so the bitsets take at most
    n * (distinct values per column) * N bits for N rows in n columns.
    """
    above = []
    for col in rows.T:
        values = sorted(set(col.tolist()))
        # Compared in the column's own dtype, so the column is not cast.
        cuts = np.array(values, dtype=col.dtype)[:, None]
        above.append(dict(zip(values, _bit_rows(col[None, :] > cuts))))
    return above


def set_map_colon(ordered: Iterable[Monomial]) -> SetMap:
    """Compute set(u) for each generator from the successive colon ideals.

    The generators must be pairwise distinct (ValueError otherwise) and all
    of one degree (PreconditionError otherwise).  Then u_t / gcd(u_t, u) has
    degree 1 exactly when u_t = (u / x_k) * x_j, that is when u and u_t
    have the same drop u / x_k = u_t / x_j.  One sort finds every such
    pair: each drop is keyed by the packed ``_lex_keys`` of its row minus
    those of the unit row x_k (the keys are linear in the row, so no drop
    row is built).  One stable sort of the (drop, row) pairs, listed in
    row-major order, by key alone leaves each run's rows ascending.  A run
    of equal keys holds at most n pairs, one per k; each later row of a
    run gets the k of every earlier pair in its set.  One vectorized step
    per offset within the runs does this, exact at any n and exponent
    size.  The set map keeps the generators' exponent matrix and the bool
    matrix of their sets.

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
    exps = _exponent_matrix(gens, gens[0].n if gens else 0)
    return SetMap(_frozen_rows(exps), _set_map_rows(exps))


def _set_map_rows(exps: np.ndarray) -> np.ndarray:
    """The read-only bool matrix of set(u) for the rows of an exponent matrix, as ``set_map_colon`` finds it.

    The rows are the generators in their given order, with non-negative
    entries within int64; entry (r, j) is true when x_{j+1} is in set(u_r).
    The drops are sorted by their keys alone: the pairs come in row-major
    order and the sort is stable, so each run lists its rows ascending.
    Raises as ``set_map_colon`` does; the NotLinearQuotientsError carries
    the failing row as a Monomial.
    """
    n = exps.shape[1]
    largest = int(exps.max(initial=0))
    keys = _lex_keys(exps, largest)
    if len(_distinct_keys(keys)[0]) < len(exps):
        raise ValueError("ordered generators must be pairwise distinct")
    found = np.zeros(exps.shape, dtype=bool)
    if not len(exps):
        found.flags.writeable = False
        return found
    degrees = _row_degrees(exps, largest)
    if np.count_nonzero(degrees != degrees[0]):
        raise PreconditionError("set_map_colon needs generators of a single degree")
    # One (row, k) pair per drop u / x_k, in row-major order.
    row, col = np.nonzero(exps)
    units = _lex_keys(np.eye(n, dtype=np.int64), largest)
    drops = [key[row] - unit[col] for key, unit in zip(keys, units)]
    order = np.lexsort(drops[::-1])
    row, col = row[order], col[order]
    # same[p]: sorted pairs p and p + 1 have the same drop, so they lie in one run.
    same = np.ones(max(len(row) - 1, 0), dtype=bool)
    for drop in drops:
        drop = drop[order]
        same &= drop[1:] == drop[:-1]
    # link[p]: sorted pairs p and p + d lie in one run, so x_col[p] is in set(u_row[p + d]).
    link, d = same, 1
    while link.any():
        found[row[d:][link], col[:-d][link]] = True
        link, d = link[:-1] & same[d:], d + 1
    above = _above_bitsets(exps)
    # The columns of each distinct set(u), keyed by its bitmask.
    shared: dict[int, list[int]] = {}
    # One list per column, not one per row: entry (i, j) is columns[j][i].
    columns = exps.T.tolist()
    for i, mask in enumerate(_bit_rows(found)):
        if mask not in shared:
            shared[mask] = [j for j in range(n) if mask >> j & 1]
        # Linear quotients: every earlier u_t exceeds u in some variable of set(u).
        covered = 0
        for j in shared[mask]:
            covered |= above[j][columns[j][i]]
        earlier = (1 << i) - 1
        if covered & earlier != earlier:
            raise NotLinearQuotientsError(i, Monomial(exps[i].tolist()))
    found.flags.writeable = False
    return found


def set_via_even_connected(g: Graph, edges: tuple[Edge, ...]) -> frozenset[int]:
    """set(u) computed combinatorially from adjacency and even-connected walks.

    For u = alpha^s / (product of ``edges``), a vertex i qualifies when some
    edge {i, j} of the list admits a k > i with {j, k} an edge of g or j
    even-connected to k with respect to the remaining edges.  One pass over
    the distinct edges tests both ends of each, and one walk search per
    (i, j) looks for any end vertex above i at once.
    """
    edges = _check_multiset(g, edges)
    result = set()
    for p, e in enumerate(edges):
        if p and e == edges[p - 1]:
            continue
        rest = edges[:p] + edges[p + 1 :]
        for i, j in (e, e[::-1]):
            # No vertex lies above n, so n never qualifies; neighbors are sorted.
            if i in result or i == g.n:
                continue
            if g.neighbors(j)[-1] > i or _even_walk(g, j, lambda v: v > i, rest) is not None:
                result.add(i)
    return frozenset(result)


def set_tree(t: LabeledTree, edges: tuple[Edge, ...]) -> frozenset[int]:
    """set(u) for a tree power generator: edge minima, excluding n - 1."""
    edges = _check_multiset(t.graph, edges)
    mins = {min(e) for e in edges}
    mins.discard(t.n - 1)
    return frozenset(mins)


def set_cycle(c: CycleLabeling, edges: tuple[Edge, ...]) -> frozenset[int]:
    """set(u) for a cycle power generator from the two alternating edge chains.

    Each chain, e1, e3, ... and e0, e2, ..., counts its leading edges in
    the support, up to (n - 1) // 2; a count of l gives [2l] on the first
    chain and [2l - 1] on the second.  Edge minima (minus n - 1) give the rest.
    """
    edges = _check_multiset(c.graph, edges)
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
    if not len(sm.exps):
        raise PreconditionError("projective dimension of the zero ideal is undefined")
    return int(np.count_nonzero(sm.members, axis=1).max())


@lru_cache(maxsize=None)
def power_set_map(g: Graph, s: int) -> SetMap:
    """Set map of the s-th power in the order of ``power_generators``; cached per (g, s).

    The order has linear quotients for every connected g, so the sets are
    in g's own labels.  The set map keeps the generators' exponent matrix
    as its ``exps``; no Monomial is built.
    """
    exps = power_generators(g, s).exps
    return SetMap(exps, _set_map_rows(exps))


def comp_power_ideal(g: Graph, s: int) -> MonomialIdeal:
    """The s-th power of the complementary edge ideal via edge-multiset enumeration."""
    if s < 0:
        return MonomialIdeal.zero(g.n)
    if s == 0:
        return MonomialIdeal.unit(g.n)
    # The generators come in the lex order of lex_labeled_copy's labels, not of g's own.
    return _ideal_from_rows(g.n, power_generators(g, s).exps)


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
