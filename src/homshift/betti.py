"""Brute-force multigraded Betti numbers via upper Koszul simplicial homology.

For a monomial ideal I and a multidegree a, the complex K^a(I) consists of
the subsets F of supp(a) with x^a / x_F in I, and

    beta_{i,a}(I) = rank of the (i-1)-st reduced homology of K^a(I).

Nonzero entries occur only at lcms of generator subsets, so scanning the
lcm lattice recovers every homological shift ideal and the projective
dimension without any reference to linear quotients.  Ranks are exact:
sparse integer elimination over the rationals, on the nonzeros of each
boundary map only.

Both the lattice and the complexes are read from the ideal's exponent
matrix G (``MonomialIdeal.exps``), one row per generator.  The lattice is
closed round by round: the rows first found in the last round are joined
with every row of G by one ``np.maximum``, and one stable sort of the
lattice followed by the joins on their ``_lex_keys`` (``_first_rows``)
drops the joins already seen.  For a lattice element a, the rows u of G
with u <= a are the generators dividing x^a, and each gives the facet
{p : u_p < a_p} (supp(a) minus the variables where u reaches a).
``betti_table`` makes these two comparisons for a block of lattice rows
at once and packs each facet into a Python-int bitmask (bit p for
x_{p+1}, exact for any number of variables).  K^a is the
``SimplicialComplex`` on its set of facet masks, and the homology of
each distinct set is computed once per table: faces are the submasks of
the facets, and each boundary map is ranked once, as one sparse row
{F ^ bit: +-1} per face F.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import OracleCapError
from .monomials import (
    _JOIN_BLOCK,
    Monomial,
    MonomialIdeal,
    _bit_rows,
    _exponent_matrix,
    _first_rows,
)

DEFAULT_GEN_CAP = 60
DEFAULT_LATTICE_CAP = 100_000


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex given by facet bitmasks (bit p for the vertex p + 1).

    The void complex (no facets, so no faces at all) and the empty complex
    (the one facet 0, the empty face) are distinct; both occur as upper
    Koszul complexes.
    """

    facets: frozenset[int]

    def faces_by_dim(self) -> dict[int, list[int]]:
        """Every face mask in ascending order, grouped by dimension (the empty face 0 in -1)."""
        faces: set[int] = set()
        # Largest first: a facet already seen is a face of an earlier one.
        for facet in sorted(self.facets, key=int.bit_count, reverse=True):
            if facet in faces:
                continue
            sub = facet
            while sub:
                faces.add(sub)
                sub = (sub - 1) & facet
            faces.add(0)
        by_dim: dict[int, list[int]] = {}
        for face in sorted(faces):
            by_dim.setdefault(face.bit_count() - 1, []).append(face)
        return by_dim

    def reduced_homology(self) -> dict[int, int]:
        """Every nonzero reduced homology rank over the rationals, keyed by dimension.

        Each boundary map is ranked once by ``integer_rank``, on one sparse
        row per d-face F: ``{F ^ bit: sign}`` over the bits of F, where
        removing a bit has sign (-1)^(number of F's bits below it).  The
        d-th map thus hands over all f_d rows and (d + 1) * f_d nonzeros.
        """
        by_dim = self.faces_by_dim()
        ranks = {}
        for d, upper in by_dim.items():
            if d - 1 not in by_dim:
                continue
            rows = []
            for face in upper:
                row, rest, sign = {}, face, 1
                while rest:
                    bit = rest & -rest
                    row[face ^ bit] = sign
                    rest ^= bit
                    sign = -sign
                rows.append(row)
            ranks[d] = integer_rank(rows)
        homology = {d: len(fs) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d, fs in by_dim.items()}
        return {d: h for d, h in homology.items() if h}


def integer_rank(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of the matrix whose rows are ``rows``.

    Each row is a dict ``{column: value}`` of its nonzero entries only, and
    may be reduced in place.  A row is reduced against the kept pivot rows
    at its largest column until it is empty (it depended on them) or no
    pivot has that column (it is kept as the pivot there).  A step against
    a pivot entry of +-1 subtracts a multiple of the pivot; any other step
    is fraction-free, lead * row - entry * pivot over their gcd, and then
    divides the row by its content.  Every entry is an exact Python int.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            lead, factor = pivot[col], row[col]
            scaled = lead not in (1, -1)
            if scaled:
                g = gcd(lead, factor)
                row = {c: lead // g * v for c, v in row.items()}
                factor //= g
            else:
                factor *= lead
            for c, v in pivot.items():
                x = row.get(c, 0) - factor * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            if scaled and row:
                g = gcd(*row.values())
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
    return len(pivots)


def _facet_masks(gens: np.ndarray, rows: np.ndarray) -> list[frozenset[int]]:
    """The facets of K^a as bitmasks, for each row a of ``rows``.

    Bit p of a facet stands for the variable x_{p+1}; each generator row
    u <= a gives the facet {p : u_p < a_p}.
    """
    divides = (gens[None, :, :] <= rows[:, None, :]).all(axis=2)
    masks = _bit_rows((gens[None, :, :] < rows[:, None, :])[divides])
    ends = np.cumsum(divides.sum(axis=1)).tolist()
    return [frozenset(masks[i:j]) for i, j in zip([0] + ends[:-1], ends)]


def upper_koszul(ideal: MonomialIdeal, a: Monomial) -> SimplicialComplex:
    """The complex of subsets F of supp(a) with x^a / x_F in the ideal.

    With T_u = {p in supp(a) : the generator u has full exponent a_p},
    each generator u dividing x^a contributes the facet supp(a) - T_u,
    which is {p : u_p < a_p}; bit p of a facet mask stands for x_{p+1}.
    """
    if a.n != ideal.n:
        raise ValueError("ambient variable counts differ")
    return SimplicialComplex(_facet_masks(ideal.exps, _exponent_matrix([a], ideal.n))[0])


def lcm_lattice(
    ideal: MonomialIdeal,
    gen_cap: int = DEFAULT_GEN_CAP,
    size_cap: int = DEFAULT_LATTICE_CAP,
) -> list[Monomial]:
    """All joins of nonempty generator subsets in ascending exponent order.

    Refuses more than ``gen_cap`` generators before any work, and a
    lattice of more than ``size_cap`` elements.  Each frontier (the
    elements first found in the previous round) is joined with every
    generator by one ``np.maximum``, in blocks of at most ``_JOIN_BLOCK``
    entries so that memory stays bounded.  ``_first_rows`` of the lattice
    followed by a block's joins keeps the first of each distinct row; the
    sort is stable, so a join already in the lattice is never first, and
    the firsts past the lattice are the new elements.
    """
    if ideal.num_gens() > gen_cap:
        raise OracleCapError(
            f"{ideal.num_gens()} generators exceed the oracle cap of {gen_cap}"
        )
    gens = ideal.exps
    # No join passes the largest generator entry.
    largest = int(gens.max(initial=0))
    lattice = frontier = gens
    step = max(1, _JOIN_BLOCK // max(gens.size, 1))
    while len(frontier):
        known = len(lattice)
        for start in range(0, len(frontier), step):
            block = frontier[start : start + step]
            joins = np.maximum(block[:, None, :], gens[None, :, :])
            rows = np.concatenate((lattice, joins.reshape(len(block) * len(gens), ideal.n)))
            first = _first_rows(rows, largest)
            lattice = np.concatenate((lattice, rows[first[first >= len(lattice)]]))
            if len(lattice) > size_cap:
                raise OracleCapError(
                    f"lcm lattice exceeds the size cap of {size_cap}"
                )
        frontier = lattice[known:]
    return list(Monomial._wrap_all(lattice[_first_rows(lattice, largest)]))


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers of an ideal, keyed by (i, multidegree)."""

    n: int
    entries: dict

    def max_index(self) -> int:
        return max((i for i, _ in self.entries), default=-1)

    def degrees_at(self, i: int) -> list[tuple[int, ...]]:
        return sorted(a for j, a in self.entries if j == i)

    def to_dict(self, ideal: MonomialIdeal) -> dict:
        rows = [
            {"i": i, "deg": list(a), "beta": b}
            for (i, a), b in sorted(self.entries.items())
        ]
        return {"ideal": ideal.to_dict(), "entries": rows}


_TABLE_CACHE: dict = {}


def betti_table(
    ideal: MonomialIdeal,
    gen_cap: int = DEFAULT_GEN_CAP,
    size_cap: int = DEFAULT_LATTICE_CAP,
) -> BettiTable:
    """The full Betti table over the lcm lattice, cached per ideal and caps."""
    key = (ideal, gen_cap, size_cap)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    entries: dict = {}
    lattice = lcm_lattice(ideal, gen_cap, size_cap)
    gens, rows = ideal.exps, _exponent_matrix(lattice, ideal.n)
    # Homology per distinct complex, keyed by its facet masks.
    homology: dict[frozenset[int], dict[int, int]] = {}
    step = max(1, _JOIN_BLOCK // max(gens.size, 1))
    for start in range(0, len(lattice), step):
        block = lattice[start : start + step]
        for a, facets in zip(block, _facet_masks(gens, rows[start : start + step])):
            ranks = homology.get(facets)
            if ranks is None:
                ranks = homology[facets] = SimplicialComplex(facets).reduced_homology()
            for d, h in ranks.items():
                entries[(d + 1, a.exps)] = h
    table = BettiTable(ideal.n, entries)
    _TABLE_CACHE[key] = table
    return table


def hs_oracle(ideal: MonomialIdeal, i: int) -> MonomialIdeal:
    """The i-th homological shift ideal straight from Betti numbers."""
    if i < 0 or ideal.is_zero():
        return MonomialIdeal.zero(ideal.n)
    table = betti_table(ideal)
    return MonomialIdeal.from_exponents(ideal.n, table.degrees_at(i))


def pd_oracle(ideal: MonomialIdeal) -> int:
    """Projective dimension as the largest i with a nonzero Betti number."""
    if ideal.is_zero():
        raise ValueError("projective dimension of the zero ideal is undefined")
    return betti_table(ideal).max_index()


def betti_monotonicity_check(J: MonomialIdeal, I: MonomialIdeal) -> bool:
    """Whether beta_{i,a}(J) <= beta_{i,a}(I) for every i and multidegree a."""
    if J.n != I.n:
        raise ValueError("ambient variable counts differ")
    lower = betti_table(J).entries
    upper = betti_table(I).entries
    return all(b <= upper.get(key, 0) for key, b in lower.items())
