"""Exact monomial and monomial-ideal arithmetic with canonical minimal generators.

Monomials are dense exponent vectors over a fixed number of variables.
An ideal holds one form: the read-only exponent matrix of its minimal
generators, one row each in descending lexicographic order with
x1 > x2 > ... > xn, in the smallest unsigned dtype that holds its largest
entry.  Every constructor (from Monomials, from exponent rows, or from a
kernel's matrix) reaches it through one minimalization, ``_minimal_rows``,
and ``gens`` builds Monomials from it on each read; none is kept.  The
matrix depends on the ideal alone, so equality compares matrices and the
hash reads their bytes.

Minimalization, sums, products, scaling, colons and containment run on
the matrices.  Rows are ordered on bit-packed int64 keys, ``_lex_keys``:
b = bit length of the largest entry bits per entry, most significant
column first; a row fits one key whenever n * b <= 63, and longer rows
take a few keys.  Rows are sorted and deduplicated by one stable
``np.lexsort`` of their keys: ``_first_rows`` keeps the first row of
each run of equal keys, and minimalization gathers those.  Products add
the keys of the two factors by broadcasting, one ``np.sort`` drops
repeats where one key holds a row, and only the distinct keys are
unpacked by shift and mask.  With mixed degrees a blocked broadcast
divisibility test drops the rows that are not minimal.

One overflow rule holds: an exponent past int64, read in or reached by
a sum or product, raises OverflowError where ``_key_bits`` sizes the
keys (``scaled`` builds none and checks itself), and degrees are exact
at any size.  A bool or non-integer exponent raises ValueError.  A
serialized variable count, a squarefree power index, a Veronese cap or
degree or a renaming target that is a bool or not an integer raises
ValueError; nothing is truncated or parsed.  Every squarefree block x_F
over i-subsets F is a row of one kernel, ``_subset_sums``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, repeat
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

# Entries in one block of broadcast row operations (8 MiB of int64).
_JOIN_BLOCK = 1 << 20


def _integer_exponents(exps: Iterable[int]) -> tuple[int, ...]:
    """The exponents as Python ints; a bool or a non-integer one, such as a float or a string, raises ValueError.

    Python and numpy integers pass through ``operator.index``, so nothing is
    truncated or parsed; bool is an int subclass, so it is refused first.
    """
    try:
        exps = tuple(exps)
        if bool not in map(type, exps):
            return tuple(map(index, exps))
    except TypeError:
        pass
    raise ValueError(f"exponents must be integers, got {exps!r}")


def _integer(value, what: str) -> int:
    """``value`` as a Python int; a bool or a non-integer, such as a float or a string, raises ValueError.

    bool is an int subclass, so ``operator.index`` alone would read true as 1.
    """
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


class Monomial:
    """A monomial x1^e1 * ... * xn^en, stored as a tuple of exponents."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int]):
        exps = _integer_exponents(exps)
        if exps and min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exps", exps)

    @classmethod
    def _wrap_all(cls, rows: np.ndarray) -> tuple["Monomial", ...]:
        """One Monomial per row of a non-negative integer exponent matrix, without re-validating it."""
        # Columns to tuples: no list per row; with no columns, each row is the tuple ().
        tuples = list(zip(*rows.T.tolist())) if rows.shape[1] else [()] * len(rows)
        out = list(map(cls.__new__, repeat(cls, len(tuples))))
        # Assigning through the slot descriptor skips a Python frame per monomial.
        for _ in map(_EXPS_SLOT, out, tuples):
            pass
        return tuple(out)

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def variable(cls, n: int, i: int) -> "Monomial":
        """x_i in n variables (1-based)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside [1, {n}]")
        return cls(tuple(1 if k == i - 1 else 0 for k in range(n)))

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "Monomial":
        """The squarefree monomial x_F for F a subset of [n]."""
        sup = set(support)
        if any(not 1 <= i <= n for i in sup):
            raise ValueError(f"support {sorted(sup)} outside [1, {n}]")
        return cls(tuple(1 if k + 1 in sup else 0 for k in range(n)))

    @classmethod
    def uniform(cls, n: int, k: int) -> "Monomial":
        """(x1*...*xn)^k."""
        return cls((k,) * n)

    @property
    def n(self) -> int:
        return len(self.exps)

    def degree(self) -> int:
        return sum(self.exps)

    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, e in enumerate(self.exps) if e > 0)

    def is_one(self) -> bool:
        return not any(self.exps)

    def _same_ring(self, other: "Monomial") -> None:
        if len(self.exps) != len(other.exps):
            raise ValueError("ambient variable counts differ")

    def divides(self, other: "Monomial") -> bool:
        self._same_ring(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def gcd(self, other: "Monomial") -> "Monomial":
        self._same_ring(other)
        return Monomial(tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._same_ring(other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._same_ring(other)
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative power of a monomial")
        return Monomial(tuple(a * k for a in self.exps))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact division; raises if the quotient is not a monomial."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        return f"Monomial({self.exps})"

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


_EXPS_SLOT = Monomial.exps.__set__


_INT64_MAX = int(np.iinfo(np.int64).max)


def _exponent_matrix(gens: Sequence[Monomial], n: int) -> np.ndarray:
    """The exponent vectors of ``gens`` as the rows of an int64 matrix with n columns.

    An exponent past int64 raises OverflowError.
    """
    flat = chain.from_iterable(g.exps for g in gens)
    return np.fromiter(flat, dtype=np.int64, count=len(gens) * n).reshape(len(gens), n)


def _frozen_rows(rows: np.ndarray, largest: int | None = None) -> np.ndarray:
    """A read-only copy of a non-negative exponent matrix in the smallest fitting unsigned dtype.

    ``largest`` is the matrix's largest entry, where the caller already has it.
    """
    if largest is None:
        largest = int(rows.max(initial=0))
    rows = rows.astype(np.min_scalar_type(largest))
    rows.flags.writeable = False
    return rows


def _bit_rows(bits: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a Python int with bit p for column p, exact at any width.

    Up to 63 columns every row fits in int64 and is one dot product with
    the powers of two; wider rows are packed into bytes, read one at a time.
    """
    if bits.shape[1] <= 63:
        return (bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))).tolist()
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _key_bits(largest: int) -> int:
    """Bits per entry in a sort key of entries up to ``largest``: its bit length, at least 1.

    An entry past int64 raises OverflowError, so every kernel that keys
    rows refuses one where it builds its keys.
    """
    if largest > _INT64_MAX:
        raise OverflowError(f"exponent {largest} passes the int64 range")
    return max(1, largest.bit_length())


@lru_cache(maxsize=64)
def _key_layout(n: int, bits: int) -> tuple[tuple[slice, np.ndarray, np.ndarray], ...]:
    """Per sort key of n columns at ``bits`` bits each, most significant first: its columns, weights and shifts.

    A key packs the next 63 // bits columns, the first one in the highest
    bits; with no columns there is one key, 0 for every row.
    """
    width = 63 // bits
    layout = []
    for start in range(0, max(n, 1), width):
        stop = min(start + width, n)
        shifts = bits * np.arange(stop - start - 1, -1, -1, dtype=np.int64)
        weights = np.left_shift(1, shifts)
        shifts.flags.writeable = weights.flags.writeable = False
        layout.append((slice(start, stop), weights, shifts))
    return tuple(layout)


def _lex_keys(rows: np.ndarray, largest: int) -> list[np.ndarray]:
    """Sort keys of a non-negative exponent matrix whose entries are at most ``largest``, within int64.

    Most significant first.  Each entry takes b = bit_length(largest) bits
    and each int64 key packs the next 63 // b columns, the first column
    highest, so comparing the keys in turn compares the rows
    lexicographically and two rows are equal exactly when all their keys
    are.  Whenever n * b <= 63 one key holds the whole row.  No field
    carries into the next, so the keys of a sum of rows whose entries stay
    within ``largest`` are the sums of their keys, and ``_unpack`` reads
    rows back from keys by shift and mask.
    """
    layout = _key_layout(rows.shape[1], _key_bits(largest))
    if rows.dtype == np.uint64:
        # Against int64 weights numpy would promote uint64 to float64.
        rows = rows.astype(np.int64)
    return [rows[:, cols] @ weights for cols, weights, _ in layout]


def _unpack(keys: list[np.ndarray], n: int, largest: int) -> np.ndarray:
    """The int64 rows of n columns whose ``_lex_keys`` at ``largest`` are ``keys``: one shift and mask per key."""
    bits = _key_bits(largest)
    mask = (1 << bits) - 1
    layout = _key_layout(n, bits)
    blocks = [(key[:, None] >> shifts) & mask for key, (_, _, shifts) in zip(keys, layout)]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def _run_starts(keys: list[np.ndarray]) -> np.ndarray:
    """For sorted key arrays, where each run of equal key tuples starts."""
    first = np.zeros(len(keys[0]), dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    return first


def _first_rows(rows: np.ndarray, largest: int) -> np.ndarray:
    """The index of the first occurrence of each distinct row, in ascending lex order of the rows.

    The entries are at most ``largest``.  A stable ``np.lexsort`` of the
    ``_lex_keys`` (one key whenever the row fits one) orders the rows,
    equal rows in their given order, and the first index of each run of
    equal keys is kept, so no row is unpacked.  On the matrices of a few
    dozen rows that minimalization mostly sees, this measured faster than
    ``np.argsort``.
    """
    keys = _lex_keys(rows, largest)
    order = np.lexsort(keys[::-1])
    return order[_run_starts([key[order] for key in keys])]


def _distinct_keys(keys: list[np.ndarray]) -> list[np.ndarray]:
    """The distinct key tuples in descending order, one array per key; one key takes one ``np.sort``."""
    if len(keys) == 1:
        keys = [np.sort(keys[0])]
    else:
        order = np.lexsort(keys[::-1])
        keys = [key[order] for key in keys]
    first = _run_starts(keys)
    return [key[first][::-1] for key in keys]


def _product_keys(a: np.ndarray, b: np.ndarray, largest: int) -> list[np.ndarray]:
    """The distinct ``_lex_keys`` at ``largest`` of the sums of a row of ``a`` and a row of ``b``, descending.

    ``largest`` bounds every sum, so the keys of a sum are the sums of the
    keys: one broadcast sum per key and block of ``_JOIN_BLOCK`` entries,
    deduplicated block by block and once more across blocks.  No row
    matrix of the sums is built.  Neither matrix is empty.
    """
    ka, kb = _lex_keys(a, largest), _lex_keys(b, largest)
    step = max(1, _JOIN_BLOCK // (len(b) * len(kb)))
    blocks = [
        _distinct_keys([(x[k : k + step, None] + y).ravel() for x, y in zip(ka, kb)])
        for k in range(0, len(a), step)
    ]
    keys = [np.concatenate(parts) for parts in zip(*blocks)]
    return keys if len(blocks) == 1 else _distinct_keys(keys)


def _divisible(rows: np.ndarray, by: np.ndarray) -> np.ndarray:
    """For each row of ``rows``, whether some row of ``by`` divides it (lies below it entrywise).

    One broadcast comparison per block of ``_JOIN_BLOCK`` entries.
    """
    out = np.zeros(len(rows), dtype=bool)
    step = max(1, _JOIN_BLOCK // max(by.size, 1))
    for k in range(0, len(rows), step):
        out[k : k + step] = (rows[k : k + step, None, :] >= by[None, :, :]).all(axis=2).any(axis=1)
    return out


def _row_degrees(rows: np.ndarray, largest: int) -> np.ndarray:
    """The row sums of a matrix with entries up to ``largest``, exact at any size.

    Summed in int64, or as Python ints where n times the largest entry passes int64.
    """
    if rows.shape[1] * largest <= _INT64_MAX:
        return rows.sum(axis=1)
    return np.array([sum(row) for row in rows.tolist()], dtype=object)


def _subset_sums(columns: Iterable[int], n: int, size: int) -> np.ndarray:
    """One int64 row sum_{p in F} e_{columns[p]} of length n per size-subset F of positions.

    Rows come in ``combinations`` order, and repeated columns add up.  Every
    squarefree block x_F reads it: the HS selector of ``hs_linear_quotients``,
    m^[i], HS_1, the tree blocks J_i and K_i, the cleared Veronese identity
    and the cycle blocks alpha^{i-k} / x_F.
    """
    picks = list(combinations(columns, size))
    cols = np.array(picks, dtype=np.intp).reshape(len(picks), size)
    flat = (np.arange(len(picks))[:, None] * n + cols).ravel()
    return np.bincount(flat, minlength=len(picks) * n).reshape(len(picks), n)


def _minimal_rows(rows: np.ndarray) -> np.ndarray:
    """The minimal rows of a non-negative integer exponent matrix, as ``_frozen_rows`` holds them.

    ``_first_rows`` keeps one original row per distinct row, reversed to
    descending lex order, and ``_minimal_distinct`` drops the multiples.
    An entry past int64 raises OverflowError.
    """
    largest = int(rows.max(initial=0))
    return _minimal_distinct(rows[_first_rows(rows, largest)[::-1]], largest)


def _minimal_distinct(rows: np.ndarray, largest: int) -> np.ndarray:
    """The minimal rows of distinct rows in descending lex order whose largest entry is ``largest``, frozen.

    Equal-degree rows never divide one another; with mixed degrees a row is
    dropped when a row of lower degree divides it.  Degrees are summed in
    int64, or as Python ints where n times the largest entry passes int64.
    """
    degrees = _row_degrees(rows, largest)
    if np.count_nonzero(degrees != degrees[:1]):
        keep = np.ones(len(rows), dtype=bool)
        for d in np.unique(degrees)[1:]:
            at = degrees == d
            keep[at] = ~_divisible(rows[at], rows[degrees < d])
        rows = rows[keep]
        largest = int(rows.max(initial=0))
    return _frozen_rows(rows, largest)


def _ideal_from_rows(n: int, rows: np.ndarray) -> "MonomialIdeal":
    """The ideal generated by the rows of a non-negative integer exponent matrix with n columns."""
    return MonomialIdeal._wrap(n, _minimal_rows(rows))


def _ideal_from_keys(n: int, keys: list[np.ndarray], largest: int) -> "MonomialIdeal":
    """The ideal generated by the rows of n columns whose ``_lex_keys`` at ``largest`` are ``keys``.

    The keys are distinct and descending, so only the distinct rows are
    unpacked, already in descending lex order.
    """
    rows = _unpack(keys, n, largest)
    return MonomialIdeal._wrap(n, _minimal_distinct(rows, int(rows.max(initial=0))))


def _capped_row(m: Monomial, rows: np.ndarray) -> np.ndarray:
    """The exponents of m as a one-row matrix in the dtype of ``rows``, capped at its largest value.

    The cap changes no comparison with, and no minimum against, an entry of ``rows``.
    """
    cap = int(np.iinfo(rows.dtype).max)
    return np.array([[min(e, cap) for e in m.exps]], dtype=rows.dtype)


class MonomialIdeal:
    """A monomial ideal, held as the exponent matrix of its minimal generators.

    The zero ideal has no generators; the unit ideal has the single
    generator 1.  Every constructor minimalizes through ``_minimal_rows``,
    and the matrix ``exps`` of the minimal generators in descending lex
    order is unique to the ideal, so two ideals are equal exactly when
    their matrices coincide.  The matrix is all an ideal keeps: ``gens``
    builds the generators as Monomials from it on each read.
    """

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, gens: Iterable[Monomial] = ()):
        n, gens = _integer(n, "n"), tuple(gens)
        for g in gens:
            if g.n != n:
                raise ValueError(f"generator {g} has {g.n} variables, expected {n}")
        self.n, self._rows = n, _minimal_rows(_exponent_matrix(gens, n))

    @classmethod
    def _wrap(cls, n: int, rows: np.ndarray) -> "MonomialIdeal":
        """The ideal of a ``_frozen_rows`` matrix of minimal rows in descending lex order."""
        ideal = cls.__new__(cls)
        ideal.n, ideal._rows = n, rows
        return ideal

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls._wrap(n, _frozen_rows(np.zeros((0, n), dtype=np.uint8)))

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls._wrap(n, _frozen_rows(np.zeros((1, n), dtype=np.uint8)))

    @classmethod
    def from_exponents(cls, n: int, rows: Iterable[Iterable[int]]) -> "MonomialIdeal":
        """The ideal of exponent rows of length n, read into one matrix without building Monomials.

        A variable count that is not an integer, rows that are not sequences,
        a row of another length, a negative exponent or a bool or non-integer
        one raises ValueError; an exponent past int64 raises OverflowError.
        """
        try:
            n, rows = _integer(n, "n"), list(map(tuple, rows))
        except TypeError:
            raise ValueError(f"exponent rows of length {n} expected") from None
        matrix = np.array(rows) if rows else np.zeros((0, n), dtype=np.int64)
        types = set(map(type, chain.from_iterable(rows)))
        if matrix.dtype.kind != "i" or bool in types or np.bool_ in types:
            # Past int64, not integers, a bool (np.array reads it as 0 or 1) or no columns: check each entry.
            matrix = np.array(list(map(_integer_exponents, rows)), dtype=np.int64)
        if matrix.shape != (len(rows), n):
            raise ValueError(f"exponent rows of length {n} expected, got shape {matrix.shape}")
        if np.count_nonzero(matrix < 0):
            raise ValueError("negative exponent")
        return _ideal_from_rows(n, matrix)

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators in descending lex order, a new tuple built from ``exps`` on each read."""
        return Monomial._wrap_all(self._rows)

    @property
    def exps(self) -> np.ndarray:
        """The minimal generators' exponent matrix, one row each in ``gens`` order, read-only.

        Stored in the smallest unsigned dtype that holds its largest entry.
        """
        return self._rows

    def is_zero(self) -> bool:
        return not self.num_gens()

    def num_gens(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __contains__(self, m: Monomial) -> bool:
        if m.n != self.n:
            raise ValueError("ambient variable counts differ")
        return bool(_divisible(_capped_row(m, self._rows), self._rows)[0])

    def is_contained_in(self, other: "MonomialIdeal") -> bool:
        """Whether a generator of ``other`` divides each generator of this ideal.

        One blocked broadcast test of divisibility on the two matrices: the
        zero ideal lies in every ideal, and no other ideal lies in it.
        """
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        return bool(_divisible(self._rows, other._rows).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal) or self.n != other.n:
            return False
        a, b = self._rows, other._rows
        # The dtype follows from the largest entry, so equal shapes and bytes mean equal entries.
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def __hash__(self) -> int:
        rows = self._rows
        return hash((self.n, rows.shape, rows.tobytes()))

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return _ideal_from_rows(self.n, np.concatenate((self._rows, other._rows)))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """All pairwise products of generators, summed as packed ``_lex_keys`` and unpacked once distinct."""
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.n)
        a, b = self._rows, other._rows
        largest = int(a.max(initial=0)) + int(b.max(initial=0))
        return _ideal_from_keys(self.n, _product_keys(a, b, largest), largest)

    def scaled(self, m: Monomial) -> "MonomialIdeal":
        """The ideal m * I: one vector added to every row keeps them minimal and in lex order."""
        if self.is_zero():
            return self
        if m.n != self.n:
            raise ValueError("ambient variable counts differ")
        rows = self._rows
        # No row is keyed, so no ``_key_bits`` checks the entries.
        largest = int(rows.max(initial=0)) + max(m.exps, default=0)
        if largest > _INT64_MAX:
            raise OverflowError(f"exponent {largest} passes the int64 range")
        moved = rows.astype(np.int64) + np.array(m.exps, dtype=np.int64)
        return MonomialIdeal._wrap(self.n, _frozen_rows(moved))

    def power(self, s: int) -> "MonomialIdeal":
        """I^s, with I^0 the unit ideal and I^s the zero ideal for s < 0."""
        if s < 0:
            return MonomialIdeal.zero(self.n)
        result = MonomialIdeal.unit(self.n)
        for _ in range(s):
            result = result * self
        return result

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """The colon ideal (I : m), generated by u / gcd(u, m) over generators u."""
        if m.n != self.n:
            raise ValueError("ambient variable counts differ")
        rows = self._rows
        return _ideal_from_rows(self.n, rows - np.minimum(rows, _capped_row(m, rows)))

    def to_dict(self) -> dict:
        return {"n": self.n, "gens": self._rows.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "MonomialIdeal":
        return cls.from_exponents(data["n"], data["gens"])

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n}, gens={[str(g) for g in self.gens]})"

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def maximal_ideal(n: int) -> MonomialIdeal:
    """The graded maximal ideal (x1, ..., xn)."""
    return squarefree_power_of_maximal(n, 1)


def squarefree_power_of_maximal(n: int, i: int) -> MonomialIdeal:
    """m^[i], generated by all squarefree monomials x_F with |F| = i: the ``_subset_sums`` of [n]."""
    n, i = _integer(n, "n"), _integer(i, "squarefree power index")
    if i < 0 or i > n:
        raise ValueError(f"squarefree power index {i} outside [0, {n}]")
    return _ideal_from_rows(n, _subset_sums(range(n), n, i))


def rename_variables(ideal: MonomialIdeal, targets: Sequence[int], n: int) -> MonomialIdeal:
    """The image of the ideal under x_v -> x_{targets[v-1]}, in n variables.

    targets must be integers sending [ideal.n] injectively into [n]
    (ValueError otherwise): a permutation relabels, an increasing list of
    positions embeds into a larger ring.
    The identity returns the ideal itself.  Column v of the exponent matrix
    moves to column targets[v-1], and the rows are sorted again.
    """
    n, targets = _integer(n, "n"), tuple(_integer(t, "target") for t in targets)
    if len(targets) != ideal.n or len(set(targets) & set(range(1, n + 1))) != ideal.n:
        raise ValueError(f"targets {targets} do not map [{ideal.n}] injectively into [{n}]")
    if n == ideal.n and targets == tuple(range(1, n + 1)):
        return ideal
    rows = np.zeros((ideal.num_gens(), n), dtype=ideal.exps.dtype)
    rows[:, [t - 1 for t in targets]] = ideal.exps
    return _ideal_from_rows(n, rows)


@dataclass(frozen=True)
class VeroneseSpec:
    """Cap vector and degree cutting out an ideal of Veronese type.

    Caps and degree must be integers, not bools (ValueError otherwise).
    """

    caps: tuple[int, ...]
    degree: int

    def __post_init__(self):
        caps = tuple(_integer(c, "cap") for c in self.caps)
        degree = _integer(self.degree, "degree")
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "degree", degree)
        if any(c < 0 for c in caps):
            raise ValueError(f"negative cap in {caps}")
        if not 0 <= degree <= sum(caps):
            raise ValueError(f"degree {degree} outside [0, {sum(caps)}] for caps {caps}")


def _capped_exponents(caps: Sequence[int], d: int) -> Iterator[tuple[int, ...]]:
    """All exponent vectors e <= caps with total degree d."""
    n = len(caps)

    def rec(idx: int, remaining: int, prefix: tuple[int, ...]):
        if idx == n:
            if remaining == 0:
                yield prefix
            return
        tail_room = sum(caps[idx + 1 :])
        lo = max(0, remaining - tail_room)
        hi = min(caps[idx], remaining)
        for e in range(lo, hi + 1):
            yield from rec(idx + 1, remaining - e, prefix + (e,))

    yield from rec(0, d, ())


def veronese_type(spec: VeroneseSpec) -> MonomialIdeal:
    """All monomials of total degree d with exponents capped componentwise."""
    n = len(spec.caps)
    return MonomialIdeal.from_exponents(n, _capped_exponents(spec.caps, spec.degree))


def exchange_violation(ideal: MonomialIdeal) -> tuple | None:
    """A witness (u, v, i, j) violating the strong exchange property, or None.

    The property asks that u * x_j / x_i lie in the ideal for all
    generators u, v with u_i > v_i and u_j < v_j.  Only meaningful for
    ideals generated in a single degree.  The rows of ``exps`` are read as
    lists; Monomials are built only for a witness.
    """
    rows = ideal.exps.tolist()
    present = set(map(tuple, rows))
    n = ideal.n
    for u in rows:
        for v in rows:
            for i in range(n):
                if u[i] <= v[i]:
                    continue
                for j in range(n):
                    if u[j] >= v[j]:
                        continue
                    e = list(u)
                    e[i] -= 1
                    e[j] += 1
                    if tuple(e) not in present:
                        return (Monomial(u), Monomial(v), i + 1, j + 1)
    return None


def has_strong_exchange(ideal: MonomialIdeal) -> bool:
    """Exhaustive check of the strong exchange property."""
    if len(set(map(sum, ideal.exps.tolist()))) > 1:
        return False
    return exchange_violation(ideal) is None


def divide_out(ideal: MonomialIdeal) -> tuple[Monomial, MonomialIdeal]:
    """Split I = g * J with g the gcd of all generators and J of content 1.

    g is the column minimum of the exponent matrix; subtracting it from
    every row keeps the rows minimal and in lex order.
    """
    if ideal.is_zero():
        raise ValueError("cannot divide content out of the zero ideal")
    rows = ideal.exps
    content = rows.min(axis=0)
    return Monomial(content.tolist()), MonomialIdeal._wrap(ideal.n, _frozen_rows(rows - content))
