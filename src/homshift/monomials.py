"""Exact monomial and monomial-ideal arithmetic with canonical minimal generators.

Monomials are dense exponent vectors over a fixed number of variables.
Ideals always carry their unique minimal generating set, sorted in
descending lexicographic order with x1 > x2 > ... > xn, in one of two
forms: a tuple of Monomials, or one read-only exponent matrix with a row
per generator, stored in the smallest unsigned dtype that holds its largest
entry.  Ideals built from Monomials keep their tuple and build the matrix
on first use; ideals returned by the kernels hold only the matrix and build
their Monomials the first time ``gens`` is read.  The matrix depends on the
ideal alone, so equality compares matrices and the hash reads their bytes.

Sums, products, scaling and containment run on those matrices, and
exponents are widened to int64 only where a kernel adds them: byte keys of
whole rows drop duplicates, ``np.lexsort`` orders the rows, and with mixed
degrees a blocked broadcast divisibility test drops the rows that are not
minimal.  Any exponent or degree that would pass int64 raises
OverflowError instead of wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

# Entries in one block of broadcast row operations (8 MiB of int64).
_JOIN_BLOCK = 1 << 20


class Monomial:
    """A monomial x1^e1 * ... * xn^en, stored as a tuple of exponents."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int]):
        exps = tuple(map(int, exps))
        if exps and min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exps", exps)

    @classmethod
    def _wrap_all(cls, rows: list[tuple[int, ...]]) -> tuple["Monomial", ...]:
        """One Monomial per tuple of non-negative Python ints, without re-validating them."""
        out = list(map(cls.__new__, repeat(cls, len(rows))))
        # Assigning through the slot descriptor skips a Python frame per monomial.
        for _ in map(_EXPS_SLOT, out, rows):
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


def _minimalize_tuples(n: int, tuples: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Minimal elements under divisibility, sorted in descending lex order."""
    distinct = set(tuples)
    if not distinct:
        return []
    degrees = {sum(t) for t in distinct}
    if len(degrees) == 1:
        # Equal-degree monomials never divide one another.
        return sorted(distinct, reverse=True)
    by_degree = sorted(distinct, key=sum)
    kept: list[tuple[int, ...]] = []
    for cand in by_degree:
        cd = sum(cand)
        divisible = False
        for k in kept:
            if sum(k) >= cd:
                break  # kept is degree-sorted; no later element can divide cand
            if all(a <= b for a, b in zip(k, cand)):
                divisible = True
                break
        if not divisible:
            kept.append(cand)
    return sorted(kept, reverse=True)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _exponent_matrix(gens: Sequence[Monomial], n: int) -> np.ndarray:
    """The exponent vectors of ``gens`` as the rows of an int64 matrix with n columns.

    An exponent past int64 raises OverflowError.
    """
    flat = chain.from_iterable(g.exps for g in gens)
    return np.fromiter(flat, dtype=np.int64, count=len(gens) * n).reshape(len(gens), n)


def _frozen_rows(rows: np.ndarray) -> np.ndarray:
    """A read-only copy of a non-negative exponent matrix in the smallest fitting unsigned dtype."""
    rows = rows.astype(np.min_scalar_type(int(rows.max(initial=0))))
    rows.flags.writeable = False
    return rows


def _check_int64(n: int, largest: int) -> None:
    """Refuse a kernel whose entries may reach ``largest``: n * largest bounds every degree."""
    if max(n, 1) * largest > _INT64_MAX:
        raise OverflowError(f"exponents up to {largest} in {n} variables pass the int64 range")


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row (its bytes); two keys are equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _bit_rows(bits: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a Python int with bit p for column p, exact at any width.

    Up to 63 columns every row fits in int64 and is one dot product with
    the powers of two; wider rows are packed into bytes, read one at a time.
    """
    if bits.shape[1] <= 63:
        return (bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))).tolist()
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _lex_keys(rows: np.ndarray) -> list[np.ndarray]:
    """Sort keys of a non-negative exponent matrix, most significant first.

    Runs of consecutive columns are packed into one int64 each, as digits
    of base (largest entry + 1), so comparing the keys in turn compares
    the rows lexicographically with fewer passes than one per column.
    """
    n = rows.shape[1]
    base = int(rows.max(initial=0)) + 1
    width = 1
    while width < n and base ** (width + 1) <= _INT64_MAX:
        width += 1
    if width == 1:
        return list(rows.T)
    keys = []
    for start in range(0, n, width):
        block = rows[:, start : start + width]
        digits = np.array([base**p for p in reversed(range(block.shape[1]))], dtype=np.int64)
        keys.append(block @ digits)
    return keys


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an exponent matrix, in descending lex order."""
    if not rows.shape[1]:
        # The only monomial in no variables is 1, and its row has no bytes to key.
        return rows[:1]
    rows = rows[np.lexsort(_lex_keys(rows)[::-1])[::-1]]
    keys = _row_keys(rows)
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return rows[keep]


def _product_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct sums of a row of ``a`` and a row of ``b``, neither matrix empty.

    One broadcast sum per block of ``_JOIN_BLOCK`` entries, deduplicated
    block by block; the blocks are concatenated unordered.  Entries that
    could pass int64 raise OverflowError.
    """
    n = a.shape[1]
    _check_int64(n, int(a.max(initial=0)) + int(b.max(initial=0)))
    a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
    step = max(1, _JOIN_BLOCK // max(b.size, 1))
    blocks = []
    for k in range(0, len(a), step):
        block = a[k : k + step]
        sums = block[:, None, :] + b[None, :, :]
        blocks.append(_distinct_rows(sums.reshape(len(block) * len(b), n)))
    return np.concatenate(blocks)


def _divisible(rows: np.ndarray, by: np.ndarray) -> np.ndarray:
    """For each row of ``rows``, whether some row of ``by`` divides it (lies below it entrywise).

    One broadcast comparison per block of ``_JOIN_BLOCK`` entries.
    """
    out = np.zeros(len(rows), dtype=bool)
    step = max(1, _JOIN_BLOCK // max(by.size, 1))
    for k in range(0, len(rows), step):
        out[k : k + step] = (rows[k : k + step, None, :] >= by[None, :, :]).all(axis=2).any(axis=1)
    return out


def _ideal_from_rows(n: int, rows: np.ndarray) -> "MonomialIdeal":
    """The ideal generated by the rows of a non-negative integer exponent matrix.

    Equal-degree rows only need deduplication and ordering.  With mixed
    degrees a row is then dropped when a row of lower degree divides it.
    No Monomial is built.
    """
    rows = _distinct_rows(rows)
    degrees = rows.sum(axis=1)
    if len(rows) and (degrees != degrees[0]).any():
        keep = np.ones(len(rows), dtype=bool)
        for d in np.unique(degrees)[1:]:
            at = degrees == d
            keep[at] = ~_divisible(rows[at], rows[degrees < d])
        rows = rows[keep]
    return MonomialIdeal._wrap(n, rows)


class MonomialIdeal:
    """A monomial ideal, held as its canonical minimal generating set.

    The zero ideal has no generators; the unit ideal has the single
    generator 1.  Construction minimalizes, and the exponent matrix of the
    minimal generators in descending lex order is unique to the ideal, so
    two ideals are equal exactly when their matrices coincide.  An ideal
    holds a tuple of Monomials, the matrix ``exps``, or both; each is built
    from the other on first read.
    """

    __slots__ = ("n", "_gens", "_rows")

    def __init__(self, n: int, gens: Iterable[Monomial] = ()):
        # Keep the caller's Monomial objects: the first one seen per exponent tuple.
        by_exps: dict[tuple[int, ...], Monomial] = {}
        for g in gens:
            if g.n != n:
                raise ValueError(f"generator {g} has {g.n} variables, expected {n}")
            by_exps.setdefault(g.exps, g)
        self.n = int(n)
        self._gens = tuple(by_exps[t] for t in _minimalize_tuples(n, by_exps))
        self._rows = None

    @classmethod
    def _wrap(cls, n: int, rows: np.ndarray) -> "MonomialIdeal":
        """The ideal of matrix rows already minimal, distinct and in descending lex order."""
        ideal = cls.__new__(cls)
        ideal.n, ideal._gens, ideal._rows = n, None, _frozen_rows(rows)
        return ideal

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, (Monomial.one(n),))

    @classmethod
    def from_exponents(cls, n: int, rows: Iterable[Iterable[int]]) -> "MonomialIdeal":
        return cls(n, (Monomial(r) for r in rows))

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators in descending lex order, built from ``exps`` on first read."""
        if self._gens is None:
            rows = self._rows
            # Columns to tuples: no list per row; with no columns, each row is the tuple ().
            tuples = list(zip(*rows.T.tolist())) if self.n else [()] * len(rows)
            self._gens = Monomial._wrap_all(tuples)
        return self._gens

    @property
    def exps(self) -> np.ndarray:
        """The minimal generators' exponent matrix, one row each in ``gens`` order, read-only.

        Stored in the smallest unsigned dtype that fits and built on first
        use; an exponent past int64 raises OverflowError.
        """
        if self._rows is None:
            self._rows = _frozen_rows(_exponent_matrix(self._gens, self.n))
        return self._rows

    def is_zero(self) -> bool:
        return not self.num_gens()

    def num_gens(self) -> int:
        return len(self._rows if self._gens is None else self._gens)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __contains__(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def is_contained_in(self, other: "MonomialIdeal") -> bool:
        """Whether a generator of ``other`` divides each generator of this ideal.

        One blocked broadcast test of divisibility on the two matrices; an
        exponent past int64 raises OverflowError, as in the other kernels.
        """
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        if self.is_zero() or other.is_zero():
            return self.is_zero()
        return bool(_divisible(self.exps, other.exps).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal) or self.n != other.n:
            return False
        if self.num_gens() != other.num_gens():
            return False
        if self._gens is not None and other._gens is not None:
            return self._gens == other._gens
        try:
            return np.array_equal(self.exps, other.exps)
        except OverflowError:
            # Only Monomials hold exponents past int64, and a kernel-built ideal never does.
            return False

    def __hash__(self) -> int:
        try:
            rows = self.exps
        except OverflowError:
            return hash((self.n, self._gens))
        # The dtype follows from the largest entry, so equal ideals have equal bytes.
        return hash((self.n, rows.shape, rows.tobytes()))

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        a, b = self.exps, other.exps
        _check_int64(self.n, max(int(a.max(initial=0)), int(b.max(initial=0))))
        return _ideal_from_rows(self.n, np.concatenate((a, b)))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """All pairwise products of generators, summed on exponent matrices."""
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.n)
        return _ideal_from_rows(self.n, _product_rows(self.exps, other.exps))

    def scaled(self, m: Monomial) -> "MonomialIdeal":
        """The ideal m * I: one vector added to every row keeps them minimal and in lex order."""
        if self.is_zero():
            return self
        if m.n != self.n:
            raise ValueError("ambient variable counts differ")
        rows = self.exps
        _check_int64(self.n, int(rows.max(initial=0)) + max(m.exps, default=0))
        return MonomialIdeal._wrap(self.n, rows.astype(np.int64) + np.array(m.exps, dtype=np.int64))

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
        return MonomialIdeal(self.n, tuple(g / g.gcd(m) for g in self.gens))

    def to_dict(self) -> dict:
        return {"n": self.n, "gens": [list(g.exps) for g in self.gens]}

    @classmethod
    def from_dict(cls, data: dict) -> "MonomialIdeal":
        return cls.from_exponents(int(data["n"]), data["gens"])

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n}, gens={[str(g) for g in self.gens]})"

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def maximal_ideal(n: int) -> MonomialIdeal:
    """The graded maximal ideal (x1, ..., xn)."""
    return MonomialIdeal(n, tuple(Monomial.variable(n, i) for i in range(1, n + 1)))


def squarefree_power_of_maximal(n: int, i: int) -> MonomialIdeal:
    """The ideal generated by all squarefree monomials x_F with |F| = i."""
    if i < 0 or i > n:
        raise ValueError(f"squarefree power index {i} outside [0, {n}]")
    if i == 0:
        return MonomialIdeal.unit(n)
    gens = (Monomial.from_support(n, F) for F in combinations(range(1, n + 1), i))
    return MonomialIdeal(n, tuple(gens))


def rename_variables(ideal: MonomialIdeal, targets: Sequence[int], n: int) -> MonomialIdeal:
    """The image of the ideal under x_v -> x_{targets[v-1]}, in n variables.

    targets must send [ideal.n] injectively into [n]: a permutation
    relabels, an increasing list of positions embeds into a larger ring.
    The identity returns the ideal itself.
    """
    targets = tuple(targets)
    if len(targets) != ideal.n or len(set(targets) & set(range(1, n + 1))) != ideal.n:
        raise ValueError(f"targets {targets} do not map [{ideal.n}] injectively into [{n}]")
    if n == ideal.n and targets == tuple(range(1, n + 1)):
        return ideal
    moved = []
    for g in ideal.gens:
        exps = [0] * n
        for t, e in zip(targets, g.exps):
            exps[t - 1] = e
        moved.append(Monomial(exps))
    return MonomialIdeal(n, moved)


@dataclass(frozen=True)
class VeroneseSpec:
    """Cap vector and degree cutting out an ideal of Veronese type."""

    caps: tuple[int, ...]
    degree: int

    def __post_init__(self):
        caps = tuple(int(c) for c in self.caps)
        object.__setattr__(self, "caps", caps)
        if any(c < 0 for c in caps):
            raise ValueError(f"negative cap in {caps}")
        if not 0 <= self.degree <= sum(caps):
            raise ValueError(
                f"degree {self.degree} outside [0, {sum(caps)}] for caps {caps}"
            )


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
    ideals generated in a single degree.
    """
    gen_set = {g.exps for g in ideal.gens}
    n = ideal.n
    for u in ideal.gens:
        for v in ideal.gens:
            if u == v:
                continue
            for i in range(n):
                if u.exps[i] <= v.exps[i]:
                    continue
                for j in range(n):
                    if u.exps[j] >= v.exps[j]:
                        continue
                    e = list(u.exps)
                    e[i] -= 1
                    e[j] += 1
                    if tuple(e) not in gen_set:
                        return (u, v, i + 1, j + 1)
    return None


def has_strong_exchange(ideal: MonomialIdeal) -> bool:
    """Exhaustive check of the strong exchange property."""
    if len({g.degree() for g in ideal.gens}) > 1:
        return False
    return exchange_violation(ideal) is None


def divide_out(ideal: MonomialIdeal) -> tuple[Monomial, MonomialIdeal]:
    """Split I = g * J with g the gcd of all generators and J of content 1."""
    if ideal.is_zero():
        raise ValueError("cannot divide content out of the zero ideal")
    content = ideal.gens[0]
    for g in ideal.gens[1:]:
        content = content.gcd(g)
    core = MonomialIdeal(ideal.n, tuple(g / content for g in ideal.gens))
    return content, core
