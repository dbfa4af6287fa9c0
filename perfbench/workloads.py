"""Seeded inputs, timed items and output checks for the benchmark workloads.

Every library call goes through a module attribute (``edge_ideals.pd_of_power``
rather than a name imported here), so the wrappers that ``tracer`` installs
on the library's modules also see the calls made from this file.

A seed only picks vertex relabelings.  Outputs are mapped back to the
canonical labels before hashing, so the reference digests in
``reference.json`` hold for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from homshift import cli, corpus, edge_ideals, errors, graphs, shifts
from homshift.monomials import MonomialIdeal

# The package re-exports the function ``betti`` under the submodule's name.
betti = importlib.import_module("homshift.betti")

@dataclass(frozen=True)
class Item:
    """One unit of work: a relabeled input and the permutation that made it.

    ``perm[v - 1]`` is the new name of canonical vertex ``v``.
    """

    id: str
    args: tuple
    perm: tuple[int, ...] = ()


@dataclass(frozen=True)
class Spec:
    """What one workload runs, at full size or in the tiny self-test size."""

    make_items: Callable[[int], list[Item]]
    run: Callable[[Item], Any]
    digest: Callable[[Item, Any], str]
    cross_check: Callable[[Any], bool]
    corrupt: Callable[[Any], Any]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(obj) -> str:
    return sha256_text(json.dumps(obj, separators=(",", ":")))


def _canonical(exps: tuple[int, ...], perm: tuple[int, ...]) -> list[int]:
    """Exponents of a relabeled monomial, read back in canonical vertex order."""
    return [exps[p - 1] for p in perm]


def _ideal_rows(ideal: MonomialIdeal, perm: tuple[int, ...]) -> list[list[int]]:
    return sorted(_canonical(g.exps, perm) for g in ideal.gens)


def _relabeled(g: graphs.Graph, rng: random.Random) -> tuple[graphs.Graph, tuple[int, ...]]:
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return graphs.relabel_graph(g, tuple(perm)), tuple(perm)


# powers --------------------------------------------------------------------


def cycle(n: int) -> graphs.Graph:
    return graphs.Graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def path(n: int) -> graphs.Graph:
    return graphs.Graph(n, [(v, v + 1) for v in range(1, n)])


def complete(n: int) -> graphs.Graph:
    return graphs.Graph(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)])


def power_items(named: tuple[tuple[str, Callable[[], graphs.Graph]], ...], s: int):
    def make(seed: int) -> list[Item]:
        rng = random.Random(seed)
        items = []
        for name, build in named:
            g, perm = _relabeled(build(), rng)
            items.append(Item(f"{name}^{s}", (g, s), perm))
        return items

    return make


def run_power(item: Item) -> dict:
    """pd, every nonzero HS_i, and the closed form wherever it applies."""
    g, s = item.args
    pd = edge_ideals.pd_of_power(g, s)
    hs = [shifts.hs_power(g, i, s) for i in range(1, pd + 1)]
    closed = []
    for i, ideal in enumerate(hs, start=1):
        form = shifts.hs_closed_form(g, i, s)
        if form is not None:
            closed.append(form == ideal)
    return {"pd": pd, "hs": hs, "closed": closed}


def digest_power(item: Item, out: dict) -> str:
    return _digest({"pd": out["pd"], "hs": [_ideal_rows(h, item.perm) for h in out["hs"]]})


def corrupt_power(out: dict) -> dict:
    """Drop one generator of HS_1."""
    first = out["hs"][0]
    return dict(out, hs=[MonomialIdeal(first.n, first.gens[1:])] + out["hs"][1:])


# oracle --------------------------------------------------------------------


def oracle_items(n: int, powers: tuple[int, ...]):
    """The connected catalog on n vertices, each graph randomly relabeled.

    The relabeled graph is then given the library's own suffix-connected
    labels.  ``pd_of_power`` and ``hs_power`` relabel that way internally;
    building the ideal on any other labels would enumerate the power a
    second time, for some seeds and not others, and the work would depend
    on the seed.
    """

    def make(seed: int) -> list[Item]:
        rng = random.Random(seed)
        items = []
        for idx, base in enumerate(corpus.connected_graphs(n)):
            shuffled, perm = _relabeled(base, rng)
            g, lex = graphs.lex_labeled_copy(shuffled)
            perm = tuple(lex[p - 1] for p in perm)
            for s in powers:
                items.append(Item(f"g{idx:03d}^{s}", (g, s), perm))
        return items

    return make


def run_oracle(item: Item) -> dict:
    """The Betti table of I_c(G)^s, checked against the linear-quotient route."""
    g, s = item.args
    ideal = edge_ideals.comp_power_ideal(g, s)
    try:
        table = betti.betti_table(ideal)
    except errors.OracleCapError:
        return {"refused": True}
    pd = edge_ideals.pd_of_power(g, s)
    agree = table.max_index() == pd and all(
        MonomialIdeal.from_exponents(g.n, table.degrees_at(i)) == shifts.hs_power(g, i, s)
        for i in range(pd + 1)
    )
    return {"refused": False, "entries": table.entries, "agree": agree}


def digest_oracle(item: Item, out: dict) -> str:
    if out["refused"]:
        return "refused"
    rows = sorted([i, _canonical(a, item.perm), b] for (i, a), b in out["entries"].items())
    return _digest(rows)


def corrupt_oracle(out: dict) -> dict:
    """Add one to the first Betti number of a table."""
    if out["refused"]:
        return out
    entries = dict(out["entries"])
    key = min(entries)
    entries[key] += 1
    return dict(out, entries=entries)


# verify --------------------------------------------------------------------


def verify_items(max_n: int):
    def make(seed: int) -> list[Item]:
        # The corpus is exhaustive up to n = 7, so the seed changes nothing.
        return [Item(f"verify-{max_n}", (["verify", "--suite", "all", "--max-n", str(max_n)],))]

    return make


def run_verify(item: Item) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(item.args[0])
    return {"code": code, "stdout": buf.getvalue()}


def digest_verify(item: Item, out: dict) -> str:
    return sha256_text(out["stdout"])


def corrupt_verify(out: dict) -> dict:
    return dict(out, stdout=out["stdout"] + "\n")


POWERS = dict(
    run=run_power,
    digest=digest_power,
    cross_check=lambda out: all(out["closed"]),
    corrupt=corrupt_power,
)
ORACLE = dict(
    run=run_oracle,
    digest=digest_oracle,
    cross_check=lambda out: out["refused"] or out["agree"],
    corrupt=corrupt_oracle,
)
VERIFY = dict(
    run=run_verify,
    digest=digest_verify,
    cross_check=lambda out: out["code"] == 0,
    corrupt=corrupt_verify,
)

SPECS = {
    "powers": Spec(
        power_items((("C12", lambda: cycle(12)), ("P12", lambda: path(12)), ("K7", lambda: complete(7))), 5),
        **POWERS,
    ),
    "oracle": Spec(oracle_items(6, (1, 2)), **ORACLE),
    "verify": Spec(verify_items(7), **VERIFY),
}

TINY_SPECS = {
    "powers": Spec(power_items((("C6", lambda: cycle(6)), ("P5", lambda: path(5))), 2), **POWERS),
    "oracle": Spec(oracle_items(4, (1, 2)), **ORACLE),
    "verify": Spec(verify_items(4), **VERIFY),
}


def clear_caches() -> None:
    """Empty every library cache, so the next pass starts as a fresh CLI call would."""
    for cached in (
        edge_ideals.power_generators,
        edge_ideals.power_set_map,
        shifts.hs_power,
        corpus.distance_labeled_trees,
        corpus.connected_graphs,
    ):
        cached.cache_clear()
    betti._TABLE_CACHE.clear()
