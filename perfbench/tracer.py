"""Spans and counts recorded around the library's public functions.

``Tracer.install`` wraps every public function of the seven library
modules, plus ``MonomialIdeal.__mul__``, ``SimplicialComplex.faces_by_dim``
and the CLI's per-record ``_dump``.  A name bound in several modules (``cli``
and ``shifts`` import ``power_set_map`` and ``hs_power`` by name) is rebound
in each of them, so no call path escapes.  Spans stay in memory until the
run ends; ``summarize`` turns one traced pass into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter
from math import comb

from homshift.errors import OracleCapError

LAYERS = ("graphs", "corpus", "edge_ideals", "shifts", "monomials", "betti", "cli")

# name: (unit, better, end-to-end metric and workload it should move)
PER_LAYER = {
    "edge_ideals.power_generators.s": ("s", "lower", "wall_s on powers (K7)"),
    "edge_ideals.power_generators.calls": ("count", "lower", "wall_s on powers"),
    "edge_ideals.power_generators.gens": ("count", "higher", "wall_s on powers"),
    "edge_ideals.power_generators.multisets": ("count", "lower", "wall_s on powers (K7), not oracle"),
    "edge_ideals.power_generators.useful_frac": ("ratio", "higher", "wall_s on powers (K7), not oracle"),
    "edge_ideals.power_generators.hits": ("count", "higher", "wall_s on verify; peak_rss_mb on powers"),
    "edge_ideals.power_generators.misses": ("count", "lower", "wall_s on verify; peak_rss_mb on powers"),
    "edge_ideals.power_set_map.self_s": ("s", "lower", "wall_s on powers (C12, P12); barely verify"),
    "edge_ideals.power_set_map.colon_rows": ("count", "lower", "wall_s on powers (C12, P12)"),
    "edge_ideals.power_set_map.hits": ("count", "higher", "wall_s on verify; peak_rss_mb on powers"),
    "edge_ideals.power_set_map.misses": ("count", "lower", "wall_s on verify; peak_rss_mb on powers"),
    "edge_ideals.set_via_even_connected.s": ("s", "lower", "wall_s on verify"),
    "edge_ideals.set_via_even_connected.calls": ("count", "lower", "wall_s on verify"),
    "corpus.distance_labeled_trees.s": ("s", "lower", "wall_s on verify"),
    "corpus.connected_graphs.s": ("s", "lower", "setup_s on oracle"),
    "shifts.hs_power.s": ("s", "lower", "wall_s and peak_rss_mb on powers"),
    "shifts.hs_power.calls": ("count", "lower", "wall_s on powers"),
    "shifts.hs_power.gens": ("count", "higher", "peak_rss_mb on powers"),
    "shifts.hs_power.hits": ("count", "higher", "wall_s on verify; peak_rss_mb on powers"),
    "shifts.hs_power.misses": ("count", "lower", "wall_s on verify; peak_rss_mb on powers"),
    "shifts.hs_linear_quotients.candidates": ("count", "lower", "wall_s and peak_rss_mb on powers"),
    "shifts.hs_linear_quotients.useful_frac": ("ratio", "higher", "wall_s and peak_rss_mb on powers"),
    "shifts.hs_closed_form.s": ("s", "lower", "wall_s on powers (C12, P12)"),
    "monomials.ideal_mul.s": ("s", "lower", "wall_s on powers (closed forms) and verify"),
    "monomials.ideal_mul.calls": ("count", "lower", "wall_s on powers and verify"),
    "monomials.ideal_mul.products": ("count", "lower", "wall_s on powers and verify"),
    "monomials.ideal_mul.useful_frac": ("ratio", "higher", "wall_s on powers and verify"),
    "monomials.veronese_type.s": ("s", "lower", "wall_s on verify"),
    "betti.betti_table.s": ("s", "lower", "wall_s on oracle, nothing on powers"),
    "betti.betti_table.calls": ("count", "lower", "wall_s on oracle"),
    "betti.betti_table.refused": ("count", "lower", "wall_s on oracle"),
    "betti.betti_table.p50_ms": ("ms", "lower", "wall_s on oracle"),
    "betti.betti_table.p90_ms": ("ms", "lower", "wall_s on oracle"),
    "betti.lcm_lattice.s": ("s", "lower", "wall_s on oracle"),
    "betti.lcm_lattice.size": ("count", "lower", "wall_s on oracle"),
    "betti.upper_koszul.s": ("s", "lower", "wall_s on oracle"),
    "betti.upper_koszul.calls": ("count", "lower", "wall_s on oracle"),
    "betti.faces": ("count", "lower", "wall_s on oracle"),
    "betti.integer_rank.s": ("s", "lower", "wall_s on oracle"),
    "betti.integer_rank.calls": ("count", "lower", "wall_s on oracle"),
    "betti.integer_rank.cells": ("count", "lower", "wall_s on oracle"),
    "betti.nonzero_frac": ("ratio", "higher", "wall_s on oracle"),
    "cli.verify.s": ("s", "lower", "wall_s on verify"),
    "cli.records": ("count", "higher", "wall_s on verify (spread over records)"),
    "cli.record.p50_ms": ("ms", "lower", "wall_s on verify"),
    "cli.record.p90_ms": ("ms", "lower", "wall_s on verify"),
    **{
        f"layer.{layer}.self_s": ("s", "lower", "wall_s on every workload that calls it")
        for layer in LAYERS
    },
    "trace.overhead_frac": ("ratio", "lower", "none: cost of tracing itself"),
    "fail_frac": ("ratio", "lower", "none: wrong or crashed items over items attempted"),
}

# Counts that depend only on the graphs up to isomorphism: a relabeling
# must leave them unchanged, and so must a second pass.
INVARIANT = tuple(name for name, (unit, _, _) in PER_LAYER.items() if unit == "count")

_CACHED = ("edge_ideals.power_generators", "edge_ideals.power_set_map", "shifts.hs_power")


def _module(layer: str):
    # ``homshift.betti`` is shadowed by the re-exported function of that name.
    return importlib.import_module(f"homshift.{layer}")


def _is_public_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    if hasattr(obj, "cache_info"):
        return True
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Tracer:
    """Wraps library functions; each call appends one span to ``spans``.

    A span is ``[name, start_ns, end_ns, parent, item, outermost]``, where
    ``parent`` indexes the enclosing span (-1 at the top) and ``outermost``
    is false for a call nested in a call of the same name.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = "setup"
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # installation ---------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = _module(layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_public_function(obj, module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = obj
                wrapped[id(obj)] = self._wrap(name, obj, _HOOKS.get(name))
        monomials, betti, cli = _module("monomials"), _module("betti"), _module("cli")
        self._patch(monomials.MonomialIdeal, "__mul__", self._wrap(
            "monomials.ideal_mul", monomials.MonomialIdeal.__mul__, _ideal_mul))
        self._patch(betti.SimplicialComplex, "faces_by_dim", self._wrap(
            "betti.faces_by_dim", betti.SimplicialComplex.faces_by_dim, _faces))
        self._patch(cli, "_dump", self._wrap("cli.record", cli._dump, None))
        # ``_originals`` keeps every wrapped object alive, so ids stay unique.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "homshift" and not mod_name.startswith("homshift."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patch(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, hook):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter_ns
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            before = cache_info().misses if cache_info else None
            span = [name, clock(), 0, stack[-1] if stack else -1, self.item, not active[name]]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                result = exc
                raise
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()
                if hook is not None:
                    # A cached function did work only when its miss count moved.
                    hook(self, args, result, before is None or cache_info().misses != before)
            return result

        if cache_info:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        wrapper.__wrapped__ = fn
        return wrapper

    # pass bookkeeping -----------------------------------------------------

    def cache_stats(self) -> dict[str, int]:
        """Hits and misses of the three result caches, read before they are cleared."""
        out = {}
        for name in _CACHED:
            info = self._originals[name].cache_info()
            out[f"{name}.hits"] = info.hits
            out[f"{name}.misses"] = info.misses
        return out


# hooks: (tracer, args, result or exception, computed) ------------------------


def _power_generators(t: Tracer, args, result, computed) -> None:
    if computed and not isinstance(result, BaseException):
        g, s = args
        t.counts["edge_ideals.power_generators.gens"] += len(result)
        t.counts["edge_ideals.power_generators.multisets"] += comb(len(g.edges) + s - 1, s)


def _power_set_map(t: Tracer, args, result, computed) -> None:
    if computed and not isinstance(result, BaseException):
        n = len(result.gens)
        t.counts["edge_ideals.power_set_map.colon_rows"] += n * (n - 1) // 2


def _hs_power(t: Tracer, args, result, computed) -> None:
    if computed and not isinstance(result, BaseException):
        t.counts["shifts.hs_power.gens"] += result.num_gens()


def _hs_linear_quotients(t: Tracer, args, result, computed) -> None:
    if isinstance(result, BaseException):
        return
    sm, i = args
    if i < 0:
        return
    t.counts["shifts.hs_linear_quotients.candidates"] += sum(comb(len(su), i) for su in sm.sets)
    t.counts["shifts.hs_linear_quotients.gens"] += result.num_gens()


def _ideal_mul(t: Tracer, args, result, computed) -> None:
    if isinstance(result, BaseException):
        return
    a, b = args
    t.counts["monomials.ideal_mul.products"] += len(a.gens) * len(b.gens)
    t.counts["monomials.ideal_mul.gens"] += result.num_gens()


def _betti_table(t: Tracer, args, result, computed) -> None:
    if isinstance(result, OracleCapError):
        t.counts["betti.betti_table.refused"] += 1
    elif not isinstance(result, BaseException):
        # Only the tables whose lattice was scanned in this call count toward
        # nonzero_frac; a cached table scans nothing.
        scanned = t.counts["betti.lcm_lattice.size"] - t.counts["betti.scanned"]
        if scanned:
            t.counts["betti.scanned"] += scanned
            t.counts["betti.nonzero"] += len({a for _, a in result.entries})


def _lcm_lattice(t: Tracer, args, result, computed) -> None:
    if not isinstance(result, BaseException):
        t.counts["betti.lcm_lattice.size"] += len(result)


def _faces(t: Tracer, args, result, computed) -> None:
    if not isinstance(result, BaseException):
        t.counts["betti.faces"] += sum(len(fs) for fs in result.values())


def _integer_rank(t: Tracer, args, result, computed) -> None:
    rows = args[0]
    if rows:
        t.counts["betti.integer_rank.cells"] += len(rows) * len(rows[0])


_HOOKS = {
    "edge_ideals.power_generators": _power_generators,
    "edge_ideals.power_set_map": _power_set_map,
    "shifts.hs_power": _hs_power,
    "shifts.hs_linear_quotients": _hs_linear_quotients,
    "betti.betti_table": _betti_table,
    "betti.lcm_lattice": _lcm_lattice,
    "betti.integer_rank": _integer_rank,
}


# summaries -------------------------------------------------------------------


def _quantile_ms(durations_ns: list[int], q: int) -> float:
    """The q-th percentile in milliseconds (0 when nothing was measured)."""
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e6
    return statistics.quantiles(durations_ns, n=100, method="inclusive")[q - 1] / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[list]) -> tuple[list[int], dict[str, float]]:
    """Per-span self time (duration minus direct children) and its sum per layer."""
    child = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    selfs = [end - start - child[k] for k, (_, start, end, _, _, _) in enumerate(spans)]
    layers = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, selfs):
        layers[span[0].split(".", 1)[0]] += own / 1e9
    return selfs, layers


def summarize(tracer: Tracer, cache_stats: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of the spans and counts recorded since the last reset."""
    spans, counts = tracer.spans, tracer.counts
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    durations: dict[str, list[int]] = {}
    for name, start, end, _, _, outermost in spans:
        calls[name] += 1
        if outermost:
            inclusive[name] += end - start
        if name in ("betti.betti_table", "cli.record", "cli.cmd_verify"):
            durations.setdefault(name, []).append(end - start)

    def secs(name: str) -> float:
        return inclusive[name] / 1e9

    colon_ns = 0
    for name, start, end, parent, _, _ in spans:
        if name == "edge_ideals.power_generators" and parent >= 0 and spans[parent][0] == "edge_ideals.power_set_map":
            colon_ns += end - start
    # Records are timed from one record's end to the next, starting at the verify call.
    marks = [s[1] for s in spans if s[0] == "cli.cmd_verify"][:1]
    marks += [s[2] for s in spans if s[0] == "cli.record"]
    record_ns = [b - a for a, b in zip(marks, marks[1:])]
    _, layers = self_times(spans)

    m = {
        "edge_ideals.power_generators.s": secs("edge_ideals.power_generators"),
        "edge_ideals.power_generators.calls": calls["edge_ideals.power_generators"],
        "edge_ideals.power_generators.gens": counts["edge_ideals.power_generators.gens"],
        "edge_ideals.power_generators.multisets": counts["edge_ideals.power_generators.multisets"],
        "edge_ideals.power_generators.useful_frac": _ratio(
            counts["edge_ideals.power_generators.gens"], counts["edge_ideals.power_generators.multisets"]),
        "edge_ideals.power_set_map.self_s": (inclusive["edge_ideals.power_set_map"] - colon_ns) / 1e9,
        "edge_ideals.power_set_map.colon_rows": counts["edge_ideals.power_set_map.colon_rows"],
        "edge_ideals.set_via_even_connected.s": secs("edge_ideals.set_via_even_connected"),
        "edge_ideals.set_via_even_connected.calls": calls["edge_ideals.set_via_even_connected"],
        "corpus.distance_labeled_trees.s": secs("corpus.distance_labeled_trees"),
        "corpus.connected_graphs.s": secs("corpus.connected_graphs"),
        "shifts.hs_power.s": secs("shifts.hs_power"),
        "shifts.hs_power.calls": calls["shifts.hs_power"],
        "shifts.hs_power.gens": counts["shifts.hs_power.gens"],
        "shifts.hs_linear_quotients.candidates": counts["shifts.hs_linear_quotients.candidates"],
        "shifts.hs_linear_quotients.useful_frac": _ratio(
            counts["shifts.hs_linear_quotients.gens"], counts["shifts.hs_linear_quotients.candidates"]),
        "shifts.hs_closed_form.s": secs("shifts.hs_closed_form"),
        "monomials.ideal_mul.s": secs("monomials.ideal_mul"),
        "monomials.ideal_mul.calls": calls["monomials.ideal_mul"],
        "monomials.ideal_mul.products": counts["monomials.ideal_mul.products"],
        "monomials.ideal_mul.useful_frac": _ratio(
            counts["monomials.ideal_mul.gens"], counts["monomials.ideal_mul.products"]),
        "monomials.veronese_type.s": secs("monomials.veronese_type"),
        "betti.betti_table.s": secs("betti.betti_table"),
        "betti.betti_table.calls": calls["betti.betti_table"],
        "betti.betti_table.refused": counts["betti.betti_table.refused"],
        "betti.betti_table.p50_ms": _quantile_ms(durations.get("betti.betti_table", []), 50),
        "betti.betti_table.p90_ms": _quantile_ms(durations.get("betti.betti_table", []), 90),
        "betti.lcm_lattice.s": secs("betti.lcm_lattice"),
        "betti.lcm_lattice.size": counts["betti.lcm_lattice.size"],
        "betti.upper_koszul.s": secs("betti.upper_koszul"),
        "betti.upper_koszul.calls": calls["betti.upper_koszul"],
        "betti.faces": counts["betti.faces"],
        "betti.integer_rank.s": secs("betti.integer_rank"),
        "betti.integer_rank.calls": calls["betti.integer_rank"],
        "betti.integer_rank.cells": counts["betti.integer_rank.cells"],
        "betti.nonzero_frac": _ratio(counts["betti.nonzero"], counts["betti.scanned"]),
        "cli.verify.s": secs("cli.cmd_verify"),
        "cli.records": calls["cli.record"],
        "cli.record.p50_ms": _quantile_ms(record_ns, 50),
        "cli.record.p90_ms": _quantile_ms(record_ns, 90),
    }
    m.update(cache_stats)
    for layer, seconds in layers.items():
        m[f"layer.{layer}.self_s"] = seconds
    return m
