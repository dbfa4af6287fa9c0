"""Benchmark of the homshift library: three workloads, checked outputs, per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload powers --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones listed in
``tracer.PER_LAYER``.  Each run also writes ``perfbench/out/BENCH_*.json``
and, when traced, the spans it recorded.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: all load comes from one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 7
# Traced passes alternate between the run's seed and this second seed.
SECOND_SEED_OFFSET = 1_000_003


def _load_library() -> None:
    """Import homshift from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import homshift
    except ImportError as exc:
        sys.exit(f"error: cannot import homshift from {SRC}: {exc}")
    found = Path(homshift.__file__).resolve().parent
    if found != SRC / "homshift":
        sys.exit(f"error: homshift was imported from {found}, not from {SRC}")


_load_library()
import tracer as tracing  # noqa: E402  (needs homshift on the path)
import workloads  # noqa: E402


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    item_seconds: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


def run_pass(spec, items, reference, corrupt=False, tracer=None) -> PassResult:
    """Run every item once from cold caches; only the library calls are timed.

    An item fails when it raises, when its digest differs from the
    reference, or when its cross-route check disagrees.  With ``reference``
    set to None the digests are only collected.
    """
    workloads.clear_caches()
    gc.collect()
    result = PassResult(0.0, len(items), 0)
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        start = time.perf_counter()
        try:
            out = spec.run(item)
        except Exception as exc:  # a crash is a failed item; keep measuring the rest
            result.item_seconds[item.id] = time.perf_counter() - start
            result.failed += 1
            print(f"item {item.id} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        result.item_seconds[item.id] = time.perf_counter() - start
        if corrupt:
            out = spec.corrupt(out)
        digest = spec.digest(item, out)
        result.digests[item.id] = digest
        if reference is None:
            continue
        if not spec.cross_check(out):
            result.failed += 1
            print(f"item {item.id}: cross-route check failed", file=sys.stderr)
        elif digest != reference.get(item.id):
            result.failed += 1
            print(f"item {item.id}: digest {digest[:12]} differs from the reference", file=sys.stderr)
    result.seconds = sum(result.item_seconds.values())
    return result


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Median wall time of fresh interpreters that import homshift and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child in steps of up to 50 ms.
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _specs(tiny: bool):
    return workloads.TINY_SPECS if tiny else workloads.SPECS


def _reference(workload: str, tiny: bool) -> dict:
    data = json.loads(REFERENCE.read_text())
    return data["tiny" if tiny else "full"][workload]


def _keep_going(started: float, seconds: float, passes: list[float], minimum: int) -> bool:
    """Whether another pass fits in the time left, after the minimum is done."""
    if len(passes) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(passes) <= seconds


def measure(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """The untraced run: end-to-end metrics from cold passes repeated for ``seconds``."""
    spec, reference = _specs(tiny)[workload], _reference(workload, tiny)
    setup_s = measure_setup(workload, seed, tiny)
    items = spec.make_items(seed)
    passes: list[PassResult] = []
    walls: list[float] = []
    started = time.perf_counter()
    while _keep_going(started, seconds, walls, MIN_PASSES):
        pass_start = time.perf_counter()
        passes.append(run_pass(spec, items, reference))
        walls.append(time.perf_counter() - pass_start)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(p.seconds for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024,
    }
    return {
        "passes": passes,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
        "units": END_TO_END,
    }


def measure_traced(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """The traced run: per-layer metrics, the tracing overhead and the invariance check.

    Untraced and traced passes alternate.  Each traced pass builds its own
    inputs under the tracer, so set-up work shows in the spans, and the
    traced passes alternate between two seeds.  Every count must come out
    the same in every traced pass.
    """
    spec, reference = _specs(tiny)[workload], _reference(workload, tiny)
    items = spec.make_items(seed)
    seeds = (seed, seed + SECOND_SEED_OFFSET)
    plain: list[PassResult] = []
    traced: list[tuple[int, PassResult, dict, list]] = []
    walls: list[float] = []
    started = time.perf_counter()
    while _keep_going(started, seconds, walls, 2 * MIN_TRACED_PASSES):
        pass_start = time.perf_counter()
        if len(walls) % 2 == 0:
            plain.append(run_pass(spec, items, reference))
        else:
            run_seed = seeds[len(traced) % 2]
            tr = tracing.Tracer()
            tr.install()
            try:
                # Build the inputs inside the trace, from cold caches.
                workloads.clear_caches()
                traced_items = spec.make_items(run_seed)
                result = run_pass(spec, traced_items, reference, tracer=tr)
                stats = tr.cache_stats()
            finally:
                tr.uninstall()
            # Spans are kept for the first traced pass of each seed only.
            spans = tr.spans if len(traced) < 2 else []
            traced.append((run_seed, result, tracing.summarize(tr, stats), spans))
        walls.append(time.perf_counter() - pass_start)

    summaries = [s for _, _, s, _ in traced]
    mismatches = count_mismatches([(run_seed, s) for run_seed, _, s, _ in traced])
    metrics = {
        name: (
            summaries[0][name]
            if name in tracing.INVARIANT
            else statistics.median(s[name] for s in summaries)
        )
        for name in summaries[0]
    }
    every = plain + [r for _, r, _, _ in traced]
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.seconds for _, r, _, _ in traced) / statistics.median(p.seconds for p in plain) - 1
    )
    metrics["fail_frac"] = failed / attempted
    return {
        "passes": every,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "metrics": {name: metrics[name] for name in tracing.PER_LAYER},
        "units": {name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()},
    }


def count_mismatches(summaries: list[tuple[int, dict]]) -> list[str]:
    """Every invariant count that differs from its value in the first traced pass."""
    first_seed, first = summaries[0]
    return [
        f"{name}: seed {first_seed} gives {first[name]}, seed {run_seed} gives {s[name]}"
        for name in tracing.INVARIANT
        for run_seed, s in summaries[1:]
        if s[name] != first[name]
    ]


def write_outputs(workload: str, seed: int, trace: int, run: dict, env: dict) -> None:
    """Write the run's record and, for a traced run, its spans and per-layer self times."""
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{trace}"
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "passes": [
            {"seconds": p.seconds, "attempted": p.attempted, "failed": p.failed, "items": p.item_seconds}
            for p in run["passes"]
        ],
        "metrics": run["metrics"],
        "units": run["units"],
    }
    if trace:
        record["layer_self_s"] = [
            {"pass": k, "seed": run_seed, **{layer: summary[f"layer.{layer}.self_s"] for layer in tracing.LAYERS}}
            for k, (run_seed, _, summary, _) in enumerate(run["traced"])
        ]
        with open(OUT / f"spans_{stem}.tsv", "w") as fh:
            fh.write("pass\tseed\tspan\tname\tstart_ns\tend_ns\tparent\titem\tself_ns\n")
            for k, (run_seed, _, _, spans) in enumerate(run["traced"]):
                selfs, _ = tracing.self_times(spans)
                for idx, ((name, start, end, parent, item, _), own) in enumerate(zip(spans, selfs)):
                    fh.write(f"{k}\t{run_seed}\t{idx}\t{name}\t{start}\t{end}\t{parent}\t{item}\t{own}\n")
        record["mismatches"] = run["mismatches"]
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")


def result_line(run: dict, correct: bool) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {
                name: {"value": value, "unit": run["units"][name]}
                for name, value in run["metrics"].items()
            },
        }
    )


def benchmark(args) -> int:
    if args.trace:
        run = measure_traced(args.workload, args.seed, args.seconds, args.tiny)
    else:
        run = measure(args.workload, args.seed, args.seconds, args.tiny)
    # Read after the passes: importing networkx here must not count toward peak_rss_mb.
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    for k, p in enumerate(run["passes"]):
        print(f"pass {k}: {p.seconds:.4f} s, {p.failed}/{p.attempted} failed")
    write_outputs(args.workload, args.seed, args.trace, run, env)
    mismatches = run.get("mismatches", [])
    for line in mismatches:
        print(f"error: count differs between traced passes: {line}", file=sys.stderr)
    print(result_line(run, run["failed"] == 0 and not mismatches))
    return 1 if mismatches else 0


def setup_only(args) -> int:
    _specs(args.tiny)[args.workload].make_items(args.seed)
    return 0


def write_reference() -> int:
    """Record the digests of the current outputs, and check that two seeds agree."""
    data = {}
    for size, tiny in (("full", False), ("tiny", True)):
        data[size] = {}
        for workload, spec in _specs(tiny).items():
            first = run_pass(spec, spec.make_items(0), None).digests
            second = run_pass(spec, spec.make_items(1), None).digests
            if first != second:
                print(f"error: {size} {workload} digests depend on the seed", file=sys.stderr)
                return 1
            data[size][workload] = first
            print(f"{size} {workload}: {len(first)} digests")
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def self_test() -> int:
    """Check the checks: corrupted outputs must fail, and every metric must be printed."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    if declared_e2e != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared_e2e} != {END_TO_END}")
    expected_layer = {name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()}
    if declared_layer != expected_layer:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    for workload, spec in _specs(True).items():
        items, reference = spec.make_items(0), _reference(workload, True)
        clean = run_pass(spec, items, reference)
        bad = run_pass(spec, items, reference, corrupt=True)
        print(
            f"{workload}: fail_frac {clean.failed / clean.attempted:g} on clean outputs, "
            f"{bad.failed / bad.attempted:g} on corrupted ones"
        )
        if clean.failed:
            problems.append(f"{workload}: clean outputs failed their checks")
        if not bad.failed:
            problems.append(f"{workload}: corrupted outputs passed their checks")
        for trace, run in ((0, measure(workload, 0, 0, tiny=True)), (1, measure_traced(workload, 0, 0, tiny=True))):
            line = json.loads(result_line(run, run["failed"] == 0))
            wanted = END_TO_END if trace == 0 else expected_layer
            printed = {name: m["unit"] for name, m in line["metrics"].items()}
            if printed != wanted:
                problems.append(f"{workload} trace {trace}: printed metrics differ from the declared ones")
            if line["failed"] or run.get("mismatches"):
                problems.append(f"{workload} trace {trace}: {line['failed']} failed, mismatches {run.get('mismatches')}")
            if trace:
                # A count that moves between seeds must be reported.
                summary = run["traced"][0][2]
                shifted = dict(summary, **{"betti.faces": summary["betti.faces"] + 1})
                if not count_mismatches([(0, summary), (1, shifted)]):
                    problems.append(f"{workload}: a changed count went unreported")
    for problem in problems:
        print(f"self-test problem: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="use the self-test inputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        return setup_only(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
