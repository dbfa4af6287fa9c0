"""Command-line surface: graph ingestion, computations, and the verify runner.

Exit codes: 0 success, 2 malformed input, 3 precondition violation,
4 verification failure.  All JSON output is canonical (sorted keys, fixed
separators), so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus
from .betti import DEFAULT_GEN_CAP, betti_table
from .edge_ideals import (
    comp_edge_ideal,
    comp_power_ideal,
    pd_formula,
    pd_of_power,
    power_generators,
    power_set_map,
)
from .errors import InputFormatError, OracleCapError, PreconditionError
from .graphs import (
    Graph,
    graph_from_dict,
    is_connected,
    is_cycle_graph,
    is_tree,
)
from .monomials import MonomialIdeal, VeroneseSpec, veronese_type
from .shifts import caterpillar_realization, hs_closed_form, hs_power

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    graph, _ = graph_from_dict(data)
    if not graph.edges:
        raise InputFormatError("graph has no edges; the complementary edge ideal is undefined")
    return graph


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise PreconditionError("this command requires a connected graph")


def _power_ideal(g: Graph, s: int) -> MonomialIdeal:
    """I_c(g)^s; only powers above the first need a connected graph."""
    if s == 1:
        return comp_edge_ideal(g)
    _require_connected(g)
    return comp_power_ideal(g, s)


def _require_power(s: int) -> None:
    if s < 1:
        raise PreconditionError("power must be at least 1")


def _parse_int_vector(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise InputFormatError(f"{name} must be a comma-separated integer list") from exc


def _print_ideal(ideal: MonomialIdeal, fmt: str) -> None:
    if fmt == "json":
        print(_dump(ideal.to_dict()))
    else:
        print(f"{ideal}  [{ideal.num_gens()} generators, n={ideal.n}]")


def cmd_ideal(args) -> int:
    _require_power(args.s)
    _print_ideal(_power_ideal(_load_graph(args.graph), args.s), args.format)
    return EXIT_OK


def cmd_pd(args) -> int:
    _require_power(args.s_max)
    g = _load_graph(args.graph)
    _require_connected(g)
    closed = is_tree(g) or is_cycle_graph(g)
    rows = []
    mismatch = False
    for s in range(1, args.s_max + 1):
        row = {"s": s, "pd": pd_of_power(g, s)}
        if closed:
            row["closed_form"] = pd_formula(g, s)
            if row["closed_form"] != row["pd"]:
                mismatch = True
                row["mismatch"] = True
        rows.append(row)
    if args.format == "json":
        for row in rows:
            print(_dump(row))
    else:
        for row in rows:
            extra = f"  closed-form {row['closed_form']}" if closed else ""
            flag = "  MISMATCH" if row.get("mismatch") else ""
            print(f"s={row['s']}  pd={row['pd']}{extra}{flag}")
    return EXIT_VERIFICATION if mismatch else EXIT_OK


def cmd_hs(args) -> int:
    _require_power(args.s)
    if args.i < 0:
        raise PreconditionError("homological index must be at least 0")
    g = _load_graph(args.graph)
    _require_connected(g)
    ideal = hs_power(g, args.i, args.s)
    _print_ideal(ideal, args.format)
    if args.closed_form:
        formula = hs_closed_form(g, args.i, args.s)
        if formula is None:
            print("closed form: not applicable", file=sys.stderr)
        elif formula != ideal:
            print("closed form disagrees with linear quotients", file=sys.stderr)
            return EXIT_VERIFICATION
        else:
            print("closed form agrees", file=sys.stderr)
    return EXIT_OK


def cmd_setmap(args) -> int:
    _require_power(args.s)
    g = _load_graph(args.graph)
    _require_connected(g)
    gens = power_generators(g, args.s)
    sm = power_set_map(g, args.s)
    for row, edges, su in zip(gens.exps.tolist(), gens.edge_multisets(), sm.sets):
        record = {"monomial": row, "edges": [list(e) for e in edges], "set": sorted(su)}
        if args.format == "json":
            print(_dump(record))
        else:
            print(record)
    return EXIT_OK


def cmd_oracle(args) -> int:
    _require_power(args.s)
    if args.i is not None and args.i < 0:
        raise PreconditionError("homological index must be at least 0")
    g = _load_graph(args.graph)
    ideal = _power_ideal(g, args.s)
    table = betti_table(ideal, gen_cap=args.gen_cap)
    if args.i is not None:
        _print_ideal(MonomialIdeal.from_exponents(g.n, table.degrees_at(args.i)), args.format)
        return EXIT_OK
    doc = table.to_dict(ideal)
    if args.format == "json":
        print(_dump(doc))
    else:
        for row in doc["entries"]:
            print(f"i={row['i']}  deg={row['deg']}  beta={row['beta']}")
    return EXIT_OK


def cmd_caterpillar(args) -> int:
    profile = _parse_int_vector(args.profile, "--profile")
    if not profile or any(x < 1 for x in profile):
        raise PreconditionError("profile entries must be positive")
    if not 1 <= args.d <= sum(profile):
        raise PreconditionError(f"degree must lie in [1, {sum(profile)}]")
    tree, content, verdict = caterpillar_realization(VeroneseSpec(profile, args.d))
    doc = {
        "profile": list(profile),
        "d": args.d,
        "tree_edges": [list(e) for e in tree.graph.edges],
        "content": list(content.exps),
        "verdict": verdict,
    }
    if args.format == "json":
        print(_dump(doc))
    else:
        print(f"tree edges: {doc['tree_edges']}")
        print(f"content u = {content}")
        print(f"verdict: {verdict}")
    return EXIT_OK if verdict else EXIT_VERIFICATION


def cmd_veronese(args) -> int:
    caps = _parse_int_vector(args.caps, "--caps")
    if any(c < 0 for c in caps):
        raise PreconditionError("caps must be nonnegative")
    if args.d < 0 or args.d > sum(caps):
        raise PreconditionError(f"degree must lie in [0, {sum(caps)}]")
    _print_ideal(veronese_type(VeroneseSpec(caps, args.d)), args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(corpus.SUITES)
    elif args.suite in corpus.SUITES:
        names = [args.suite]
    else:
        raise InputFormatError(
            f"unknown suite {args.suite!r}; choose from {', '.join(corpus.SUITES)} or all"
        )
    if not 2 <= args.max_n <= 7:
        raise PreconditionError("--max-n must lie in [2, 7]")
    failed = False
    for name in names:
        suite = corpus.SUITES[name]
        for subject, params in suite.instances(args.max_n):
            if suite.needs_oracle and args.no_oracle:
                record = {
                    "check": name,
                    "instance": corpus.describe_instance(subject, **params),
                    "verdict": None,
                    "skipped": True,
                }
            else:
                record = suite.check(subject, **params)
            print(_dump(record))
            failed |= record["verdict"] is False
    return EXIT_VERIFICATION if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homshift",
        description="Homological shift ideals and projective dimensions of "
        "complementary edge ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True):
        if graph:
            p.add_argument("--graph", required=True, help="path to a graph JSON file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p = sub.add_parser("ideal", help="print the complementary edge ideal or a power")
    add_common(p)
    p.add_argument("--s", type=int, default=1, help="power (default 1)")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("pd", help="projective dimension of powers")
    add_common(p)
    p.add_argument("--s-max", type=int, default=4, help="scan powers 1..s_max")
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("hs", help="a homological shift ideal of a power")
    add_common(p)
    p.add_argument("--i", type=int, required=True, help="homological index")
    p.add_argument("--s", type=int, default=1, help="power (default 1)")
    p.add_argument(
        "--closed-form",
        action="store_true",
        help="also evaluate the tree/cycle closed form and compare",
    )
    p.set_defaults(func=cmd_hs)

    p = sub.add_parser("setmap", help="per-generator colon sets of a power")
    add_common(p)
    p.add_argument("--s", type=int, default=1, help="power (default 1)")
    p.set_defaults(func=cmd_setmap)

    p = sub.add_parser("oracle", help="brute-force Betti table or shift ideal")
    add_common(p)
    p.add_argument("--s", type=int, default=1, help="power (default 1)")
    p.add_argument("--i", type=int, default=None, help="print HS_i instead of the table")
    p.add_argument(
        "--gen-cap", type=int, default=DEFAULT_GEN_CAP, help="refuse ideals above this generator count"
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a verification suite over the built-in corpus")
    p.add_argument(
        "--suite",
        default="all",
        help=f"one of: {', '.join(corpus.SUITES)}, all (default all)",
    )
    p.add_argument("--max-n", type=int, default=5, help="largest vertex count (<= 7)")
    p.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip Betti-oracle-backed checks, reporting them as skipped",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("caterpillar", help="realize a Veronese-type ideal on a caterpillar")
    add_common(p, graph=False)
    p.add_argument("--profile", required=True, help="comma-separated positive caps")
    p.add_argument("--d", type=int, required=True, help="Veronese degree")
    p.set_defaults(func=cmd_caterpillar)

    p = sub.add_parser("veronese", help="print an ideal of Veronese type")
    add_common(p, graph=False)
    p.add_argument("--caps", required=True, help="comma-separated cap vector")
    p.add_argument("--d", type=int, required=True, help="degree")
    p.set_defaults(func=cmd_veronese)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PreconditionError, OracleCapError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
