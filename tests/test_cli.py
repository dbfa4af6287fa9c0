import hashlib
import json
from itertools import combinations

import pytest

from homshift import CycleLabeling, Graph, MonomialIdeal, corpus, graph_to_dict, hs_power
from homshift.betti import DEFAULT_GEN_CAP
from homshift.cli import build_parser, main
from homshift.graphs import relabel_graph


def write_graph(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def p4(tmp_path):
    return write_graph(tmp_path, "p4.json", {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]})


@pytest.fixture
def c4(tmp_path):
    return write_graph(
        tmp_path, "c4.json", {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]], "kind": "cycle"}
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ideal_command(capsys, p4, c4):
    code, out, _ = run(capsys, "ideal", "--graph", p4, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert MonomialIdeal.from_dict(doc).num_gens() == 3
    code, out, _ = run(capsys, "ideal", "--graph", c4, "--s", "2", "--format", "json")
    assert code == 0
    assert MonomialIdeal.from_dict(json.loads(out)).num_gens() == 9


def test_ideal_round_trip_is_canonical(capsys, c4):
    _, out, _ = run(capsys, "ideal", "--graph", c4, "--s", "2", "--format", "json")
    doc = json.loads(out)
    assert MonomialIdeal.from_dict(doc).to_dict() == doc


def test_input_error_exit_codes(capsys, tmp_path):
    empty = write_graph(tmp_path, "empty.json", {"n": 4, "edges": []})
    code, _, err = run(capsys, "ideal", "--graph", empty)
    assert code == 2 and "input error" in err
    point = write_graph(tmp_path, "point.json", {"n": 1, "edges": []})
    for argv in (
        ("ideal",),
        ("ideal", "--s", "2"),
        ("pd",),
        ("hs", "--i", "0", "--s", "1"),
        ("setmap",),
        ("oracle",),
        ("oracle", "--s", "2", "--i", "0"),
    ):
        code, out, err = run(capsys, *argv, "--graph", point)
        assert code == 2 and out == "" and "graph has no edges" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, _ = run(capsys, "ideal", "--graph", str(bad))
    assert code == 2
    missing = str(tmp_path / "nope.json")
    code, _, _ = run(capsys, "ideal", "--graph", missing)
    assert code == 2
    lying = write_graph(
        tmp_path, "lying.json", {"n": 4, "edges": [[1, 2]], "kind": "cycle"}
    )
    code, _, _ = run(capsys, "ideal", "--graph", lying)
    assert code == 2
    for doc in (
        {"n": 3, "edges": [[1.7, 2], [2, 3]]},
        {"n": 3.9, "edges": [[1, 2], [2, 3]]},
        {"n": 3, "edges": [[True, 2], [2, 3]]},
        {"n": 3, "edges": [["1", 2], [2, 3]]},
    ):
        code, out, err = run(capsys, "ideal", "--graph", write_graph(tmp_path, "g.json", doc))
        assert code == 2 and out == "" and "input error" in err


def test_precondition_exit_codes(capsys, tmp_path, p4):
    disc = write_graph(tmp_path, "disc.json", {"n": 4, "edges": [[1, 2], [3, 4]]})
    # The first power of a disconnected graph is defined; higher powers need connectivity.
    for command in ("ideal", "oracle"):
        code, out, _ = run(capsys, command, "--graph", disc, "--s", "1")
        assert code == 0 and out
        code, out, err = run(capsys, command, "--graph", disc, "--s", "2")
        assert code == 3 and out == "" and "requires a connected graph" in err
    code, _, _ = run(capsys, "pd", "--graph", disc)
    assert code == 3
    code, _, _ = run(capsys, "caterpillar", "--profile", "1", "--d", "2")
    assert code == 3
    code, _, err = run(capsys, "veronese", "--caps=-1,2", "--d", "1")
    assert code == 3 and "precondition" in err
    for argv in (
        ("ideal", "--s", "-2"),
        ("ideal", "--s", "0"),
        ("oracle", "--s", "-1"),
        ("oracle", "--s", "0"),
        ("pd", "--s-max", "0"),
    ):
        code, out, err = run(capsys, *argv, "--graph", p4)
        assert code == 3 and out == "" and "power must be at least 1" in err
    # Arguments are checked before the graph is read, so a graph without
    # edges does not turn a bad power into an input error.
    point = write_graph(tmp_path, "point.json", {"n": 1, "edges": []})
    for argv in (
        ("ideal", "--s", "0"),
        ("pd", "--s-max", "0"),
        ("hs", "--i", "0", "--s", "0"),
        ("setmap", "--s", "0"),
        ("oracle", "--s", "0"),
    ):
        code, out, err = run(capsys, *argv, "--graph", point)
        assert code == 3 and out == "" and "power must be at least 1" in err
    for argv in (("hs", "--i", "-1"), ("oracle", "--i", "-1")):
        code, out, err = run(capsys, *argv, "--graph", point)
        assert code == 3 and out == "" and "homological index must be at least 0" in err


def test_pd_command_with_closed_form(capsys, c4):
    code, out, _ = run(capsys, "pd", "--graph", c4, "--s-max", "3", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["pd"] for r in rows] == [2, 2, 2]
    assert all(r["closed_form"] == r["pd"] for r in rows)


def test_hs_command(capsys, p4, c4):
    code, out, _ = run(capsys, "hs", "--graph", p4, "--i", "1", "--s", "1", "--format", "json")
    assert code == 0
    assert MonomialIdeal.from_dict(json.loads(out)).num_gens() == 2
    code, out, _ = run(capsys, "hs", "--graph", c4, "--i", "2", "--s", "1", "--format", "json")
    assert MonomialIdeal.from_dict(json.loads(out)) == MonomialIdeal.from_exponents(
        4, [(1, 1, 1, 1)]
    )
    code, out, _ = run(capsys, "hs", "--graph", c4, "--i", "3", "--s", "1", "--format", "json")
    assert MonomialIdeal.from_dict(json.loads(out)).is_zero()
    code, _, err = run(capsys, "hs", "--graph", c4, "--i", "2", "--s", "1", "--closed-form")
    assert code == 0 and "agrees" in err


def test_cycle_kind_accepts_any_labels(capsys, tmp_path):
    # The cycle 1-3-2-4-1: declared a cycle, it is checked as one in its own labels.
    doc = {"n": 4, "edges": [[1, 3], [3, 2], [2, 4], [4, 1]], "kind": "cycle"}
    c4 = write_graph(tmp_path, "c4-relabeled.json", doc)
    code, out, err = run(capsys, "hs", "--graph", c4, "--i", "2", "--s", "1", "--closed-form")
    assert code == 0 and out and "closed form agrees" in err


def test_setmap_command(capsys, c4):
    code, out, _ = run(capsys, "setmap", "--graph", c4, "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["set"] for r in records] == [[], [2], [1], [1, 2]]
    assert all(set(r) == {"monomial", "edges", "set"} for r in records)


def test_setmap_command_keeps_input_labels(capsys, tmp_path):
    # These labels are not suffix-connected: {3, 4, 5, 6} leaves vertex 4 isolated.
    c6 = relabel_graph(CycleLabeling(6).graph, (3, 6, 1, 4, 2, 5))
    path = write_graph(tmp_path, "c6.json", graph_to_dict(c6))
    code, out, _ = run(capsys, "setmap", "--graph", path, "--s", "2", "--format", "json")
    assert code == 0 and len(out.splitlines()) == 21
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "1efcca36ab3e09baaad4ade9881f7e356763e149a0d8abe02ab02a4e158581a1"


def test_setmap_command_output_digests(capsys, tmp_path):
    # K4 collides multisets on one monomial; this P6 is not suffix-connected.
    k4 = Graph(4, list(combinations(range(1, 5), 2)))
    p6 = relabel_graph(Graph(6, [(i, i + 1) for i in range(1, 6)]), (4, 1, 6, 2, 5, 3))
    expected = {
        "k4": (44, "cd356e3a3c3f83bb5867c3159fe6694b7833a65e60aebb374e2a6c4f0a1bbcb3"),
        "p6": (35, "729898f677705932f088c7a811a3253af199ebebf75be46070525c096dcc1e3b"),
    }
    for name, g in (("k4", k4), ("p6", p6)):
        path = write_graph(tmp_path, f"{name}.json", graph_to_dict(g))
        code, out, _ = run(capsys, "setmap", "--graph", path, "--s", "3", "--format", "json")
        assert code == 0
        assert (len(out.splitlines()), hashlib.sha256(out.encode()).hexdigest()) == expected[name]


def test_oracle_command(capsys, p4):
    code, out, _ = run(capsys, "oracle", "--graph", p4, "--i", "1", "--format", "json")
    assert code == 0
    assert MonomialIdeal.from_dict(json.loads(out)).num_gens() == 2
    code, out, _ = run(capsys, "oracle", "--graph", p4, "--format", "json")
    doc = json.loads(out)
    assert doc["entries"] and all(r["beta"] > 0 for r in doc["entries"])


def test_oracle_gen_cap_defaults_to_the_library_cap():
    parser = build_parser()
    assert parser.parse_args(["oracle", "--graph", "g.json"]).gen_cap == DEFAULT_GEN_CAP
    assert parser.parse_args(["oracle", "--graph", "g.json", "--gen-cap", "7"]).gen_cap == 7


def test_oracle_shift_ideal_honours_gen_cap(capsys, tmp_path, p4):
    c5 = write_graph(tmp_path, "c5.json", graph_to_dict(CycleLabeling(5).graph))
    code, out, err = run(capsys, "oracle", "--graph", c5, "--s", "2", "--gen-cap", "3", "--i", "1")
    assert code == 3 and out == "" and "cap of 3" in err
    c7 = CycleLabeling(7).graph
    path = write_graph(tmp_path, "c7.json", graph_to_dict(c7))
    argv = ("oracle", "--graph", path, "--s", "3", "--i", "1", "--format", "json")
    code, out, _ = run(capsys, *argv, "--gen-cap", "100")
    assert code == 0
    assert MonomialIdeal.from_dict(json.loads(out)) == hs_power(c7, 1, 3)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "cap of 60" in err
    code, out, err = run(capsys, "oracle", "--graph", p4, "--i", "-1")
    assert code == 3 and out == "" and "precondition" in err


def test_caterpillar_command(capsys):
    code, out, _ = run(capsys, "caterpillar", "--profile", "1,1", "--d", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["tree_edges"] == [[1, 2], [2, 3], [3, 4]]
    assert doc["content"] == [1, 0, 0, 1]
    code, _, _ = run(capsys, "caterpillar", "--profile", "2,1", "--d", "2")
    assert code == 0


def test_veronese_command(capsys):
    code, out, _ = run(capsys, "veronese", "--caps", "2,1", "--d", "2", "--format", "json")
    assert code == 0
    assert MonomialIdeal.from_dict(json.loads(out)) == MonomialIdeal.from_exponents(
        2, [(2, 0), (1, 1)]
    )


def test_verify_deterministic_and_green(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "all", "--max-n", "4")
    code2, out2, _ = run(capsys, "verify", "--suite", "all", "--max-n", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert records and all(r["verdict"] is True for r in records)
    checks = {r["check"] for r in records}
    assert {
        "set-maps/tree",
        "set-maps/cycle",
        "hs-formulas/tree",
        "hs-formulas/cycle",
        "maximal-identity",
        "veronese",
        "caterpillar",
        "monotonicity",
    } <= checks


def test_verify_output_digest(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "5")
    assert code == 0 and len(out.splitlines()) == 326
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "ae46d357bfacbe293b68f0b0f3ab3eb236f9579b6ab5d948493412b552b07921"


def test_verify_failing_check_exits_4(capsys, monkeypatch):
    suite = corpus.SUITES["caterpillar"]

    def failing(spec, **params):
        record = suite.check(spec, **params)
        return dict(record, verdict=False) if spec.caps == (2, 1) else record

    monkeypatch.setitem(corpus.SUITES, "caterpillar", suite._replace(check=failing))
    code, out, _ = run(capsys, "verify", "--suite", "caterpillar", "--max-n", "3")
    assert code == 4
    failed = [json.loads(line) for line in out.splitlines() if '"verdict":false' in line]
    assert [r["instance"] for r in failed] == [
        {"profile": [2, 1], "d": 1},
        {"profile": [2, 1], "d": 2},
        {"profile": [2, 1], "d": 3},
    ]


def test_verify_no_oracle_reports_skips(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "maximal-identity", "--max-n", "3", "--no-oracle")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r.get("skipped") and r["verdict"] is None for r in records)


def test_verify_refuses_format(capsys):
    # verify prints JSON lines whatever is asked, so it takes no --format.
    with pytest.raises(SystemExit) as exit:
        build_parser().parse_args(["verify", "--format", "text"])
    assert exit.value.code == 2 and "unrecognized arguments: --format" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
