import hashlib
import json

import pytest

from homshift import MonomialIdeal, corpus
from homshift.cli import main


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


def test_precondition_exit_codes(capsys, tmp_path, p4):
    disc = write_graph(tmp_path, "disc.json", {"n": 4, "edges": [[1, 2], [3, 4]]})
    code, _, err = run(capsys, "ideal", "--graph", disc, "--s", "2")
    assert code == 3 and "precondition" in err
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


def test_setmap_command(capsys, c4):
    code, out, _ = run(capsys, "setmap", "--graph", c4, "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["set"] for r in records] == [[], [2], [1], [1, 2]]
    assert all(set(r) == {"monomial", "edges", "set"} for r in records)


def test_oracle_command(capsys, p4):
    code, out, _ = run(capsys, "oracle", "--graph", p4, "--i", "1", "--format", "json")
    assert code == 0
    assert MonomialIdeal.from_dict(json.loads(out)).num_gens() == 2
    code, out, _ = run(capsys, "oracle", "--graph", p4, "--format", "json")
    doc = json.loads(out)
    assert doc["entries"] and all(r["beta"] > 0 for r in doc["entries"])


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


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
