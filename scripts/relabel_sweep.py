"""Relabeling sweep: one sha256 over the power outputs of shuffled connected graphs.

Every connected graph on 2 to 6 vertices is relabeled by 3 seeded random
permutations; each copy is evaluated at s = 1, 2, 3 (s = 1, 2 on 6
vertices), 942 instances in all.  Per instance the digest takes in the
``homshift setmap --format json`` output, pd of the power, the power ideal
from ``comp_power_ideal``, and ``hs_power`` and ``hs_closed_form`` for
i = 0..n, all in the shuffled labels.  A change that keeps every output
keeps the digest.

Run from the repository root (a few seconds):

    PYTHONPATH=src python3 scripts/relabel_sweep.py

It prints the instance count and the hex digest on one line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from homshift.cli import main
from homshift.corpus import connected_graphs
from homshift.edge_ideals import comp_power_ideal, pd_of_power
from homshift.graphs import graph_to_dict, relabel_graph
from homshift.shifts import hs_closed_form, hs_power

RELABELINGS = 3


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _setmap_output(path: Path, s: int) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["setmap", "--graph", str(path), "--s", str(s), "--format", "json"])
    if code != 0:
        raise SystemExit(f"setmap exited {code} on {path.read_text()} at s = {s}")
    return out.getvalue().encode()


def sweep(workdir: Path) -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for n in range(2, 7):
        for index, graph in enumerate(connected_graphs(n)):
            rng = random.Random(1000 * n + index)
            for k in range(RELABELINGS):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                g = relabel_graph(graph, tuple(perm))
                doc = graph_to_dict(g)
                path = workdir / f"g{n}_{index}_{k}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                for s in range(1, (3 if n < 6 else 2) + 1):
                    count += 1
                    digest.update(_dump(dict(doc, s=s)))
                    digest.update(_setmap_output(path, s))
                    digest.update(_dump({"pd": pd_of_power(g, s)}))
                    digest.update(_dump(comp_power_ideal(g, s).to_dict()))
                    for i in range(n + 1):
                        closed = hs_closed_form(g, i, s)
                        digest.update(_dump({
                            "i": i,
                            "hs": hs_power(g, i, s).to_dict(),
                            "closed": None if closed is None else closed.to_dict(),
                        }))
    return count, digest.hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        count, hexdigest = sweep(Path(tmp))
    print(f"{count} {hexdigest}")
