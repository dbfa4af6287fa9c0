"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tree corpora hold every distinct distance-labeled tree, built
from the parent maps phi(j) > j that the labeling leaves fixed; graph
corpora cover all connected graphs up to isomorphism, relabeled admissibly.  All
comparisons are exact (integer or ideal equality, zero tolerance).
Criteria with a `homshift verify` suite run the check registered for it in
`homshift.corpus`, so the CLI and these tests share one implementation.
"""

from collections import Counter
from itertools import combinations

from homshift import (
    OracleCapError,
    betti_table,
    comp_edge_ideal,
    comp_power_ideal,
    hs1_formula,
    hs1_power_identity_check,
    hs1_via_lcm,
    hs_linear_quotients,
    hs_oracle,
    hs_power,
    pd_linear_quotients,
    pd_oracle,
    power_set_map,
)
from homshift.corpus import (
    SUITES,
    check_maximal_identity,
    check_monotonicity,
    connected_graphs,
    cycles,
    distance_labeled_trees,
)


def report(name: str, checked: int, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = f"{checked} checks"
    if failures:
        detail += f", {len(failures)} failures, first: {failures[0]}"
    print(f"[{status}] {name}: {detail}")
    assert not failures, f"{name}: {failures[:5]}"


def report_records(name: str, records: list) -> None:
    report(name, len(records), [r["instance"] for r in records if r["verdict"] is not True])


def suite_records(name: str, max_n: int) -> list:
    suite = SUITES[name]
    return [suite.check(x, **params) for x, params in suite.instances(max_n)]


def test_criterion_1_tree_pd_formula():
    checked, failures = 0, []
    for n in range(2, 8):
        for t in distance_labeled_trees(n):
            for s in range(1, n + 1):
                checked += 1
                got = pd_linear_quotients(power_set_map(t.graph, s))
                want = min(s, n - 2)
                if got != want:
                    failures.append((n, t.graph.edges, s, got, want))
    report("criterion 1: tree pd formula (n <= 7, s <= n)", checked, failures)


def test_criterion_2_cycle_pd_formula():
    checked, failures = 0, []
    for c in cycles(8):
        m = c.n // 2
        for s in range(1, 5):
            checked += 1
            got = pd_linear_quotients(power_set_map(c.graph, s))
            want = min(2 * s, 2 * m - 2) if c.n % 2 == 0 else min(2 * s, 2 * m)
            if got != want:
                failures.append((c.n, s, got, want))
    report("criterion 2: cycle pd formula (n <= 8, s <= 4)", checked, failures)


def test_criterion_3_set_map_equivalence():
    # Trees n <= 6 and cycles n <= 6, s <= 3: colon == even-connected == closed form.
    records = suite_records("set-maps", 6)
    report_records("criterion 3: set-map equivalence (n <= 6, s <= 3)", records)


def test_criterion_4_hs_closed_forms():
    # Trees n <= 6 (i <= s <= 3) and cycles n <= 6 (s <= 3, i < n, s >= i // 2).
    records = suite_records("hs-formulas", 6)
    report_records("criterion 4: HS closed forms (n <= 6, s <= 3)", records)


def mapping_cone_betti(sm) -> dict:
    """beta_{i,a} of an ideal with linear quotients, read off its set map.

    The mapping-cone resolution is then minimal, so beta_{i,a} counts the
    pairs (u, F) with F in set(u), |F| = i and x_F * u = x^a.
    """
    counts = Counter()
    for u, su in zip(sm.gens, sm.sets):
        for i in range(len(su) + 1):
            for face in combinations(su, i):
                a = list(u.exps)
                for v in face:
                    a[v - 1] += 1
                counts[(i, tuple(a))] += 1
    return dict(counts)


def test_criterion_5_oracle_concordance():
    # 273 of the 282 ideals fit under the oracle's default caps; the 9 that do
    # not are counted, so a change of caps cannot silently shrink coverage.
    checked, refused, failures = 0, 0, []
    for n in range(3, 7):
        for g in connected_graphs(n):
            for s in (1, 2):
                ideal = comp_power_ideal(g, s)
                try:
                    pd = pd_oracle(ideal)
                except OracleCapError:
                    refused += 1
                    continue
                sm = power_set_map(g, s)
                pd_lq = pd_linear_quotients(sm)
                checked += 1
                if pd != pd_lq:
                    failures.append(("pd", n, g.edges, s))
                checked += 1
                if betti_table(ideal).entries != mapping_cone_betti(sm):
                    failures.append(("betti", n, g.edges, s))
                for i in range(0, pd_lq + 2):
                    checked += 1
                    if hs_oracle(ideal, i) != hs_linear_quotients(sm, i):
                        failures.append(("hs", n, g.edges, s, i))
    report(
        f"criterion 5: oracle concordance (n <= 6, s <= 2, every beta_(i,a); {refused} refused)",
        checked,
        failures,
    )
    assert refused == 9, f"{refused} ideals refused by the oracle caps, expected 9"


def test_criterion_6_maximal_squarefree_identity():
    records = [
        check_maximal_identity(g, i)
        for n in range(3, 6)
        for g in connected_graphs(n)
        for i in range(1, n + 1)
    ]
    report_records("criterion 6: HS_i(I) + HS_{i-1}(mI) = m^[i] I (n <= 5)", records)


def test_criterion_7_hs1_structure():
    checked, failures = 0, []
    for n in range(3, 7):
        for g in connected_graphs(n):
            ideal = comp_edge_ideal(g)
            checked += 1
            if not hs1_formula(g) == hs1_via_lcm(ideal) == hs_power(g, 1, 1):
                failures.append(("triple", n, g.edges))
            for s in range(0, 4):
                checked += 1
                if not hs1_power_identity_check(g, s):
                    failures.append(("power", n, g.edges, s))
    report("criterion 7: HS_1 structure and power identity (n <= 6)", checked, failures)


def test_criterion_8_veronese_structure():
    # Every tree on 3..7 vertices, 1 <= i <= n - 2.
    records = suite_records("veronese", 7)
    report_records("criterion 8: Veronese structure of tree shifts (n <= 7)", records)


def test_criterion_9_caterpillar_realization():
    # Every profile of positive caps with |a| <= 5, every degree 1 <= d <= |a|.
    records = suite_records("caterpillar", 5)
    report_records("criterion 9: caterpillar realization (|a| <= 5)", records)


def test_criterion_10_monotonicity():
    graphs = [t.graph for n in range(3, 7) for t in distance_labeled_trees(n)]
    graphs += [c.graph for c in cycles(7)]
    graphs += [g for n in range(3, 7) for g in connected_graphs(n)]
    records = [check_monotonicity(g) for g in graphs]
    report_records("criterion 10: pd monotonicity and dichotomy", records)
