"""Acceptance gate: the ten verification criteria at their full grids.

Each test drives one criterion through the same checker the `verify-paper`
command uses, prints a single PASS/FAIL line, and fails with the offending
cases listed if anything regressed.  Everything is exact arithmetic; there
are no tolerances to tune.
"""

from __future__ import annotations

import re

import pytest

from wellspread import InvalidParams, build_q, build_schrijver, delete_edge, verify
from wellspread.verify import (
    check_certificates,
    check_chromatic_law,
    check_circular_deletion,
    check_edge_classification,
    check_fractional_law,
    check_independence,
    check_interlacing,
    check_rotation_structure,
    check_vertex_criticality,
    check_well_spread,
    run_all,
)


def _gate(result):
    verdict = "PASS" if result.passed else "FAIL"
    print(f"CRITERION {result.number} ({result.name}): {verdict} "
          f"[{len(result.cases)} cases]")
    bad = [c for c in result.cases if not c.ok]
    assert not bad, "\n".join(f"{c.label}: {c.detail}" for c in bad)


def test_criterion_01_chromatic_law():
    _gate(check_chromatic_law())


def _improper(find_proper_coloring):
    # vertex 0 takes the colour of its first neighbour
    def colouring(g, t):
        colours = find_proper_coloring(g, t)
        colours[0] = colours[(g.adj[0] & -g.adj[0]).bit_length() - 1]
        return colours
    return colouring


def _less_an_sg_edge(build_kneser):
    # KG(n,k) less the edge between the labels of SG(n,k)'s first edge
    def kneser(n, k):
        kg, sg = build_kneser(n, k), build_schrijver(n, k)
        at = {lab: i for i, lab in enumerate(kg.labels)}
        u, v = sg.edges()[0]
        return delete_edge(kg, at[sg.labels[u]], at[sg.labels[v]])
    return kneser


@pytest.mark.parametrize("name,tamper,detail", [
    ("find_proper_coloring", _improper, "-colorable=False, subgraph=True, sg pinned=True"),
    ("build_kneser", _less_an_sg_edge, "-colorable=True, subgraph=False, sg pinned=True"),
], ids=["improper-colouring", "kneser-less-an-sg-edge"])
def test_criterion_01_checks_what_it_cites(monkeypatch, name, tamper, detail):
    # KG's t-colouring counts only as a map into K_t, and SG only as an
    # embedding in KG by labels: either tampered, every KG case fails
    monkeypatch.setattr(verify, name, tamper(getattr(verify, name)))
    cases = check_chromatic_law(max_n=6).cases
    kneser = [c for c in cases if c.label.startswith("KG")]
    assert kneser and all(not c.ok and c.detail.endswith(detail) for c in kneser)
    assert all(c.ok for c in cases if not c.label.startswith("KG"))


def test_criterion_02_independence_numbers():
    _gate(check_independence())


def test_criterion_03_fractional_law():
    _gate(check_fractional_law())


def test_criterion_04_vertex_criticality():
    _gate(check_vertex_criticality(max_n=14))


def test_criterion_05_edge_classification():
    _gate(check_edge_classification(max_n=14))


def test_criterion_06_explicit_certificates():
    _gate(check_certificates())


def test_criterion_07_rotation_structure():
    _gate(check_rotation_structure())


def test_criterion_08_well_spread_machinery():
    _gate(check_well_spread(max_n=16))


def test_criterion_09_circular_deletion():
    _gate(check_circular_deletion())


def test_criterion_10_interlacing():
    _gate(check_interlacing(max_n=10))


def test_criterion_10_detail_counts_edges():
    details = {c.label: c.detail for c in check_interlacing(max_n=7).cases}
    for n, k in [(5, 2), (7, 2), (7, 3)]:
        want = f"all {build_q(n, k).edge_count()} edges present"
        assert details[f"Q({n},{k}) edges in I({n},{k})"] == want


def test_run_all_clamps_every_case_to_max_n():
    # every case label names the n of its graphs: SG(8,3), K_7/2, Z_7, n<=7
    pattern = re.compile(r"(?:[A-Z]\(|[ZK]_|n<=)(\d+)")
    ns = {c.label: list(map(int, pattern.findall(c.label)))
          for r in run_all(max_n=7) for c in r.cases}
    assert ns and all(ns.values())
    assert [label for label, found in ns.items() if max(found) > 7] == []


def test_run_all_looks_each_check_up_when_called(monkeypatch):
    # a wrapper set on the module by name, as perfbench/criteria_times.py sets
    # its timers, sees every criterion that run_all computes
    calls = []
    for name in [n for n in vars(verify) if n.startswith("check_")]:
        def wrapper(max_n, name=name, check=getattr(verify, name)):
            calls.append(name)
            return check(max_n)
        monkeypatch.setattr(verify, name, wrapper)
    results = verify.run_all(max_n=5)
    assert len(calls) == len(set(calls)) == 10
    assert [r.number for r in results] == list(range(1, 11))
    # 5 is the least max_n at which every criterion checks a case
    assert all(r.cases for r in results)


@pytest.mark.parametrize("check", [run_all, check_circular_deletion])
@pytest.mark.parametrize("max_n", [4, -5])
def test_a_max_n_below_5_is_refused(check, max_n):
    # at 4 criterion 9 checks no case, and below it most criteria check none
    with pytest.raises(InvalidParams, match="the least is 5"):
        check(max_n)
