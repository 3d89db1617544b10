"""Deletion sweeps: vertex criticality, edge classification, boundary scan."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from conftest import cycle, mk

from wellspread import (
    InvalidParams,
    Invariant,
    SweepSummary,
    build_circular,
    build_interlacing,
    build_kneser,
    build_q,
    build_schrijver,
    circular_chromatic_number,
    circular_edge_corollary,
    delete_edge,
    delete_vertex,
    edge_criticality,
    evaluate_invariant,
    fractional_chromatic_number,
    is_cycle_edge,
    q_equals_schrijver_sweep,
    vertex_criticality,
)
from wellspread import criticality
from wellspread.graphs import dihedral_automorphisms


def test_evaluate_invariant_dispatch():
    c5 = cycle(5)
    assert evaluate_invariant(c5, Invariant.CHI) == 3
    assert evaluate_invariant(c5, Invariant.CHI_F) == Fraction(5, 2)
    assert evaluate_invariant(c5, Invariant.CHI_C) == Fraction(5, 2)


def test_vertex_criticality_on_rotation_graph():
    rep = vertex_criticality(build_q(7, 2), Invariant.CHI_F)
    assert rep.baseline == Fraction(7, 2)
    assert rep.summary is SweepSummary.VERTEX_CRITICAL
    assert len(rep.per_vertex) == 7
    assert all(val == 3 for _, val in rep.per_vertex)


def test_vertex_criticality_q_5_2():
    rep = vertex_criticality(build_q(5, 2), Invariant.CHI_F)
    assert rep.baseline == Fraction(5, 2)
    assert all(val == 2 for _, val in rep.per_vertex)
    assert rep.summary is SweepSummary.VERTEX_CRITICAL


def test_vertex_criticality_mixed_and_not():
    # P_3: deleting the middle vertex kills the only edges, ends change nothing
    p3 = mk(3, [(0, 1), (1, 2)])
    rep = vertex_criticality(p3, Invariant.CHI)
    assert rep.summary is SweepSummary.MIXED
    rep = vertex_criticality(cycle(6), Invariant.CHI)
    assert rep.summary is SweepSummary.NOT_CRITICAL


def test_edge_criticality_7_2():
    rep = edge_criticality(build_q(7, 2))
    assert rep.baseline == Fraction(7, 2)
    assert rep.summary is SweepSummary.EDGE_CLASSIFICATION
    assert len(rep.per_edge) == 14
    cycle_rows = [(e, v) for e, v, f in rep.per_edge if f]
    chord_rows = [(e, v) for e, v, f in rep.per_edge if not f]
    assert len(cycle_rows) == 7 and all(v == 3 for _, v in cycle_rows)
    assert len(chord_rows) == 7 and all(v == Fraction(7, 2) for _, v in chord_rows)


def test_edge_criticality_5_2_all_edges_critical():
    rep = edge_criticality(build_q(5, 2))
    assert len(rep.per_edge) == 5
    assert all(flag for _, _, flag in rep.per_edge)
    assert all(val == 2 for _, val in ((e, v) for e, v, _ in rep.per_edge))
    assert rep.summary is SweepSummary.EDGE_CLASSIFICATION


def test_edge_criticality_reduces_non_coprime_input():
    rep = edge_criticality(build_q(6, 2))
    assert rep.metadata.get("original_params") == (6, 2)
    assert rep.family.n == 3 and rep.family.k == 1
    assert rep.baseline == 3


def test_edge_criticality_rejects_other_families():
    with pytest.raises(InvalidParams):
        edge_criticality(build_circular(7, 2))


def test_circular_corollary_7_2():
    rep = circular_edge_corollary(7, 2)
    assert rep.baseline == Fraction(7, 2)
    assert rep.summary is SweepSummary.EDGE_CLASSIFICATION
    crit = [(e, v) for e, v, f in rep.per_edge if f]
    loose = [(e, v) for e, v, f in rep.per_edge if not f]
    assert len(crit) == 7 and all(v == 3 for _, v in crit)
    assert len(loose) == 7 and all(v == Fraction(7, 2) for _, v in loose)
    assert all(min((e[1] - e[0]) % 7, (e[0] - e[1]) % 7) == 2 for e, _ in crit)
    assert rep.metadata.get("critical_value") == Fraction(3)


def test_circular_corollary_5_2():
    rep = circular_edge_corollary(5, 2)
    assert all(flag for _, _, flag in rep.per_edge)
    assert all(v == 2 for _, v, _ in rep.per_edge)


def test_circular_corollary_rejects_non_coprime():
    with pytest.raises(Exception):
        circular_edge_corollary(6, 2)


def test_boundary_sweep_matches_prediction():
    rep = q_equals_schrijver_sweep(9)
    assert rep.all_match
    for entry in rep.entries:
        predicted = entry.k == 1 or entry.n == 2 * entry.k or entry.n == 2 * entry.k + 1
        assert entry.predicted == predicted
        assert entry.equal == predicted


# The sweeps solve one deletion per certified automorphism orbit; the
# literal sweeps below solve every deleted graph.


def literal_vertex_sweep(g, invariant):
    baseline = evaluate_invariant(g, invariant)
    rows = tuple((v, evaluate_invariant(delete_vertex(g, v), invariant))
                 for v in range(g.vertex_count))
    drops = sum(1 for _, val in rows if val < baseline)
    if rows and drops == len(rows):
        summary = SweepSummary.VERTEX_CRITICAL
    elif drops == 0:
        summary = SweepSummary.NOT_CRITICAL
    else:
        summary = SweepSummary.MIXED
    return baseline, rows, summary


def literal_edge_summary(rows, baseline):
    if all(val == baseline for _, val, _ in rows):
        return SweepSummary.NOT_CRITICAL
    if all((val < baseline) == flag for _, val, flag in rows):
        return SweepSummary.EDGE_CLASSIFICATION
    return SweepSummary.MIXED


def assert_vertex_sweep_is_literal(g, invariant):
    rep = vertex_criticality(g, invariant)
    baseline, rows, summary = literal_vertex_sweep(g, invariant)
    assert (rep.baseline, rep.per_vertex, rep.summary) == (baseline, rows, summary)


FAMILIES = {"q": build_q, "sg": build_schrijver, "kneser": build_kneser,
            "interlacing": build_interlacing}


@pytest.mark.parametrize("tag", sorted(FAMILIES))
@pytest.mark.parametrize("invariant", [Invariant.CHI_F, Invariant.CHI])
def test_vertex_sweep_matches_literal_sweep(tag, invariant):
    # Every family graph with n <= 9, except where one literal sweep costs
    # tens of seconds: under CHI_F the graphs above 20 vertices (KG(7,3)-v
    # needs column generation; KG(8,4) alone takes ~12 s, SG(9,3) ~4.5 s),
    # and under CHI the 4-colour refutations of KG(9,3)-v.
    for n in range(2, 10):
        for k in range(1, n // 2 + 1):
            g = FAMILIES[tag](n, k)
            if invariant is Invariant.CHI_F and g.vertex_count > 20:
                continue
            if invariant is Invariant.CHI and (tag, n, k) == ("kneser", 9, 3):
                continue
            assert_vertex_sweep_is_literal(g, invariant)


def test_vertex_sweep_matches_literal_sweep_after_an_edge_deletion():
    # labels still rotate onto themselves, but only some deletions keep the
    # reflection an automorphism
    q = build_q(7, 2)
    for e in q.edges():
        assert_vertex_sweep_is_literal(delete_edge(q, *e), Invariant.CHI_F)


def test_q_edge_sweep_matches_literal_sweep():
    for n in range(2, 12):
        for k in range(1, n // 2 + 1):
            rep = edge_criticality(build_q(n, k))
            g = gcd(n, k)
            q = build_q(n // g, k // g)
            baseline = fractional_chromatic_number(q)[0]
            rows = tuple(
                (e, fractional_chromatic_number(delete_edge(q, *e))[0], is_cycle_edge(q, *e))
                for e in q.edges()
            )
            assert rep.baseline == baseline
            assert rep.per_edge == rows
            assert rep.summary is literal_edge_summary(rows, baseline)


def test_circular_edge_corollary_matches_literal_sweep():
    for n in range(2, 12):
        for k in range(1, n // 2 + 1):
            if gcd(n, k) != 1:
                continue
            rep = circular_edge_corollary(n, k)
            g = build_circular(n, k)
            baseline = circular_chromatic_number(g)
            rows = []
            for e in g.edges():
                d = (e[1] - e[0]) % n
                rows.append((e, circular_chromatic_number(delete_edge(g, *e)),
                             min(d, n - d) == k))
            assert rep.baseline == baseline
            assert rep.per_edge == tuple(rows)
            assert rep.summary is literal_edge_summary(rows, baseline)


@pytest.fixture
def solver_calls(monkeypatch):
    calls = []

    def counted(name):
        solver = getattr(criticality, name)

        def wrapper(g, *args, **kwargs):
            calls.append(g)
            return solver(g, *args, **kwargs)

        monkeypatch.setattr(criticality, name, wrapper)

    counted("fractional_chromatic_number")
    counted("circular_chromatic_number")
    return calls


def test_sweeps_solve_once_per_orbit(solver_calls):
    # Q(n,k) is vertex-transitive and has (n-2k+1)/2 dihedral edge orbits
    rep = edge_criticality(build_q(23, 7))
    assert len(rep.per_edge) == 115
    assert len(solver_calls) == 1 + 5
    solver_calls.clear()
    rep = circular_edge_corollary(17, 5)
    assert len(rep.per_edge) == 68
    assert len(solver_calls) == 1 + 4
    solver_calls.clear()
    rep = vertex_criticality(build_q(29, 9), Invariant.CHI_F)
    assert len(rep.per_vertex) == 29
    assert len(solver_calls) == 1 + 1


def test_sweep_without_a_certified_symmetry_solves_every_deletion(solver_calls):
    # the labels of Q(7,2) minus an edge still rotate onto themselves, but
    # neither the rotation nor the reflection preserves its adjacency
    h = delete_edge(build_q(7, 2), 0, 1)
    assert dihedral_automorphisms(h) == []
    rep = vertex_criticality(h, Invariant.CHI_F)
    assert len(solver_calls) == 1 + 7
    assert (rep.baseline, rep.per_vertex, rep.summary) == literal_vertex_sweep(
        h, Invariant.CHI_F)
