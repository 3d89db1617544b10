"""Deletion sweeps: vertex criticality, edge classification, boundary scan."""

from __future__ import annotations

import dataclasses
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
from wellspread import criticality, fractional
from wellspread.certificates import vertex_deleted_coloring, vertex_deleted_retraction
from wellspread.cyclic import critical_params
from wellspread.fractional import FractionalColoring, verify_fractional_coloring, witnessed_value
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


@pytest.fixture
def witnessed(monkeypatch):
    """Deletions settled by a witness pair, one entry per success."""
    hits = []
    witness = criticality._retraction_witness

    def wrapper(q, d, *args, **kwargs):
        value = witness(q, d, *args, **kwargs)
        if value is not None:
            hits.append(d)
        return value

    monkeypatch.setattr(criticality, "_retraction_witness", wrapper)
    return hits


@pytest.fixture
def lp_runs(monkeypatch):
    runs = []
    column_generation = fractional._column_generation

    def wrapper(g):
        runs.append(g)
        return column_generation(g)

    monkeypatch.setattr(fractional, "_column_generation", wrapper)
    return runs


def test_sweeps_solve_once_per_orbit(solver_calls, witnessed, lp_runs):
    # Q(n,k) is vertex-transitive and has (n-2k+1)/2 dihedral edge orbits.
    # Each orbit is settled once, by a witness pair on coprime Q(n,k) and by
    # the solver elsewhere; the baseline is always the solver's, and on Q(n,k)
    # it pins through the rotation orbit without the LP.
    rep = edge_criticality(build_q(23, 7))
    assert len(rep.per_edge) == 115
    assert len(solver_calls) + len(witnessed) == 1 + 5
    assert len(solver_calls) == 1 and lp_runs == []
    solver_calls.clear()
    witnessed.clear()
    rep = circular_edge_corollary(17, 5)
    assert len(rep.per_edge) == 68
    assert (len(solver_calls), len(witnessed)) == (1 + 4, 0)
    solver_calls.clear()
    lp_runs.clear()
    rep = vertex_criticality(build_q(29, 9), Invariant.CHI_F)
    assert len(rep.per_vertex) == 29
    assert len(solver_calls) + len(witnessed) == 1 + 1
    assert len(solver_calls) == 1 and lp_runs == []
    solver_calls.clear()
    witnessed.clear()
    rep = vertex_criticality(build_q(29, 9), Invariant.CHI_C)
    assert len(solver_calls) == 1 and len(witnessed) == 1


def test_sweep_without_a_certified_symmetry_solves_every_deletion(solver_calls):
    # the labels of Q(7,2) minus an edge still rotate onto themselves, but
    # neither the rotation nor the reflection preserves its adjacency
    h = delete_edge(build_q(7, 2), 0, 1)
    assert dihedral_automorphisms(h) == []
    rep = vertex_criticality(h, Invariant.CHI_F)
    assert len(solver_calls) == 1 + 7
    assert (rep.baseline, rep.per_vertex, rep.summary) == literal_vertex_sweep(
        h, Invariant.CHI_F)


def coprime_q(max_n):
    return [(n, k) for n in range(5, max_n + 1) for k in range(2, (n - 1) // 2 + 1)
            if gcd(n, k) == 1]


def test_retraction_witness_matches_the_solvers():
    # every deletion has a witness pair; one deletion per orbit is solved too
    for n, k in coprime_q(17):
        q = build_q(n, k)
        orbit_fc = fractional_chromatic_number(q)[1]
        autos = dihedral_automorphisms(q)
        for v in range(n):
            d = delete_vertex(q, v)
            got = criticality._retraction_witness(q, d, Invariant.CHI_F, v)
            assert got is not None, (n, k, v)
            if v == 0:
                assert got == fractional_chromatic_number(d)[0]
        edges = q.edges()
        got = {e: criticality._retraction_witness(
            q, delete_edge(q, *e), Invariant.CHI_F, e, orbit_fc) for e in edges}
        assert None not in got.values(), (n, k)
        firsts = criticality._solve_per_orbit(
            edges, autos, criticality._edge_image, lambda e: e)
        for e in set(firsts):
            assert got[e] == fractional_chromatic_number(delete_edge(q, *e))[0]
        if n <= 13:
            d = delete_vertex(q, 0)
            got = criticality._retraction_witness(q, d, Invariant.CHI_C, 0)
            assert got is not None and got == circular_chromatic_number(d), (n, k)
            assert all(criticality._retraction_witness(
                q, delete_vertex(q, v), Invariant.CHI_C, v) == got for v in range(1, n))


def test_witnessed_value_rejects_tampered_pairs():
    q = build_q(13, 5)
    d = delete_vertex(q, 4)
    fc = vertex_deleted_coloring(13, 5, 4)
    fc = FractionalColoring(tuple(tuple(u - (u > 4) for u in s) for s in fc.sets), fc.weights)
    support = [u - (u > 4) for u in vertex_deleted_retraction(13, 5, 4).section.values()]
    b = critical_params(13, 5).b
    assert witnessed_value(d, fc, support, b) == Fraction(5, 2)
    # a colouring missing a set covers too little (and is worth too little)
    short = FractionalColoring(fc.sets[1:], fc.weights[1:])
    assert witnessed_value(d, short, support, b) is None
    assert witnessed_value(d, short, support[1:], b) is None
    # a set that is not independent
    bad = FractionalColoring((fc.sets[0] + fc.sets[1],) + fc.sets[2:], fc.weights)
    assert verify_fractional_coloring(d, bad)
    assert witnessed_value(d, bad, support, b) is None
    # the whole of C_5 3-coloured: value 3 = |{0,1,2}|/1, but alpha(P_3) = 2 > 1
    c5 = cycle(5)
    three = FractionalColoring(((0, 2), (1, 3), (4,)), (Fraction(1),) * 3)
    assert not verify_fractional_coloring(c5, three)
    assert witnessed_value(c5, three, [0, 1, 2], 1) is None
    assert witnessed_value(c5, three, [0, 1, 5], 1) is None


def sweep_without_witnesses(monkeypatch, sweep):
    with monkeypatch.context() as m:
        m.setattr(criticality, "_retraction_witness", lambda *args, **kwargs: None)
        return sweep()


def test_tampered_colouring_falls_back_to_the_solver(monkeypatch, solver_calls):
    def short(n, k, v):
        fc = vertex_deleted_coloring(n, k, v)
        return FractionalColoring(fc.sets[:-1], fc.weights[:-1])

    q = build_q(13, 5)
    want = sweep_without_witnesses(monkeypatch, lambda: vertex_criticality(q, Invariant.CHI_F))
    solver_calls.clear()
    monkeypatch.setattr(criticality, "vertex_deleted_coloring", short)
    assert vertex_criticality(q, Invariant.CHI_F) == want
    assert len(solver_calls) == 1 + 1


def test_chords_of_a_complete_graph_fail_the_dual_check(monkeypatch, solver_calls, witnessed):
    # Q(7,1) is K_7: deleting a chord leaves alpha = 2 > k, so its orbits
    # fall to the solver, while the cycle-edge orbit keeps its witness
    q = build_q(7, 1)
    want = sweep_without_witnesses(monkeypatch, lambda: edge_criticality(q))
    solver_calls.clear()
    assert edge_criticality(q) == want
    assert len(witnessed) == 1
    assert len(solver_calls) == 1 + 2


def test_tampered_homomorphism_falls_back_to_the_solver(monkeypatch, solver_calls):
    def bent(n, k, v):
        m = vertex_deleted_retraction(n, k, v)
        mapping = dict(m.mapping)
        u = next(iter(mapping))
        mapping[u] = (mapping[u] + 1) % m.target.vertex_count
        return dataclasses.replace(m, mapping=mapping)

    q = build_q(11, 3)
    want = sweep_without_witnesses(monkeypatch, lambda: vertex_criticality(q, Invariant.CHI_C))
    solver_calls.clear()
    monkeypatch.setattr(criticality, "vertex_deleted_retraction", bent)
    assert vertex_criticality(q, Invariant.CHI_C) == want
    assert len(solver_calls) == 1 + 1
