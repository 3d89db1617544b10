"""Deletion sweeps: vertex criticality, edge classification, boundary scan."""

from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from conftest import complete, cycle, mk

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
from wellspread import certificates, coloring, criticality, fractional, graphs, serialize
from wellspread.certificates import (
    edge_deleted_coloring,
    vertex_deleted_coloring,
    vertex_deleted_retraction,
)
from wellspread.cli import main
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
    rep = circular_edge_corollary(build_circular(7, 2))
    assert rep.baseline == Fraction(7, 2)
    assert rep.summary is SweepSummary.EDGE_CLASSIFICATION
    crit = [(e, v) for e, v, f in rep.per_edge if f]
    loose = [(e, v) for e, v, f in rep.per_edge if not f]
    assert len(crit) == 7 and all(v == 3 for _, v in crit)
    assert len(loose) == 7 and all(v == Fraction(7, 2) for _, v in loose)
    assert all(min((e[1] - e[0]) % 7, (e[0] - e[1]) % 7) == 2 for e, _ in crit)
    assert rep.metadata.get("critical_value") == Fraction(3)


def test_circular_corollary_5_2():
    rep = circular_edge_corollary(build_circular(5, 2))
    assert all(flag for _, _, flag in rep.per_edge)
    assert all(v == 2 for _, v, _ in rep.per_edge)


def test_circular_corollary_rejects_non_coprime():
    with pytest.raises(Exception):
        circular_edge_corollary(build_circular(6, 2))


def test_circular_corollary_rejects_other_families():
    with pytest.raises(InvalidParams):
        circular_edge_corollary(build_q(7, 2))
    with pytest.raises(InvalidParams):
        circular_edge_corollary(delete_vertex(build_circular(7, 2), 0))


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


def test_chi_sweep_keeps_the_bracket_at_two_colors_and_below():
    # chi(g) <= 2 takes no witness: the empty graph, one vertex (whose
    # deletion leaves the empty graph, chi 0), edgeless and bipartite graphs
    star = mk(5, [(0, v) for v in range(1, 5)])
    k23 = mk(5, [(u, v) for u in range(2) for v in range(2, 5)])
    path = mk(4, [(0, 1), (1, 2), (2, 3)])
    for g in (mk(0, []), mk(1, []), mk(4, []), mk(2, [(0, 1)]), star, k23, path):
        assert_vertex_sweep_is_literal(g, Invariant.CHI)
    rep = vertex_criticality(mk(1, []), Invariant.CHI)
    assert (rep.baseline, rep.per_vertex) == (1, ((0, 0),))
    assert vertex_criticality(mk(0, []), Invariant.CHI).per_vertex == ()


def test_chi_sweep_matches_literal_sweep_on_random_graphs():
    # graphs without labels on Z_n: no certified symmetry, one question per vertex
    rng = random.Random(20261019)
    for trial in range(200):
        n = rng.randint(1, 9)
        p = rng.choice([0.3, 0.5, 0.7, 0.9])
        g = mk(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        assert_vertex_sweep_is_literal(g, Invariant.CHI)
    for g in (complete(5), cycle(7), mk(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                                             if (i, j) != (0, 1)])):
        assert_vertex_sweep_is_literal(g, Invariant.CHI)


@pytest.fixture
def colorability_calls(monkeypatch):
    """The graph of every is_t_colorable call, from the sweep or from chi."""
    calls = []
    decide = coloring.is_t_colorable

    def recording(g, *args, **kwargs):
        calls.append(g)
        return decide(g, *args, **kwargs)

    monkeypatch.setattr(coloring, "is_t_colorable", recording)
    monkeypatch.setattr(criticality, "is_t_colorable", recording)
    return calls


def test_a_failed_rlf_witness_falls_back_to_the_solver(monkeypatch, colorability_calls):
    def improper(d):
        return [0] * d.vertex_count  # one color, on a graph with edges

    def too_many(d):
        return list(range(d.vertex_count))  # proper, but one color per vertex

    # SG(8,3) and SG(9,3) are vertex-critical, KG(7,2) is not critical at all
    for g in (build_schrijver(8, 3), build_schrijver(9, 3), build_kneser(7, 2)):
        want = literal_vertex_sweep(g, Invariant.CHI)
        for tampered in (improper, too_many):
            monkeypatch.setattr(criticality, "rlf_coloring", tampered)
            colorability_calls.clear()
            rep = vertex_criticality(g, Invariant.CHI)
            assert any(d is not g for d in colorability_calls), (g.family, tampered)
            assert (rep.baseline, rep.per_vertex, rep.summary) == want, (g.family, tampered)


def test_rlf_settles_every_orbit_of_sg_10_2(monkeypatch, colorability_calls):
    # every orbit's deleted graph is 7-colored by RLF and checked there, so
    # is_t_colorable runs only inside chromatic_number on the intact graph
    g = build_schrijver(10, 2)
    witnesses = []
    rlf = criticality.rlf_coloring

    def counted(d):
        witnesses.append(d)
        return rlf(d)

    monkeypatch.setattr(criticality, "rlf_coloring", counted)
    rep = vertex_criticality(g, Invariant.CHI)
    assert rep.baseline == 8 and rep.summary is SweepSummary.VERTEX_CRITICAL
    assert all(val == 7 for _, val in rep.per_vertex)
    orbits = set(criticality._solve_per_orbit(
        range(g.vertex_count), dihedral_automorphisms(g), list.__getitem__, lambda v: v))
    assert len(witnesses) == len(orbits)
    assert colorability_calls and all(h is g for h in colorability_calls)


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
            g = build_circular(n, k)
            rep = circular_edge_corollary(g)
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

    def wrapper(g, invariant, deletion, *args, **kwargs):
        value = witness(g, invariant, deletion, *args, **kwargs)
        if value is not None:
            hits.append(deletion)
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
    # Q(n,k) and circular(n,k) are vertex-transitive and have (n-2k+1)/2
    # dihedral edge orbits.  Each orbit is settled once, by a witness pair on
    # coprime Q(n,k) and circular(n,k) and by the solver elsewhere; the
    # baseline is always the solver's, and it pins through the rotation orbit
    # without the LP.
    rep = edge_criticality(build_q(23, 7))
    assert len(rep.per_edge) == 115
    assert len(solver_calls) + len(witnessed) == 1 + 5
    assert len(solver_calls) == 1 and lp_runs == []
    solver_calls.clear()
    witnessed.clear()
    rep = circular_edge_corollary(build_circular(17, 5))
    assert len(rep.per_edge) == 68
    assert (len(solver_calls), len(witnessed)) == (1, 4) and lp_runs == []
    solver_calls.clear()
    witnessed.clear()
    rep = vertex_criticality(build_q(29, 9), Invariant.CHI_F)
    assert len(rep.per_vertex) == 29
    assert len(solver_calls) + len(witnessed) == 1 + 1
    assert len(solver_calls) == 1 and lp_runs == []
    solver_calls.clear()
    witnessed.clear()
    rep = vertex_criticality(build_q(29, 9), Invariant.CHI_C)
    assert len(solver_calls) == 1 and len(witnessed) == 1


@pytest.fixture
def builds(monkeypatch):
    """(builder, n, k) of every build_q / build_circular call, through any
    module or the CLI's family table."""
    calls = []
    for name, tag in (("build_q", "q"), ("build_circular", "circular")):
        original = getattr(graphs, name)

        def wrapper(n, k, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, n, k))
            return _original(n, k, *args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("wellspread") and \
                    vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)
        monkeypatch.setitem(serialize._BUILDERS, tag, wrapper)
    return calls


@pytest.fixture
def deletions(monkeypatch):
    """The arguments of every delete_vertex / delete_edge call of a sweep."""
    calls = []
    for name in ("delete_vertex", "delete_edge"):
        original = getattr(criticality, name)

        def wrapper(g, *args, _original=original):
            calls.append(args)
            return _original(g, *args)

        monkeypatch.setattr(criticality, name, wrapper)
    return calls


@pytest.mark.parametrize("sweep", ["vertex 29 9 chi_f", "vertex 29 9 chi_c", "edges 27 8",
                                   "edges 23 7"])
def test_sweeps_build_each_graph_once(builds, deletions, witnessed, sweep):
    # the sweep's frame holds the swept Q(n,k) itself, and only chi_c reads
    # Q(a,b) and K_{a/b}, built once; an orbit settled by its witness builds
    # no deleted graph
    kind, n, k, *rest = sweep.split()
    n, k = int(n), int(k)
    cp = critical_params(n, k)
    g = build_q(n, k)
    builds.clear()
    if kind == "vertex":
        invariant = Invariant(rest[0])
        vertex_criticality(g, invariant)
    else:
        invariant = Invariant.CHI_F
        edge_criticality(g)
    assert witnessed and deletions == []
    if invariant is Invariant.CHI_F:
        assert builds == []
    else:
        assert ("build_q", cp.a, cp.b) in builds
        assert len(builds) == len(set(builds)), sorted(builds)


def test_circular_edge_sweep_reads_the_graph_the_request_built(builds, capsys):
    # the sweep reads the graph the request built, and its chi_c baseline
    # takes that graph as its own target K_{17/5}
    assert main(["criticality", "--family", "circular", "--n", "17", "--k", "5", "--edges"]) == 0
    assert builds.count(("build_circular", 17, 5)) == 1
    assert builds.count(("build_q", 17, 5)) == 1


def test_q_frame_of_a_circular_graph_above_the_default_cap():
    # the frame's Q(n,k) is built at the cap the swept graph was built under
    g = build_circular(10001, 5000, vertex_cap=20000)
    where, frame = criticality._q_frame(g)
    assert frame.q.family == graphs.FamilyParams("q", 10001, 5000)
    assert len(where) == 10001 and where[5000] == 1


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
        frame = criticality._q_frame(q)
        baseline = Fraction(n, k)
        autos = dihedral_automorphisms(q)
        for v in range(n):
            got = criticality._retraction_witness(q, Invariant.CHI_F, v, baseline, frame)
            assert got is not None, (n, k, v)
            if v == 0:
                assert got == fractional_chromatic_number(delete_vertex(q, v))[0]
        edges = q.edges()
        got = {e: criticality._retraction_witness(q, Invariant.CHI_F, e, baseline, frame)
               for e in edges}
        assert None not in got.values(), (n, k)
        firsts = criticality._solve_per_orbit(
            edges, autos, criticality._edge_image, lambda e: e)
        for e in set(firsts):
            assert got[e] == fractional_chromatic_number(delete_edge(q, *e))[0]
        if n <= 13:
            got = criticality._retraction_witness(q, Invariant.CHI_C, 0, baseline, frame)
            assert got is not None and got == circular_chromatic_number(delete_vertex(q, 0))
            assert all(criticality._retraction_witness(
                q, Invariant.CHI_C, v, baseline, frame) == got for v in range(1, n)), (n, k)
    # circular(n,k) gets the same pairs through circular(n,k) ~ Q(n,k)
    solvers = {Invariant.CHI_F: lambda h: fractional_chromatic_number(h)[0],
               Invariant.CHI_C: circular_chromatic_number}
    for n, k in coprime_q(17):
        g = build_circular(n, k)
        frame = criticality._q_frame(g)
        baseline = Fraction(n, k)
        edges = g.edges()
        firsts = set(criticality._solve_per_orbit(
            edges, dihedral_automorphisms(g), criticality._edge_image, lambda e: e))
        for invariant, solve in solvers.items():
            got = [criticality._retraction_witness(g, invariant, v, baseline, frame)
                   for v in range(n)]
            assert None not in got and len(set(got)) == 1, (n, k, invariant)
            assert got[0] == solve(delete_vertex(g, 0)), (n, k, invariant)
            got = {e: criticality._retraction_witness(g, invariant, e, baseline, frame)
                   for e in edges}
            assert None not in got.values(), (n, k, invariant)
            for e in firsts:
                assert got[e] == solve(delete_edge(g, *e)), (n, k, invariant, e)
    # a chord's value rests on the exact baseline n/k; any other baseline
    # leaves it to the solver
    q = build_q(7, 2)
    frame = criticality._q_frame(q)
    chord = next(e for e in q.edges() if not is_cycle_edge(q, *e))
    assert criticality._retraction_witness(
        q, Invariant.CHI_F, chord, Fraction(7, 2), frame) == Fraction(7, 2)
    assert criticality._retraction_witness(q, Invariant.CHI_F, chord, Fraction(4), frame) is None
    assert criticality._retraction_witness(q, Invariant.CHI_F, 0, Fraction(7, 2), None) is None


def test_witnessed_value_checks_the_exclusion():
    # the Q(13,5) - 4 pair on Q(13,5) itself, with vertex 4 as the exclusion
    q = build_q(13, 5)
    b = critical_params(13, 5).b
    fc = vertex_deleted_coloring(13, 5, 4)
    support = list(vertex_deleted_retraction(13, 5, 4).section.values())
    assert witnessed_value(q, fc, support, b) == Fraction(5, 2)
    # every window of 5 positions is a copy of Q(5,2) with alpha 2; the one
    # anchored at 4 holds the excluded vertex, so it is no clique of Q(13,5) - 4
    f = certificates._frame(13, 5)

    def window(anchor):
        return [x for x, _ in certificates._anchored_copy(f, anchor)]

    assert sorted(window(3)) == sorted(support)
    assert 4 in window(4) and witnessed_value(q, fc, window(4), b) is None
    # an edge-deleted pair: alpha is bounded on the deleted graph's own rows,
    # where the window holding both ends of the excluded edge is C_5 less an
    # edge, with alpha 3 > 2
    fc = edge_deleted_coloring(13, 5, (4, 5))
    assert 4 in window(4) and 5 not in window(4)
    assert witnessed_value(q, fc, window(4), b) == Fraction(5, 2)
    assert {4, 5} <= set(window(5)) and witnessed_value(q, fc, window(5), b) is None
    # without its exclusion the colouring does not cover the edge's ends
    assert witnessed_value(q, dataclasses.replace(fc, excluded_edge=None), window(4), b) is None


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


def test_witnessed_value_may_hold_both_ends_of_the_excluded_edge():
    # the support {0, 2, 3, 5} holds both ends of the excluded edge {0, 5}:
    # in g it spans the triangle 0, 2, 5, in D = g - {0, 5} the path
    # 0 - 2 - 5 - 3, and alpha is 2 in both, so the weights 1/2 on it are a
    # fractional clique of D of value 2, which D's own LP colouring meets
    g = mk(6, [(0, 2), (0, 5), (1, 4), (2, 5), (3, 5)])
    value, fc = fractional_chromatic_number(delete_edge(g, 0, 5))
    fc = dataclasses.replace(fc, excluded_edge=(0, 5))
    assert value == 2 and not verify_fractional_coloring(g, fc)
    assert witnessed_value(g, fc, (0, 2, 3, 5), 2) == 2


def sweep_without_witnesses(monkeypatch, sweep):
    with monkeypatch.context() as m:
        m.setattr(criticality, "_retraction_witness", lambda *args, **kwargs: None)
        return sweep()


def test_tampered_colouring_falls_back_to_the_solver(monkeypatch, solver_calls):
    # a sweep hands its frame to the constructors' cores, so those are tampered
    def short(f, v):
        fc = certificates._vertex_deleted_coloring(f, v)
        return dataclasses.replace(fc, sets=fc.sets[:-1], weights=fc.weights[:-1])

    def elsewhere(f, v):  # a valid colouring, of another deletion
        return certificates._vertex_deleted_coloring(f, (v + 1) % f.n)

    q = build_q(13, 5)
    want = sweep_without_witnesses(monkeypatch, lambda: vertex_criticality(q, Invariant.CHI_F))
    for tampered in (short, elsewhere):
        with monkeypatch.context() as m:
            m.setattr(criticality, "_vertex_deleted_coloring", tampered)
            solver_calls.clear()
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
    def bent(f, anchor, *exclusion):
        m = certificates._fold(f, anchor, *exclusion)
        mapping = dict(m.mapping)
        u = next(iter(mapping))
        mapping[u] = (mapping[u] + 1) % m.target.vertex_count
        return dataclasses.replace(m, mapping=mapping)

    q = build_q(11, 3)
    want = sweep_without_witnesses(monkeypatch, lambda: vertex_criticality(q, Invariant.CHI_C))
    solver_calls.clear()
    monkeypatch.setattr(criticality, "_fold", bent)
    assert vertex_criticality(q, Invariant.CHI_C) == want
    assert len(solver_calls) == 1 + 1


def test_circular_chords_of_a_complete_graph_fail_the_dual_check(
        monkeypatch, solver_calls, witnessed):
    # circular(7,1) is K_7: deleting a chord leaves alpha = 2 > k, so its
    # orbits fall to the solver, while the distance-1 orbit keeps its witness
    g = build_circular(7, 1)
    want = sweep_without_witnesses(monkeypatch, lambda: circular_edge_corollary(g))
    solver_calls.clear()
    assert circular_edge_corollary(g) == want
    assert len(witnessed) == 1
    assert len(solver_calls) == 1 + 2


def test_tampered_circular_witnesses_fall_back_to_the_solver(monkeypatch, solver_calls):
    def short(f, p):
        fc = certificates._edge_deleted_coloring(f, p)
        return dataclasses.replace(fc, sets=fc.sets[:-1], weights=fc.weights[:-1])

    def bent(f, anchor, *exclusion):
        m = certificates._fold(f, anchor, *exclusion)
        mapping = dict(m.mapping)
        u = next(iter(mapping))
        mapping[u] = (mapping[u] + 1) % m.target.vertex_count
        return dataclasses.replace(m, mapping=mapping)

    g = build_circular(11, 3)
    want = sweep_without_witnesses(monkeypatch, lambda: circular_edge_corollary(g))
    for name, tampered in (("_edge_deleted_coloring", short),
                           ("_fold", bent)):
        with monkeypatch.context() as m:
            m.setattr(criticality, name, tampered)
            solver_calls.clear()
            assert circular_edge_corollary(g) == want, name
            assert len(solver_calls) == 1 + 1, name


@pytest.mark.parametrize("n,k", [(29, 9), (41, 13)])
def test_circular_edge_corollary_closed_form(n, k):
    # past the reach of a per-orbit solver: (29,9) took about a minute that way
    rep = circular_edge_corollary(build_circular(n, k))
    cp = critical_params(n, k)
    assert rep.baseline == Fraction(n, k)
    assert len(rep.per_edge) == n * (n - 2 * k + 1) // 2
    for (u, v), val, flag in rep.per_edge:
        d = (v - u) % n
        assert flag == (min(d, n - d) == k)
        assert val == (Fraction(cp.a, cp.b) if flag else Fraction(n, k)), (u, v)
    assert rep.summary is SweepSummary.EDGE_CLASSIFICATION
