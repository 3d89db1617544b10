"""Fractional chromatic numbers: LP exactness, certificates, family laws."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete, covering_lp_over_pool, cycle, mk

from wellspread import (
    FractionalColoring,
    build_circular,
    build_kneser,
    build_q,
    build_schrijver,
    delete_vertex,
    edge_deleted_coloring,
    enumerate_maximal_independent_sets,
    fractional_chromatic_number,
    independence_number,
    verify_fractional_coloring,
    vertex_deleted_coloring,
)
from wellspread.fractional import _coloring_passes, _coloring_violations
from wellspread.graphs import iter_bits


def chi_f(g):
    value, cert = fractional_chromatic_number(g)
    assert verify_fractional_coloring(g, cert) == []
    assert cert.value == value
    return value


def test_odd_cycles_and_cliques():
    assert chi_f(cycle(5)) == Fraction(5, 2)
    assert chi_f(cycle(7)) == Fraction(7, 3)
    assert chi_f(complete(6)) == 6
    assert chi_f(cycle(6)) == 2
    assert chi_f(mk(3, [])) == 1
    assert chi_f(mk(0, [])) == 0


def test_kneser_fractional_is_n_over_k():
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            want = Fraction(n, k)
            assert chi_f(build_kneser(n, k)) == want
            assert chi_f(build_schrijver(n, k)) == want
    assert chi_f(build_q(13, 5)) == Fraction(13, 5)
    assert chi_f(build_circular(7, 2)) == Fraction(7, 2)


def test_vertex_transitive_ratio_is_tight():
    for g in (build_kneser(5, 2), build_schrijver(7, 2), build_q(11, 3), cycle(9)):
        assert chi_f(g) == Fraction(g.vertex_count, independence_number(g))


def test_column_generation_matches_full_pool_lp():
    # exhaustive pool over all independent sets on every graph with <= 9 vertices
    graphs = [cycle(5), cycle(7), complete(4), build_q(7, 2), build_q(9, 4),
              mk(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])]
    for g in graphs:
        V = g.vertex_count
        pool = []
        for r in range(1, V + 1):
            for c in combinations(range(V), r):
                if all(not g.has_edge(u, v) for u, v in combinations(c, 2)):
                    pool.append(c)
        full, _ = covering_lp_over_pool(g, pool)
        assert fractional_chromatic_number(g)[0] == full


def test_maximal_pool_suffices():
    for g in (cycle(5), build_q(7, 3), build_kneser(6, 2)):
        pool = enumerate_maximal_independent_sets(g)
        val, _ = covering_lp_over_pool(g, pool)
        assert val == fractional_chromatic_number(g)[0]


def test_verifier_rejects_defects():
    g = cycle(5)
    ok = FractionalColoring(
        sets=((0, 2), (1, 3), (2, 4), (3, 0), (4, 1)),
        weights=(Fraction(1, 2),) * 5,
    )
    assert verify_fractional_coloring(g, ok) == []
    dependent = FractionalColoring(sets=((0, 1),), weights=(Fraction(3),))
    assert any("independent" in m or "edge" in m for m in verify_fractional_coloring(g, dependent))
    uncovered = FractionalColoring(sets=((0, 2),), weights=(Fraction(1),))
    assert verify_fractional_coloring(g, uncovered)
    negative = FractionalColoring(
        sets=((0, 2), (1, 3), (2, 4), (3, 0), (4, 1)),
        weights=(Fraction(1, 2),) * 4 + (Fraction(-1, 2),),
    )
    assert verify_fractional_coloring(g, negative)
    out_of_range = FractionalColoring(sets=((0, 9),), weights=(Fraction(1),))
    assert verify_fractional_coloring(g, out_of_range)


def test_verifier_messages_and_order():
    g = cycle(5)
    half, third = Fraction(1, 2), Fraction(1, 3)
    # two edges inside one set, reported in (u, v) order
    fc = FractionalColoring(sets=((2, 0, 1),), weights=(Fraction(1),))
    assert verify_fractional_coloring(g, fc) == [
        "set 0 not independent: edge {0,1}",
        "set 0 not independent: edge {1,2}",
        "vertex 3 covered only 0",
        "vertex 4 covered only 0",
    ]
    # only the excluded edge is tolerated, in either orientation
    fc = FractionalColoring(sets=((0, 1, 2), (3,), (4,)), weights=(Fraction(1),) * 3,
                            excluded_edge=(1, 0))
    assert verify_fractional_coloring(g, fc) == ["set 0 not independent: edge {1,2}"]
    # mixed denominators: the shortfall is the exact sum of the weights
    fc = FractionalColoring(sets=((0, 2), (0, 3), (1, 3), (2, 4)),
                            weights=(half, third, Fraction(1), half))
    assert verify_fractional_coloring(g, fc) == [
        "vertex 0 covered only 5/6",
        "vertex 4 covered only 1/2",
    ]
    # set defects in set order, then coverage in vertex order
    fc = FractionalColoring(
        sets=((0, 2, 2), (1, 9), (3,), (1, 3, 4, 0)),
        weights=(Fraction(1), Fraction(2), -half, third),
        excluded_vertex=4,
    )
    assert verify_fractional_coloring(g, fc) == [
        "set 0 repeats vertex 2",
        "set 1 uses invalid vertex 9",
        "set 2 has negative weight -1/2",
        "set 3 uses invalid vertex 4",
        "set 3 not independent: edge {0,1}",
        "vertex 3 covered only -1/6",
    ]


def _tamper(rng, n, fc):
    """fc with one random defect or change of exclusion (which may be harmless)."""
    sets = [list(s) for s in fc.sets]
    weights = list(fc.weights)
    i = rng.randrange(len(sets))
    kind = rng.randrange(7)
    if kind == 0:  # a member more: a neighbour, a repeat, the deletion or out of range
        sets[i].insert(rng.randrange(len(sets[i]) + 1), rng.randrange(-1, n + 1))
    elif kind == 1 and sets[i]:  # a member less
        sets[i].pop(rng.randrange(len(sets[i])))
    elif kind == 2:
        weights[i] = rng.choice([-weights[i], weights[i] / 2, Fraction(0), weights[i] * 3])
    elif kind == 3:
        return replace(fc, sets=tuple(map(tuple, sets)), weights=tuple(weights),
                       excluded_vertex=rng.choice([None, rng.randrange(-1, n + 1)]))
    elif kind == 4:
        u = rng.randrange(-1, n + 1)
        return replace(fc, excluded_edge=rng.choice([None, (u, (u + 1) % n), (u + 1, u),
                                                     (u, rng.randrange(n + 2))]))
    elif kind == 5:  # two sets merged
        j = rng.randrange(len(sets))
        sets[i] = sets[i] + sets[j]
    else:  # a set swapped for an arbitrary one
        sets[i] = rng.sample(range(n), rng.randrange(n // 2 + 1))
    return replace(fc, sets=tuple(map(tuple, sets)), weights=tuple(weights))


def test_quick_pass_agrees_with_the_member_walk():
    # the whole-set pass must accept exactly the colorings in which the
    # member-by-member walk finds no fault, on the vertex- and edge-deletion
    # certificates of small Q(n,k), random tamperings of them, and graphs with
    # a self-loop (which no walk reports)
    rng = random.Random(11)
    cases = []
    for n, k in [(7, 2), (11, 4), (13, 5), (17, 5)]:
        q = build_q(n, k)
        for v in range(n):
            cases.append((q, vertex_deleted_coloring(n, k, v)))
            cases.append((q, edge_deleted_coloring(n, k, (v, (v + 1) % n))))
    loop = mk(5, [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    cases.append((loop, FractionalColoring(((0, 2), (1, 3), (2, 4), (3, 0), (4, 1)),
                                           (Fraction(1, 2),) * 5)))

    for g, fc in cases[:-1]:  # the certificates pass without the walk
        assert _coloring_passes(g, fc), fc
    accepted = rejected = 0
    for g, fc in cases:
        for variant in [fc] + [_tamper(rng, g.vertex_count, fc) for _ in range(8)]:
            want = _coloring_violations(g, variant)
            assert verify_fractional_coloring(g, variant) == want, variant
            accepted += not want
            rejected += bool(want)
    assert accepted > len(cases) and rejected > len(cases)


_DEFECTS = ["repeat", "negative", "at least V", "excluded vertex", "neighbour"]


@st.composite
def _certified(draw):
    """A graph and a valid coloring of it: a deletion certificate of a small
    Q(n,k), whose sets are maximal, or the singletons of a random graph less
    an optional vertex, whose sets leave room for a defect that no other
    test of the quick pass would catch."""
    if draw(st.booleans()):
        n, k = draw(st.sampled_from([(7, 2), (11, 4), (13, 5), (17, 5)]))
        v = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            return build_q(n, k), edge_deleted_coloring(n, k, (v, (v + 1) % n))
        return build_q(n, k), vertex_deleted_coloring(n, k, v)
    V = draw(st.integers(2, 9))
    pairs = list(combinations(range(V), 2))
    g = mk(V, draw(st.lists(st.sampled_from(pairs), unique=True)))
    ev = draw(st.none() | st.integers(0, V - 1))
    kept = [u for u in range(V) if u != ev]
    return g, FractionalColoring(tuple((u,) for u in kept), (Fraction(1),) * len(kept),
                                 excluded_vertex=ev)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_certified(), st.data())
def test_quick_pass_agrees_with_the_walk_on_each_kind_of_defect(certified, data):
    # each defect the quick pass finds by a whole-set test (a repeat, a
    # negative member, a member >= V, the excluded vertex, an edge by the
    # adjacency masks), put into one or more sets of a valid coloring at a
    # drawn position
    g, fc = certified
    V = g.vertex_count
    excl_e = None if fc.excluded_edge is None else tuple(sorted(fc.excluded_edge))
    excluded = [fc.excluded_vertex] if fc.excluded_vertex is not None else list(excl_e or ())
    sets = [list(s) for s in fc.sets]
    for _ in range(data.draw(st.integers(1, 3), label="defects")):
        s = sets[data.draw(st.integers(0, len(sets) - 1), label="set")]
        kind = data.draw(st.sampled_from(_DEFECTS), label="kind")
        if kind == "repeat":
            x = data.draw(st.sampled_from(s), label="member")
        elif kind == "negative":
            x = data.draw(st.integers(-2 * V, -1), label="member")
        elif kind == "at least V":
            x = data.draw(st.integers(V, 2 * V), label="member")
        elif kind == "excluded vertex":
            x = data.draw(st.sampled_from(excluded or range(V)), label="member")
        else:
            u = data.draw(st.sampled_from([m for m in s if 0 <= m < V]), label="member")
            x = data.draw(st.sampled_from(list(iter_bits(g.adj[u])) or [u]), label="neighbour")
        s.insert(data.draw(st.integers(0, len(s)), label="position"), x)
    tampered = replace(fc, sets=tuple(map(tuple, sets)))
    want = _coloring_violations(g, tampered)
    assert _coloring_passes(g, tampered) == (not want), (tampered, want)
    assert verify_fractional_coloring(g, tampered) == want


_WEIGHTS = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
                            Fraction(2, 3), Fraction(3, 2), Fraction(-1, 2), Fraction(-1)])


@st.composite
def _random_coloring(draw):
    """A random simple graph on at most 8 vertices and a random coloring of it:
    an optional cover by singletons, one to three times over (so that valid
    colorings are common and counts reach 3), then sets whose members may
    repeat, fall outside 0..V-1 on either side or be the excluded vertex,
    empty sets, the two ends of the excluded edge, and zero, negative and
    mixed weights, in a drawn order."""
    V = draw(st.integers(1, 8))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(V), 2))),
                          unique=True)) if V > 1 else []
    g = mk(V, edges)
    ev = ee = None
    kind = draw(st.sampled_from(["none", "vertex", "edge"] * 3 + ["bad"]))
    if kind == "vertex":
        ev = draw(st.integers(0, V - 1))
    elif kind == "edge" and edges:
        ee = draw(st.sampled_from(edges))
        ee = ee[::-1] if draw(st.booleans()) else ee
    elif kind == "bad":  # an exclusion that no certificate may make
        ev = draw(st.sampled_from([-1, V]))
    copies = draw(st.integers(0, 3))  # of a cover by singletons, each of weight 1/copies
    pairs = [((u,), Fraction(1, copies)) for _ in range(copies) for u in range(V) if u != ev]
    if not draw(st.integers(0, 2)):  # any member and any weight
        member, weight = st.integers(-V - 2, V + 2), _WEIGHTS
    else:  # members in range, weights not negative
        member, weight = st.integers(0, V - 1), _WEIGHTS.filter(lambda w: w >= 0)
    pairs += draw(st.lists(st.tuples(st.lists(member, max_size=4).map(tuple), weight),
                           max_size=4))
    if ee is not None and draw(st.booleans()):
        pairs.append((ee, draw(_WEIGHTS)))
    pairs = draw(st.permutations(pairs))
    return g, FractionalColoring(tuple(s for s, _ in pairs), tuple(w for _, w in pairs),
                                 excluded_vertex=ev, excluded_edge=ee)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_random_coloring())
def test_quick_pass_holds_exactly_when_the_walk_finds_nothing(case):
    # the oracle: the member-by-member walk, on random graphs and colorings
    g, fc = case
    want = _coloring_violations(g, fc)
    assert _coloring_passes(g, fc) == (want == []), want


def test_verifier_reports_impossible_exclusions():
    q = build_q(7, 2)
    fc = vertex_deleted_coloring(7, 2, 3)
    assert verify_fractional_coloring(q, replace(fc, excluded_edge=(0, 9))) == [
        "both a vertex and an edge excluded",
        "excluded edge {0,9} is not an edge",
    ]
    assert verify_fractional_coloring(q, replace(fc, excluded_vertex=5000)) == [
        "excluded vertex 5000 out of range 0..6"]
    fc = edge_deleted_coloring(7, 2, (0, 1))
    assert verify_fractional_coloring(q, replace(fc, excluded_edge=(3, 3))) == [
        "excluded edge {3,3} is not an edge"]
    assert verify_fractional_coloring(q, replace(fc, excluded_edge=(0, 3))) == [
        "excluded edge {0,3} is not an edge"]


def test_verifier_honors_exclusions():
    g = cycle(5)
    # minus vertex 0 the 4-path needs only weight 2
    fc = FractionalColoring(sets=((1, 3), (2, 4)), weights=(Fraction(1), Fraction(1)),
                            excluded_vertex=0)
    assert verify_fractional_coloring(g, fc) == []
    # same sets are short once vertex 0 must be covered again
    assert verify_fractional_coloring(
        g, FractionalColoring(sets=((1, 3), (2, 4)), weights=(Fraction(1), Fraction(1))))
    # a set crossing only the deleted edge is independent in the deleted graph
    fc = FractionalColoring(
        sets=((0, 1, 3), (2, 4), (1, 3), (0, 2)),
        weights=(Fraction(1), Fraction(1), Fraction(0), Fraction(1)),
        excluded_edge=(0, 1),
    )
    assert verify_fractional_coloring(g, fc) == []


def test_column_generation_pivot_count(monkeypatch):
    # SG(10,3) and KG(7,3) minus a vertex have no rotation, so column
    # generation solves them, from a pool seeded with the label stars; the
    # integer tableau must keep the pivot sequence of the Fraction tableau it
    # replaced (186 and 943 pivots without the seeds)
    from wellspread import simplex

    pivots = []
    pivot = simplex.PackingMaster._pivot

    def counted(self, r, j):
        pivots.append((r, j))
        return pivot(self, r, j)

    monkeypatch.setattr(simplex.PackingMaster, "_pivot", counted)
    assert chi_f(delete_vertex(build_schrijver(10, 3), 0)) == Fraction(10, 3)
    assert len(pivots) == 27
    pivots.clear()
    assert chi_f(delete_vertex(build_kneser(7, 3), 0)) == Fraction(7, 3)
    assert len(pivots) == 176


def test_lp_dual_weights_are_checked(monkeypatch):
    # the optimal dual y is the lower-bound witness: a y that no longer sums
    # to the value is refused like a failing covering
    from wellspread import simplex

    solution = simplex.PackingMaster.solution

    def scaled_down(self):
        value, y, w = solution(self)
        return value, [x / 2 for x in y], w

    monkeypatch.setattr(simplex.PackingMaster, "solution", scaled_down)
    with pytest.raises(AssertionError, match="LP dual weights fail"):
        fractional_chromatic_number(cycle(7))


def test_relabeled_copy_agrees_without_family_fast_path():
    q = build_q(11, 3)
    perm = [(7 * i + 3) % 11 for i in range(11)]
    shuffled = mk(11, [(perm[u], perm[v]) for u, v in q.edges()])
    assert shuffled.family is None
    assert fractional_chromatic_number(shuffled)[0] == Fraction(11, 3)


def test_circular_family_pins_through_the_rotation_orbit():
    # the circular family's labels are residues; rotating one maximum
    # independent arc n times pins n/k without column generation
    assert chi_f(build_circular(51, 25)) == Fraction(51, 25)
    value, cert = fractional_chromatic_number(build_circular(17, 5))
    assert value == Fraction(17, 5)
    assert len(cert.sets) == 17 and set(cert.weights) == {Fraction(1, 5)}
