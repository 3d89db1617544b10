"""Fractional chromatic numbers: LP exactness, certificates, family laws."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from conftest import complete, cycle, mk

from wellspread import (
    FractionalColoring,
    build_circular,
    build_kneser,
    build_q,
    build_schrijver,
    covering_lp_over_pool,
    enumerate_maximal_independent_sets,
    fractional_chromatic_number,
    independence_number,
    verify_fractional_coloring,
)


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
