"""Homomorphism and isomorphism search, circular chromatic numbers."""

from __future__ import annotations

from fractions import Fraction

from conftest import complete, cycle, mk

from wellspread import (
    build_circular,
    build_kneser,
    build_q,
    chromatic_number,
    circular_candidates,
    circular_chromatic_number,
    delete_edge,
    find_homomorphism,
    find_isomorphism,
    validate_map,
)


def test_cycle_to_clique_homomorphisms():
    c5, k3, k2 = cycle(5), complete(3), complete(2)
    m = find_homomorphism(c5, k3)
    assert m is not None and validate_map(m) == []
    assert find_homomorphism(c5, k2) is None
    # even cycles fold onto an edge
    m = find_homomorphism(cycle(6), k2)
    assert m is not None and validate_map(m) == []


def test_hom_existence_respects_circular_order():
    # K_{7/2} -> K_{5/2} would collapse the odd girth; reverse direction works
    k72, k52 = build_circular(7, 2), build_circular(5, 2)
    assert find_homomorphism(k52, k72) is not None
    assert find_homomorphism(k72, k52) is None


def test_isomorphism_q_reductions():
    m = find_isomorphism(build_q(6, 2), build_q(3, 1))
    assert m is not None and validate_map(m) == []
    m = find_isomorphism(build_q(10, 4), build_q(5, 2))
    assert m is not None and validate_map(m) == []
    assert find_isomorphism(build_q(7, 2), build_q(7, 3)) is None
    assert find_isomorphism(cycle(6), cycle(5)) is None
    # same degree sequence, different structure: C_6 vs two triangles
    two_triangles = mk(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert find_isomorphism(cycle(6), two_triangles) is None


def test_petersen_is_kneser_5_2():
    petersen_edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ]
    m = find_isomorphism(mk(10, petersen_edges), build_kneser(5, 2))
    assert m is not None and validate_map(m) == []


def test_circular_chromatic_values():
    assert circular_chromatic_number(cycle(5)) == Fraction(5, 2)
    assert circular_chromatic_number(cycle(7)) == Fraction(7, 3)
    assert circular_chromatic_number(cycle(6)) == 2
    assert circular_chromatic_number(complete(4)) == 4
    assert circular_chromatic_number(build_kneser(5, 2)) == 3
    assert circular_chromatic_number(mk(3, [])) == 1
    assert circular_chromatic_number(mk(0, [])) == 0


def test_circular_complete_graphs_attain_n_over_k():
    for n, k in [(5, 2), (7, 2), (7, 3), (8, 3), (11, 4)]:
        assert circular_chromatic_number(build_circular(n, k)) == Fraction(n, k)
        assert circular_chromatic_number(build_q(n, k)) == Fraction(n, k)


def test_chord_deletion_drops_circular_number():
    g = delete_edge(build_circular(7, 2), 0, 2)
    assert circular_chromatic_number(g) == 3


def test_circular_candidates_enumeration():
    got = circular_candidates(Fraction(5, 2), Fraction(3), 5)
    assert got == sorted(got)
    assert Fraction(5, 2) in got and Fraction(3) in got
    assert Fraction(8, 3) in got and Fraction(14, 5) in got
    assert all(c.denominator <= 5 for c in got)
    assert all(Fraction(5, 2) <= c <= 3 for c in got)


def test_circular_chromatic_number_passes_its_budget_to_chi(monkeypatch):
    from wellspread import homomorphism

    budgets = []

    def recording(g, node_budget=homomorphism.DEFAULT_NODE_BUDGET):
        budgets.append(node_budget)
        return chromatic_number(g, node_budget)

    monkeypatch.setattr(homomorphism, "chromatic_number", recording)
    assert circular_chromatic_number(cycle(7), node_budget=12_345) == Fraction(7, 3)
    assert budgets == [12_345]
