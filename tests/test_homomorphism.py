"""Homomorphism and isomorphism search, circular chromatic numbers."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import complete, cycle, mk

from wellspread import homomorphism
from wellspread import (
    CyclicSubset,
    LabeledGraph,
    ResourceCap,
    build_circular,
    build_interlacing,
    build_kneser,
    build_q,
    circular_chromatic_number,
    delete_edge,
    delete_vertex,
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


def circular_candidates(lo: Fraction, hi: Fraction, max_q: int) -> list[Fraction]:
    """Reduced fractions in [lo, hi] with denominator <= max_q, ascending."""
    return list(homomorphism._ascending_candidates(lo, hi, max_q))


def test_circular_candidates_enumeration():
    got = circular_candidates(Fraction(5, 2), Fraction(3), 5)
    assert got == sorted(got)
    assert Fraction(5, 2) in got and Fraction(3) in got
    assert Fraction(8, 3) in got and Fraction(14, 5) in got
    assert all(c.denominator <= 5 for c in got)
    assert all(Fraction(5, 2) <= c <= 3 for c in got)


def test_circular_chromatic_number_runs_chi_under_the_node_budget(monkeypatch):
    # chi_c starts from chi, whose turns stop at the shared node budget:
    # DSATUR refutes 3 colours on I(10,3) in 9 nodes
    monkeypatch.setattr("wellspread.graphs.NODE_BUDGET", 8)
    with pytest.raises(ResourceCap) as exc:
        circular_chromatic_number(build_interlacing(10, 3))
    assert str(exc.value) == "colorability search exceeded 8 nodes (DSATUR 9, class branching 0)"


def test_candidate_iterator_matches_the_sorted_enumeration():
    for lo, hi, max_q in [(Fraction(5, 2), Fraction(3), 5), (Fraction(23, 11), Fraction(3), 23),
                          (Fraction(1), Fraction(4), 9), (Fraction(7, 3), Fraction(7, 3), 3)]:
        want = sorted({Fraction(p, q) for q in range(1, max_q + 1)
                       for p in range(0, hi.numerator * q // hi.denominator + 1)
                       if lo <= Fraction(p, q)})
        assert list(homomorphism._ascending_candidates(lo, hi, max_q)) == want
        assert circular_candidates(lo, hi, max_q) == want


def _circulant(n, jumps):
    """C_n(jumps), labelled by the singletons of Z_n, so its rotation is certified."""
    adj = [0] * n
    for i in range(n):
        for j in jumps:
            adj[i] |= 1 << ((i + j) % n) | 1 << ((i - j) % n)
    return LabeledGraph(tuple(CyclicSubset(n, (i,)) for i in range(n)), tuple(adj))


def test_rotation_probe_agrees_with_the_search(monkeypatch):
    # the families, every deletion of each, relabelled copies (integer
    # labels, so no certified rotation) of a few, and circulants whose
    # rotation is certified but admits no commuting map at the answer
    graphs = [_circulant(9, (3,)), _circulant(10, (2, 5)), _circulant(8, (1, 2, 4))]
    for n in range(2, 14):
        for k in range(1, n // 2 + 1):
            for g in (build_circular(n, k), build_q(n, k)):
                graphs.append(g)
                graphs.extend(delete_vertex(g, v) for v in range(g.vertex_count))
                graphs.extend(delete_edge(g, *e) for e in g.edges())
    for g in (build_q(11, 3), build_circular(13, 5), build_q(12, 5)):
        V = g.vertex_count
        perm = [(5 * i + 2) % V for i in range(V)]
        graphs.append(mk(V, [(perm[u], perm[v]) for u, v in g.edges()]))
    with_probe = [circular_chromatic_number(g) for g in graphs]
    monkeypatch.setattr(homomorphism, "_rotation_probe", lambda g, steps, p, q: None)
    assert [circular_chromatic_number(g) for g in graphs] == with_probe


def test_rotation_probe_only_for_a_certified_rotation():
    # Q(n,k) minus an edge keeps labels that rotate onto themselves, but the
    # rotation is no automorphism
    g = build_q(7, 2)
    assert homomorphism._rotation_steps(g) == list(range(7))
    assert homomorphism._rotation_steps(delete_edge(g, *g.edges()[0])) is None
    assert homomorphism._rotation_steps(delete_vertex(g, 0)) is None
    assert homomorphism._rotation_steps(cycle(7)) is None
    assert homomorphism._rotation_steps(build_kneser(5, 2)) is None  # orbit of 5 in 10
    assert homomorphism._rotation_steps(_circulant(9, (3,))) == list(range(9))
    assert homomorphism._rotation_probe(_circulant(9, (3,)), list(range(9)), 3, 1) is None
    assert homomorphism._rotation_probe(g, list(range(7)), 5, 2) is None
    assert homomorphism._rotation_probe(g, list(range(7)), 7, 2) == 2


@pytest.mark.parametrize("s", [0, 1])
def test_a_wrong_probe_answer_is_caught(monkeypatch, s):
    # Q(7,2) -> K_{7/2} is v -> 2v; v -> 0 and v -> v send edges to non-edges
    monkeypatch.setattr(homomorphism, "_rotation_probe", lambda g, steps, p, q: s)
    with pytest.raises(AssertionError, match="rotation probe"):
        circular_chromatic_number(build_q(7, 2))


def test_a_wrong_search_answer_is_caught(monkeypatch):
    # cycle(7) has no label rotation, so its first chi_c candidate 7/3 goes to
    # the map search; a map sending every vertex to 0 must not admit it
    monkeypatch.setattr(homomorphism, "_run_search", lambda *args: [0] * 7)
    with pytest.raises(AssertionError, match="invalid homomorphism"):
        circular_chromatic_number(cycle(7))


@pytest.mark.parametrize("g,value,searches", [
    (build_q(23, 11), Fraction(23, 11), 0),
    (build_q(29, 9), Fraction(29, 9), 0),
    (build_circular(17, 5), Fraction(17, 5), 0),
    (delete_edge(build_circular(17, 5), 0, 5), Fraction(10, 3), 1),
    (delete_edge(build_circular(17, 5), 0, 6), Fraction(17, 5), 1),
], ids=["Q(23,11)", "Q(29,9)", "circular(17,5)", "circular(17,5)-{0,5}",
        "circular(17,5)-{0,6}"])
def test_hom_searches_per_chi_c(monkeypatch, g, value, searches):
    # the probe decides the rotation-invariant graphs; an edge deletion has no
    # certified rotation and keeps its one search per candidate tried
    calls = []
    search = homomorphism.find_homomorphism

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(homomorphism, "find_homomorphism", counted)
    assert circular_chromatic_number(g) == value
    assert len(calls) == searches


def test_chi_c_searches_only_targets_with_at_most_v_vertices(monkeypatch):
    # chi_c is attained with p <= |V|, so no candidate with a larger
    # numerator is searched: the Petersen graph (chi_f 5/2, chi 3) needs 3
    calls = []
    search = homomorphism.find_homomorphism

    def recording(g, h):
        calls.append(h.vertex_count)
        return search(g, h)

    monkeypatch.setattr(homomorphism, "find_homomorphism", recording)
    g = build_kneser(5, 2)
    assert circular_chromatic_number(g) == 3
    assert len(calls) == 3
    assert all(p <= g.vertex_count for p in calls)
