"""Independence numbers, maximal-set enumeration, weighted oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import complete, cycle, mk

from wellspread import (
    LabeledGraph,
    ResourceCap,
    build_circular,
    build_kneser,
    build_q,
    build_schrijver,
    delete_vertex,
    enumerate_maximal_independent_sets,
    independence_number,
    is_well_spread,
    max_independent_sets,
    max_weight_independent_set,
    maximum_independent_set,
)
from wellspread.cyclic import CyclicSubset
from wellspread.graphs import (
    _disjointness_graph,
    _residue_permutation,
    is_automorphism,
    iter_bits,
    label_rotation,
)
from wellspread import independence
from wellspread.independence import _greedy_independent, alpha_at_most, ratio_upper_bound


def test_small_graph_alphas():
    assert independence_number(cycle(5)) == 2
    assert independence_number(cycle(6)) == 3
    assert independence_number(complete(6)) == 1
    assert independence_number(mk(4, [])) == 4
    assert independence_number(mk(0, [])) == 0


def test_petersen_maximal_sets():
    g = build_kneser(5, 2)
    assert independence_number(g) == 4
    sets = enumerate_maximal_independent_sets(g)
    assert len(sets) == 15
    sizes = sorted(len(m) for m in sets)
    assert sizes == [3] * 10 + [4] * 5
    # the 5 maximum ones are the stars: all pairs through one point
    for m in max_independent_sets(g):
        assert len(m) == 4
        common = set.intersection(*(set(g.labels[v].elements) for v in m))
        assert len(common) == 1


def test_kneser_alpha_formula():
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            assert independence_number(build_kneser(n, k)) == comb(n - 1, k - 1)


def test_ratio_bound_is_the_kneser_alpha():
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            assert ratio_upper_bound(build_kneser(n, k)) == comb(n - 1, k - 1)


def _transposition(g):
    return _residue_permutation(g, lambda x, n: 1 - x if x < 2 else x)


def test_ratio_bound_refuses_without_its_witness():
    # no transposition among the labels, or no rotation
    for g in (build_q(41, 10), build_circular(41, 10), build_schrijver(10, 3),
              delete_vertex(build_kneser(8, 3), 0)):
        assert ratio_upper_bound(g) is None
    # both generators are automorphisms of the edgeless graph and move vertex
    # 0 everywhere; only the interval map fails validation
    kg = build_kneser(9, 3)
    empty = LabeledGraph(kg.labels, (0,) * kg.vertex_count, kg.family)
    assert is_automorphism(empty, label_rotation(empty))
    assert is_automorphism(empty, _transposition(empty))
    assert ratio_upper_bound(empty) is None


def test_transposition_is_refused_at_the_first_q_label():
    # (0 1) sends the canonical set of Q(3001,1499) to no rotation, and the
    # refusal is made before the other labels are
    q = build_q(3001, 1499)
    assert _transposition(q) is None and ratio_upper_bound(q) is None
    assert len(q.labels) - q.labels._missing <= 2


def test_ratio_bound_refuses_a_graph_that_is_not_vertex_transitive():
    # 2- and 3-subsets of Z_7, joined when disjoint: both generators are
    # automorphisms and the intervals {i, i+1} map K_{7/2} in, but the orbit
    # of vertex 0 is the 2-subsets; the bound would be 56*2//7 = 16 < alpha
    labels = tuple(CyclicSubset(7, c) for k in (2, 3) for c in combinations(range(7), k))
    g = _disjointness_graph(labels, 7, None)
    assert is_automorphism(g, label_rotation(g))
    assert is_automorphism(g, _transposition(g))
    assert independence_number(g) == 21
    assert ratio_upper_bound(g) is None


def test_schrijver_alpha_formula():
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            expect = comb(n - k - 1, k - 1)
            assert independence_number(build_schrijver(n, k)) == expect


def test_schrijver_7_2_maximum_sets_are_the_seven_stars():
    g = build_schrijver(7, 2)
    tops = max_independent_sets(g)
    assert len(tops) == 7
    for m in tops:
        common = set.intersection(*(set(g.labels[v].elements) for v in m))
        assert len(common) == 1


def test_schrijver_6_2_has_a_non_star_maximum_set():
    g = build_schrijver(6, 2)
    tops = max_independent_sets(g)
    non_star = [
        m for m in tops
        if not set.intersection(*(set(g.labels[v].elements) for v in m))
    ]
    assert non_star


def test_q_alpha_is_k_and_maximum_sets_are_well_spread():
    for n, k in [(5, 2), (7, 2), (7, 3), (11, 3), (13, 5), (14, 5)]:
        q = build_q(n, k)
        assert independence_number(q) == k
        for m in max_independent_sets(q):
            assert is_well_spread(CyclicSubset(n, m))


def test_greedy_witness_is_independent_and_bounded():
    for g in (cycle(7), build_kneser(6, 2), build_schrijver(8, 3), complete(5)):
        mask = _greedy_independent(g.adj, (1 << g.vertex_count) - 1)
        members = [v for v in range(g.vertex_count) if mask >> v & 1]
        assert 1 <= len(members) <= independence_number(g)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                assert not g.has_edge(u, v)


def _rescanning_greedy(adj, mask):
    """The min-degree greedy by a rescan of every vertex left per pick: the
    oracle for the bucket queue of `_greedy_independent`."""
    chosen = 0
    while mask:
        best, bestd = -1, mask.bit_count()
        for v in iter_bits(mask):
            d = (adj[v] & mask).bit_count()
            if d < bestd:
                bestd, best = d, v
        chosen |= 1 << best
        mask &= ~(adj[best] | (1 << best))
    return chosen


def test_greedy_buckets_pick_what_the_rescan_picks():
    # the same set, so the same tie rule (the first vertex of least degree):
    # random graphs and masks, degree ties everywhere on the families, and
    # the paths and cycles that branch-and-bound hands to the greedy
    rng = random.Random(29)
    for trial in range(3000):
        V = rng.randrange(0, 24)
        p = rng.random()
        g = mk(V, [e for e in combinations(range(V), 2) if rng.random() < p])
        full = (1 << V) - 1
        for mask in (full, full & rng.getrandbits(V + 1)):
            assert _greedy_independent(g.adj, mask) == _rescanning_greedy(g.adj, mask), (trial, mask)
    for g in (build_q(101, 50), build_q(59, 20), build_circular(41, 10), build_kneser(8, 3),
              build_schrijver(10, 3), delete_vertex(build_q(43, 13), 5)):
        full = (1 << g.vertex_count) - 1
        for mask in (full, full & rng.getrandbits(g.vertex_count)):
            assert _greedy_independent(g.adj, mask) == _rescanning_greedy(g.adj, mask), g.family
    for _ in range(300):
        adj, mask, _ = _paths_and_cycles(rng)
        assert _greedy_independent(adj, mask) == _rescanning_greedy(adj, mask)


def test_maximum_independent_set_returns_witness():
    g = build_schrijver(9, 3)
    mask = maximum_independent_set(g)
    members = [v for v in range(g.vertex_count) if mask >> v & 1]
    assert len(members) == independence_number(g)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            assert not g.has_edge(u, v)


def test_maximum_independent_set_of_family_graphs_is_the_greedy_pass():
    # the cascade proves the greedy pass maximum on these; V >= 40 reaches
    # the ratio bound's refusal and then branch-and-bound
    for n, k in [(7, 2), (11, 3), (17, 5), (23, 11), (30, 7), (41, 10)]:
        for g in (build_circular(n, k), build_q(n, k)):
            full = (1 << g.vertex_count) - 1
            assert maximum_independent_set(g) == _greedy_independent(g.adj, full), (g.family, n, k)


def test_maximum_independent_set_improves_on_a_short_greedy_pass():
    # the greedy takes vertex 4, leaving the triangle 0, 1, 5: two vertices
    g = mk(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (2, 4), (3, 4)])
    assert _greedy_independent(g.adj, 0b111111) == 0b010001
    assert maximum_independent_set(g) == 0b101100


def _paths_and_cycles(rng):
    """A random union of paths and cycles on a random subset `mask` of at
    most 40 vertices, inside a graph whose other vertices are joined at
    random to everything; returns (adj, mask, expected alpha)."""
    V = rng.randrange(1, 41)
    order = list(range(V))
    rng.shuffle(order)
    adj = [0] * V

    def join(u, v):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    mask, alpha, i = 0, 0, 0
    while i < V and rng.random() < 0.9:
        L = rng.randrange(1, V - i + 1)
        part = order[i:i + L]
        i += L
        for u, v in zip(part, part[1:]):
            join(u, v)
        if L >= 3 and rng.random() < 0.5:
            join(part[-1], part[0])
            alpha += L // 2
        else:
            alpha += (L + 1) // 2
        for v in part:
            mask |= 1 << v
    for u in order[i:]:
        for v in range(V):
            if v != u and rng.random() < 0.3:
                join(u, v)
    return adj, mask, alpha


def test_greedy_is_exact_on_paths_and_cycles():
    # branch-and-bound hands every residual of maximum degree <= 2 to the greedy
    rng = random.Random(2022)
    for trial in range(2000):
        adj, mask, alpha = _paths_and_cycles(rng)
        got = _greedy_independent(adj, mask)
        assert got & ~mask == 0, trial
        assert all(not adj[v] & got for v in range(len(adj)) if got >> v & 1), trial
        assert got.bit_count() == alpha, trial


def test_enumeration_cap_trips(monkeypatch):
    monkeypatch.setattr(independence, "_MIS_CAP", 10)
    with pytest.raises(ResourceCap, match="more than 10 maximal"):
        enumerate_maximal_independent_sets(build_kneser(8, 3))


def test_max_weight_oracle_small():
    g = cycle(5)
    w = [Fraction(1)] * 5
    val, mask = max_weight_independent_set(list(g.adj), w)
    assert val == 2
    w = [Fraction(5), Fraction(1), Fraction(1), Fraction(1), Fraction(1)]
    val, mask = max_weight_independent_set(list(g.adj), w)
    assert val == 6 and mask >> 0 & 1
    # weights concentrated on one vertex beat any pair
    w = [Fraction(10), Fraction(1), Fraction(1), Fraction(1), Fraction(1)]
    val, _ = max_weight_independent_set(list(g.adj), w)
    assert val == 11


def test_max_weight_on_a_long_unit_path():
    # the search runs from an explicit stack, and equal weights reach the
    # greedy on paths and cycles: no recursion limit, no exponential search
    n = 2500
    g = mk(n, [(i, i + 1) for i in range(n - 1)])
    val, mask = max_weight_independent_set(list(g.adj), [Fraction(1)] * n)
    assert val == 1250 and mask.bit_count() == 1250
    assert all(not g.adj[v] & mask for v in range(n) if mask >> v & 1)


def test_components_are_searched_exactly():
    # two disjoint K4s: each component's matching bound, 2, is at the bound,
    # but only the sum of exact values may be compared with it
    g = mk(8, [(i, j) for c in (0, 4) for i in range(c, c + 4) for j in range(i + 1, c + 4)])
    assert alpha_at_most(g.adj, 0xFF, 2)
    assert not alpha_at_most(g.adj, 0xFF, 1)


def test_node_budget_raises_resource_cap(monkeypatch):
    g = build_kneser(8, 3)
    full = (1 << g.vertex_count) - 1
    weights = [Fraction(1 + v % 3, 2) for v in range(g.vertex_count)]
    assert not alpha_at_most(g.adj, full, 3)
    assert max_weight_independent_set(list(g.adj), weights)[0] == 23
    # both searches take a few hundred nodes or more
    monkeypatch.setattr(independence, "_NODE_BUDGET", 100)
    with pytest.raises(ResourceCap):
        alpha_at_most(g.adj, full, 3)
    with pytest.raises(ResourceCap):
        max_weight_independent_set(list(g.adj), weights)
