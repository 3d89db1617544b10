"""Exact chromatic numbers: DSATUR search, class branching, the portfolio
that runs them in turn, cross-checks."""

from __future__ import annotations

import random

import pytest

from conftest import complete, cycle, mk

from wellspread import (
    ResourceCap,
    build_circular,
    build_interlacing,
    build_kneser,
    build_q,
    build_schrijver,
    chromatic_number,
    find_proper_coloring,
    is_t_colorable,
)
from wellspread import coloring
from wellspread.coloring import DEFAULT_NODE_BUDGET, _class_colorable, _is_bipartite


def test_chromatic_basics():
    assert chromatic_number(mk(0, [])) == 0
    assert chromatic_number(mk(4, [])) == 1
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(cycle(6)) == 2
    assert chromatic_number(complete(7)) == 7
    assert chromatic_number(build_kneser(5, 2)) == 3
    # a 1001-cycle: DSATUR colors it without backtracking, ~V levels deep
    assert chromatic_number(build_circular(1001, 500)) == 3


def test_coloring_witness_is_proper():
    g = build_schrijver(8, 3)
    t = chromatic_number(g)
    colors = find_proper_coloring(g, t)
    assert colors is not None
    assert len(set(colors)) <= t
    for u, v in g.edges():
        assert colors[u] != colors[v]
    assert find_proper_coloring(g, t - 1) is None


def test_is_t_colorable_thresholds():
    g = cycle(5)
    assert not is_t_colorable(g, 2)
    assert is_t_colorable(g, 3)
    assert is_t_colorable(g, 10)
    assert is_t_colorable(mk(3, []), 1)
    assert not is_t_colorable(complete(4), 3)
    assert is_t_colorable(mk(0, []), 0)
    assert not is_t_colorable(cycle(4), 0)
    with pytest.raises(ValueError):
        is_t_colorable(g, -1)


def test_class_branching_agrees_with_dsatur_on_random_graphs():
    rng = random.Random(20240817)
    for trial in range(30):
        n = rng.randrange(4, 11)
        p = rng.choice([0.2, 0.4, 0.6])
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = mk(n, edges)
        assert _is_bipartite(g.adj, (1 << n) - 1) == (
            find_proper_coloring(g, 2) is not None), trial
        for t in range(1, 6):
            by_classes = _class_colorable(g, t, DEFAULT_NODE_BUDGET, 0)
            assert by_classes == (find_proper_coloring(g, t) is not None), (trial, n, t)
            assert is_t_colorable(g, t) == by_classes, (trial, n, t)


def test_is_bipartite():
    assert _is_bipartite(cycle(6).adj, (1 << 6) - 1)
    assert not _is_bipartite(cycle(7).adj, (1 << 7) - 1)
    # an even cycle on 0..5 beside an odd one on 6..10: the second
    # component decides
    g = mk(11, [(i, (i + 1) % 6) for i in range(6)]
           + [(6 + i, 6 + (i + 1) % 5) for i in range(5)])
    assert not _is_bipartite(g.adj, (1 << 11) - 1)
    assert _is_bipartite(g.adj, (1 << 6) - 1)
    assert _is_bipartite(g.adj, 0)
    # removing one vertex cuts the odd cycle open into a path
    assert _is_bipartite(g.adj, ((1 << 11) - 1) & ~(1 << 8))
    assert _is_bipartite(cycle(7).adj, (1 << 7) - 2)


def test_schrijver_chromatic_formula_small():
    # SG(10,3) and SG(11,4) refute n - 2k + 1 colors by class branching
    cases = [(n, k) for n in range(2, 10) for k in range(1, n // 2 + 1)]
    for n, k in cases + [(10, 3), (11, 4)]:
        assert chromatic_number(build_schrijver(n, k)) == n - 2 * k + 2


def test_class_branching_node_count_on_schrijver_10_3():
    # branching on the vertex with the fewest class choices and deciding two
    # colors by bipartiteness refutes 5 colors on SG(10,3) in 86,117 nodes;
    # branching on the lowest-index vertex down to one color took 3,019,976
    assert not _class_colorable(build_schrijver(10, 3), 5, 100_000, 0)


def test_q_needs_ceil_n_over_k():
    for n, k in [(5, 2), (7, 2), (7, 3), (9, 4), (11, 3), (13, 5)]:
        assert chromatic_number(build_q(n, k)) == -(-n // k)


def test_interlacing_needs_ceil_n_over_k():
    for n, k in [(5, 2), (7, 2), (7, 3), (9, 4), (10, 3)]:
        assert chromatic_number(build_interlacing(n, k)) == -(-n // k)


def test_node_budget_trips():
    g = build_kneser(8, 3)
    with pytest.raises(ResourceCap):
        chromatic_number(g, node_budget=5)
    # the probe's nodes count against the budget: when the probe spends all
    # of it, class branching gets none
    sg = build_schrijver(9, 3)
    with pytest.raises(ResourceCap):
        is_t_colorable(sg, 4, node_budget=sg.vertex_count + coloring._PROBE_NODES)


def test_class_branching_decides_when_probe_runs_out(monkeypatch):
    sg = build_schrijver(9, 3)  # chi = 5
    with pytest.raises(ResourceCap):
        find_proper_coloring(sg, 4, sg.vertex_count + coloring._PROBE_NODES)
    calls = []

    def recording(g, t, node_budget, nodes):
        calls.append((t, nodes))
        return _class_colorable(g, t, node_budget, nodes)

    monkeypatch.setattr(coloring, "_class_colorable", recording)
    assert not is_t_colorable(sg, 4)
    assert calls == [(4, sg.vertex_count + coloring._PROBE_NODES)]
