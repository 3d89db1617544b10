"""The map search behind colouring, homomorphism and isomorphism search:
its search order, pinned by exact node counts, and its depth; and the node
budget that the one search driver keeps for every exact search."""

from __future__ import annotations

import inspect
import sys

import pytest

from wellspread import (
    LabeledGraph,
    ResourceCap,
    build_circular,
    build_interlacing,
    build_kneser,
    build_q,
    build_schrijver,
    enumerate_maximal_independent_sets,
    find_homomorphism,
    find_isomorphism,
    find_proper_coloring,
    is_t_colorable,
    maximum_independent_set,
)
from wellspread import graphs
from wellspread.coloring import _class_steps
from wellspread.graphs import _run_search

# (search, nodes it needs, whether it finds a map).  A change of vertex order,
# candidate order or symmetry breaking moves these counts; the DSATUR turns in
# `is_t_colorable` and the chi_c cost depend on them.
PINS = [
    ("hom Q(17,8) -> K_{17/8}", lambda: find_homomorphism(build_q(17, 8), build_circular(17, 8)),
     8208, True),
    ("hom Q(13,5) -> K_{5/2}", lambda: find_homomorphism(build_q(13, 5), build_circular(5, 2)),
     116, False),
    ("4-colour SG(9,3)", lambda: find_proper_coloring(build_schrijver(9, 3), 4), 8980, False),
    ("3-colour I(10,3)", lambda: find_proper_coloring(build_interlacing(10, 3), 3), 9, False),
    ("5-colour KG(7,2)", lambda: find_proper_coloring(build_kneser(7, 2), 5), 18, True),
    ("iso Q(14,4) -> K_{7/2}", lambda: find_isomorphism(build_q(14, 4), build_circular(7, 2)),
     7, True),
    ("iso Q(13,4) -> K_{13/4}", lambda: find_isomorphism(build_q(13, 4), build_circular(13, 4)),
     13, True),
]


@pytest.mark.parametrize("search,nodes,found", [p[1:] for p in PINS], ids=[p[0] for p in PINS])
def test_search_order_pins(monkeypatch, search, nodes, found):
    monkeypatch.setattr(graphs, "NODE_BUDGET", nodes)
    assert (search() is not None) == found
    monkeypatch.setattr(graphs, "NODE_BUDGET", nodes - 1)
    with pytest.raises(ResourceCap):
        search()


@pytest.mark.parametrize("budget,nodes,search,message", [
    ("wellspread.graphs.NODE_BUDGET", 100,
     lambda: find_proper_coloring(build_schrijver(9, 3), 4),
     "coloring search exceeded 100 nodes"),
    ("wellspread.graphs.NODE_BUDGET", 100,
     lambda: find_homomorphism(build_q(13, 5), build_circular(5, 2)),
     "homomorphism search exceeded 100 nodes"),
    ("wellspread.graphs.NODE_BUDGET", 12,
     lambda: find_isomorphism(build_q(13, 4), build_circular(13, 4)),
     "isomorphism search exceeded 12 nodes"),
    ("wellspread.graphs.NODE_BUDGET", 100,
     lambda: is_t_colorable(build_schrijver(9, 3), 4),
     "colorability search exceeded 100 nodes (DSATUR 65, class branching 36)"),
    ("wellspread.independence._NODE_BUDGET", 100,
     lambda: maximum_independent_set(build_interlacing(10, 3)),
     "independent-set search exceeded 100 nodes"),
], ids=["coloring", "homomorphism", "isomorphism", "colorability", "independent set"])
def test_every_search_stops_at_its_node_budget(monkeypatch, budget, nodes, search, message):
    # one driver keeps the budget of every exact search, read at each call;
    # the turns of `is_t_colorable` name the nodes each of their searches spent
    monkeypatch.setattr(budget, nodes)
    with pytest.raises(ResourceCap) as exc:
        search()
    assert str(exc.value) == message


def test_isomorphism_deeper_than_the_recursion_limit():
    m = find_isomorphism(build_q(1201, 600), build_circular(1201, 600))
    assert m is not None and len(m.mapping) == 1201


def test_homomorphism_deeper_than_the_recursion_limit():
    m = find_homomorphism(build_circular(1201, 600), build_circular(3, 1))
    assert m is not None and set(m.mapping.values()) == {0, 1, 2}


def test_maximal_sets_deeper_than_the_recursion_limit():
    edgeless = LabeledGraph(labels=tuple(range(1500)), adj=(0,) * 1500)
    assert enumerate_maximal_independent_sets(edgeless) == [tuple(range(1500))]


def test_class_branching_deeper_than_the_recursion_limit():
    # circular(401, 2) takes 201 colours, one class-branching level each;
    # the levels live on the search-tree driver's stack, not Python's
    g = build_circular(401, 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert _run_search(_class_steps(g, 201), "class branching")
    finally:
        sys.setrecursionlimit(limit)


def test_tree_steps_pauses_once_per_none_and_sends_child_values_back():
    def leaf(value):
        return value  # returns before its first yield
        yield

    def node(depth):
        yield
        if depth == 0:
            return 1
        below = yield node(depth - 1)
        yield
        return below + (yield leaf(10))

    # node(d) pauses 2d + 1 times and returns 10d + 1
    assert _run_search(graphs._tree_steps(node(3)), "toy", 7) == 31
    with pytest.raises(ResourceCap):
        _run_search(graphs._tree_steps(node(3)), "toy", 6)
    steps = graphs._tree_steps(node(0))
    assert next(steps) is None
    with pytest.raises(StopIteration) as done:
        next(steps)
    assert done.value.value == 1
