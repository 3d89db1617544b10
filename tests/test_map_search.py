"""The map search behind colouring, homomorphism and isomorphism search:
its search order, pinned by exact node counts, its depth, and its forward
checking against a reference copy that walks every neighbour; and the node
budget that the one search driver keeps for every exact search."""

from __future__ import annotations

import inspect
import sys
from typing import Generator

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_graph

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
from wellspread.coloring import _class_steps, _into_k_t, greedy_coloring
from wellspread.graphs import _map_steps, _run_search

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


def _walk_map_steps(adj, target_adj, domains: list[int], pre=(),
                     injective: bool = False) -> Generator[None, None, list[int] | None]:
    """`graphs._map_steps` with forward checking by a walk over every
    unassigned neighbour into every target, a copy kept as its reference."""
    V = len(adj)
    T = len(target_adj)
    complete = all(row == (1 << T) - 1 - (1 << a) for a, row in enumerate(target_adj))
    deg = [a.bit_count() for a in adj]
    regular = len(set(deg)) <= 1
    everyone = (1 << V) - 1
    # domain sizes are kept beside the domains; an assigned vertex's size is
    # parked at T + 1, above any live domain's, so the smallest size is always
    # an unassigned vertex's
    sizes = [d.bit_count() for d in domains]
    image = [-1] * V
    assigned = 0
    max_used = -1
    used = 0  # the images of the assigned vertices, kept only when injective
    forced = list(reversed(pre))
    # a frame is [vertex, its domain size, untried candidates, trail of the
    # current candidate, max_used on entry, used on entry]; forced frames have
    # one candidate and are no node.  While a frame is on the stack its vertex
    # counts as assigned and its size is parked.
    stack: list[list] = []
    while True:
        if forced:
            v, a = forced.pop()
            cands = domains[v] & (1 << a)
        elif assigned == everyone:
            return image
        else:
            yield
            size = min(sizes)
            # the first vertex of least size wins unless a tie-break can differ
            if size > 1 and (complete or not regular):
                ties = [w for w, s in enumerate(sizes) if s == size]
                if complete:
                    v = max(ties, key=lambda w: ((adj[w] & assigned).bit_count(), deg[w]))
                else:
                    v = max(ties, key=deg.__getitem__)
            else:
                v = sizes.index(size)
            cands = domains[v] & ~used
            if complete:
                cands &= (1 << (max_used + 2)) - 1
        frame = [v, sizes[v], cands, None, max_used, used]
        stack.append(frame)
        sizes[v] = T + 1
        assigned |= 1 << v
        # give the top frame's vertex its next candidate that survives forward
        # checking, popping exhausted frames
        while True:
            u, _, cands, _, saved, used_on_entry = frame
            free_nb = adj[u] & everyone & ~assigned
            while cands:
                a = (cands & -cands).bit_length() - 1
                cands &= cands - 1
                keep = target_adj[a]
                trail = []
                m = free_nb
                while m:
                    w = (m & -m).bit_length() - 1
                    m &= m - 1
                    d = domains[w]
                    if d & ~keep:
                        trail.append((w, d, sizes[w]))
                        domains[w] = d = d & keep
                        sizes[w] = d.bit_count()
                        if not d:
                            break  # a domain emptied
                else:
                    image[u] = a
                    frame[2], frame[3] = cands, trail
                    max_used = a if a > saved else saved
                    if injective:
                        used = used_on_entry | 1 << a
                    break
                for w, d, k in reversed(trail):
                    domains[w], sizes[w] = d, k
            else:
                stack.pop()
                assigned &= ~(1 << u)
                sizes[u] = frame[1]
                if not stack:
                    return None
                frame = stack[-1]
                for w, d, k in reversed(frame[3]):
                    domains[w], sizes[w] = d, k
                continue
            break


def _run_counted(steps, cap: int):
    """The nodes a map search spends and its result, or "unfinished" for the
    result when it has not ended within `cap` nodes."""
    nodes = 0
    try:
        while nodes <= cap:
            next(steps)
            nodes += 1
    except StopIteration as done:
        return nodes, done.value
    return nodes, "unfinished"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 14), st.integers(1, 6), st.sampled_from(["complete", "random"]),
       st.sampled_from(["full", "random"]), st.booleans(), st.randoms(use_true_random=False))
def test_map_search_matches_the_neighbour_walk(n, t, target, domains, precolour, rng):
    # into K_t the search visits only the neighbours that hold the image
    # tried; it must give the images and spend the nodes of the walk over
    # every neighbour.  t is kept below the greedy colour count, where the
    # search has to backtrack
    g = random_graph(rng, n, rng.uniform(0.25, 0.65))
    t = min(t, max(1, max(greedy_coloring(g))))
    if target == "complete":
        h = [(1 << t) - 1 - (1 << a) for a in range(t)]
    else:
        h = list(random_graph(rng, t).adj)
    doms = ([(1 << t) - 1] * n if domains == "full"
            else [rng.getrandbits(t) | 1 << rng.randrange(t) for _ in range(n)])
    pre = _into_k_t(g, t)[2] if precolour else []
    expected = _run_counted(_walk_map_steps(g.adj, h, list(doms), pre), 20_000)
    assert _run_counted(_map_steps(g.adj, h, list(doms), pre), 20_000) == expected


@pytest.mark.parametrize("g,t", [(build_schrijver(9, 3), 4), (build_schrijver(10, 3), 5),
                                 (build_schrijver(10, 2), 7), (build_kneser(7, 2), 5)],
                         ids=["SG(9,3) t=4", "SG(10,3) t=5", "SG(10,2) t=7", "KG(7,2) t=5"])
def test_colouring_search_matches_the_neighbour_walk_on_long_searches(g, t):
    # small random graphs rarely make the search backtrack far; these searches
    # backtrack thousands of times, each compared over its first 9,000 nodes
    k_t, doms, pre = _into_k_t(g, t)
    expected = _run_counted(_walk_map_steps(g.adj, k_t, list(doms), pre), 9_000)
    assert _run_counted(_map_steps(g.adj, k_t, list(doms), pre), 9_000) == expected
