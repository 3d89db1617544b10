"""Exact chromatic numbers: DSATUR search, class branching, the portfolio
that runs them in turn, cross-checks."""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete, cycle, mk, random_graph

from wellspread import (
    InvalidParams,
    ResourceCap,
    build_circular,
    build_interlacing,
    build_kneser,
    build_q,
    build_schrijver,
    chromatic_number,
    delete_edge,
    delete_vertex,
    find_proper_coloring,
    is_t_colorable,
)
from wellspread import coloring, independence
from wellspread.coloring import (_class_steps, _is_bipartite, _odd_closers, greedy_coloring,
                                 rlf_coloring)
from wellspread.graphs import (
    MapKind,
    VertexMap,
    _run_search,
    dihedral_automorphisms,
    iter_bits,
    validate_map,
)


def class_branching(g, t, budget=None):
    """Class branching alone, run by the search driver."""
    return _run_search(_class_steps(g, t), "class branching", budget)


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
            by_classes = class_branching(g, t)
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
    # only the components that meet `new` are searched
    assert _odd_closers(g.adj, (1 << 11) - 1, 1 << 2) is not None
    assert _odd_closers(g.adj, (1 << 11) - 1, (1 << 2) | (1 << 8)) is None
    # the bipartite left-out set {0, ..., 4} (a path 0 1 2 beside an edge
    # 3 4) gains 5 and 6.  5 ~ {0, 4} joins 0 and 4, which the two parts'
    # own colorings, each from its lowest vertex, put on opposite sides; with
    # 6 ~ {2, 3} as well the cycle 5 0 1 2 6 3 4 has length 7, with 5 ~ {0, 3}
    # and 6 ~ {2, 3} the cycle 5 0 1 2 6 3 has length 6
    for joins, bipartite in [([(5, 0), (5, 4)], True),
                             ([(5, 0), (5, 4), (6, 2), (6, 3)], False),
                             ([(5, 0), (5, 3), (6, 2), (6, 3)], True)]:
        h = mk(7, [(0, 1), (1, 2), (3, 4)] + joins)
        assert _is_bipartite(h.adj, (1 << 5) - 1)
        assert (_odd_closers(h.adj, (1 << 7) - 1, (1 << 5) | (1 << 6)) is not None) == bipartite
        assert _is_bipartite(h.adj, (1 << 7) - 1) == bipartite


def test_schrijver_chromatic_formula_small():
    # SG(10,3) and SG(11,4) refute n - 2k + 1 colors by class branching
    cases = [(n, k) for n in range(2, 10) for k in range(1, n // 2 + 1)]
    for n, k in cases + [(10, 3), (11, 4)]:
        assert chromatic_number(build_schrijver(n, k)) == n - 2 * k + 2


def test_class_branching_node_count_on_schrijver_10_3():
    # branching on the vertex with the fewest class choices and deciding two
    # colors by bipartiteness refutes 5 colors on SG(10,3) in 86,117 nodes;
    # branching on the lowest-index vertex down to one color took 3,019,976
    assert not class_branching(build_schrijver(10, 3), 5, 100_000)


def test_class_branching_node_counts_with_the_symmetric_memo():
    # memoizing refuted residuals up to the certified dihedral symmetry and,
    # with three colors left, the forcing search refute 5 colors on SG(10,3)
    # in 3,249 nodes and 4 on SG(11,4) in 3,238 (5,383 and 8,080 when
    # Bron-Kerbosch listed three-color classes, cut at odd cycles; 86,117 and
    # 151,441 with the plain memo and no cut)
    assert not class_branching(build_schrijver(10, 3), 5, 3_249)
    assert not class_branching(build_schrijver(11, 4), 4, 3_238)
    # the searches of the SG(10,2) and SG(9,3) chi sweeps: 690, 128 and 91
    # nodes (697, 167 and 96 with the cut classes)
    assert not class_branching(build_schrijver(10, 2), 7, 690)
    sg = build_schrijver(9, 3)
    assert not class_branching(sg, 4, 128)
    assert class_branching(delete_vertex(sg, 0), 4, 91)
    # three colors at the root: KG(8,3) in 28 nodes and I(10,3) in 2 (28 and
    # 163 with the cut classes)
    assert not class_branching(build_kneser(8, 3), 3, 28)
    assert not class_branching(build_interlacing(10, 3), 3, 2)
    # KG(9,3) at t = 4 in 34,158 nodes (43,383 with the cut classes)
    assert not class_branching(build_kneser(9, 3), 4, 34_158)


def test_odd_closers_agree_with_a_direct_two_coloring():
    # per component of the subgraph on mask that meets new: None on an odd
    # cycle, else the vertices next to both of its sides
    rng = random.Random(20261020)
    seen = set()
    for trial in range(300):
        n = rng.randrange(1, 15)
        g = random_graph(rng, n, rng.uniform(0.05, 0.4))
        mask = rng.getrandbits(n)
        new = rng.getrandbits(n) if rng.random() < 0.7 else -1
        expected = 0
        for comp in independence._components(g.adj, mask):
            if not comp & new:
                continue
            first = (comp & -comp).bit_length() - 1
            side = {first: 0}
            todo = [first]
            while todo:
                u = todo.pop()
                for w in iter_bits(g.adj[u] & comp):
                    if w not in side:
                        side[w] = 1 - side[u]
                        todo.append(w)
                    elif side[w] == side[u]:
                        expected = None
            if expected is None:
                break
            for x in range(n):
                if {side[w] for w in iter_bits(g.adj[x] & comp)} == {0, 1}:
                    expected |= 1 << x
        assert coloring._odd_closers(g.adj, mask, new) == expected, trial
        seen.add("odd" if expected is None else "closers" if expected else "none")
    assert seen == {"odd", "closers", "none"}


def forcing_search(g, v, budget):
    """The three-color search of class branching on all of g, its class
    started from v, run by the search driver."""
    steps = coloring._forcing_steps(g.adj, independence.nonadjacency(g),
                                    (1 << g.vertex_count) - 1, v)
    return _run_search(steps, "forcing search", budget)


def _forced(g, cls, left, undecided):
    """`_force` from a class, the vertices left out of it and the undecided
    ones, all given as vertex lists; the split reached as lists, or None."""
    def bits(vs):
        return sum(1 << v for v in vs)

    split = coloring._force(g.adj, bits(cls), bits(left), bits(undecided), bits(left))
    return None if split is None else tuple(list(iter_bits(m)) for m in split)


def test_forcing_moves_a_vertex_next_to_both_sides_of_one_component():
    # 0's neighbours 1 and 2 are left out, adjacent, so on opposite sides; 3
    # sees both of them, so no 2-coloring of the left-out set takes 3
    g = mk(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])
    assert _forced(g, [0], [1, 2], [3, 4]) == ([0, 3], [1, 2, 4], [])
    # the search from the class {0} answers at its first node, by forcing alone
    assert forcing_search(g, 0, 1)


def test_forcing_leaves_a_vertex_next_to_two_components_undecided():
    # the left-out set is the edges 1-2 and 3-4; 5 sees 1 and 4, which lie on
    # opposite sides when each component is 2-colored from its lowest vertex,
    # but the components can flip, so 5 is not forced.  6 sees both sides of
    # the edge 1-2 and is forced; 5, its neighbour, then joins the left-out
    # path 2 1 5 4 3, and {0, 6} is the third color class
    g = mk(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4),
               (5, 1), (5, 4), (6, 1), (6, 2), (6, 5)])
    assert _forced(g, [0], [1, 2, 3, 4], [5]) == ([0], [1, 2, 3, 4], [5])
    assert _forced(g, [0], [1, 2, 3, 4], [5, 6]) == ([0, 6], [1, 2, 3, 4, 5], [])
    assert find_proper_coloring(g, 3) is not None
    assert forcing_search(g, 0, 1)
    assert class_branching(g, 3)


def test_forcing_refutes_an_adjacent_forced_pair():
    # 3 and 4 each see both sides of the left-out edge 1-2, and 3 ~ 4: the
    # vertices 1 2 3 4 form a K4
    g = mk(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)])
    assert _forced(g, [0], [1, 2], [3, 4]) is None
    assert find_proper_coloring(g, 3) is None
    assert not forcing_search(g, 0, 1)
    assert not class_branching(g, 3)


def test_forcing_search_agrees_with_dsatur_on_random_graphs(monkeypatch):
    # average degrees around the 3- and 4-coloring thresholds of random
    # graphs; every answer is checked against the DSATUR search, and some
    # run of `_force` must move a vertex into the class
    answers = set()
    fired = []
    force = coloring._force

    def recording(adj, cls, left, undecided, new):
        split = force(adj, cls, left, undecided, new)
        if split is not None and split[0] != cls:
            fired.append(1)
        return split

    monkeypatch.setattr(coloring, "_force", recording)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.integers(8, 16), st.integers(30, 90), st.randoms(use_true_random=False))
    def agrees(n, degree, rng):
        g = random_graph(rng, n, degree / 10 / (n - 1))
        for t in (3, 4):
            colorable = class_branching(g, t)
            assert colorable == (find_proper_coloring(g, t) is not None), t
            answers.add((t, colorable))

    agrees()
    assert answers == {(3, False), (3, True), (4, False), (4, True)}
    assert fired


def _group(gens):
    """Every vertex permutation in the group the generators span."""
    identity = tuple(range(len(gens[0])))
    group, todo = {identity}, [identity]
    while todo:
        x = todo.pop()
        for s in gens:
            y = tuple(s[v] for v in x)
            if y not in group:
                group.add(y)
                todo.append(y)
    return group


def test_least_image_is_the_least_image_under_the_certified_symmetry():
    rng = random.Random(20261021)
    q = build_q(13, 4)
    reflection = dihedral_automorphisms(q)[-1]
    u = next(u for u, v in enumerate(reflection) if q.has_edge(u, v))
    cases = [
        (build_schrijver(10, 3), 20),  # rotation and reflection, one block
        (build_schrijver(10, 2), 20),  # rotation cycles of lengths 5 and 10
        (build_schrijver(9, 3), 18),  # 3 and 9
        (build_schrijver(12, 4), 24),  # 3, 6 and 12
        (build_circular(13, 4), 26),
        (build_kneser(8, 3), 16),
        (delete_edge(q, u, reflection[u]), 2),  # the reflection alone
        (delete_edge(q, 0, 1), 1),  # no certified symmetry
        (random_graph(rng, 12), 1),
    ]
    for g, order in cases:
        gens = dihedral_automorphisms(g)
        h, least_image = coloring._dihedral_frame(g)
        if not gens:
            assert order == 1 and h is g and least_image is None
            continue
        # the generators on h's vertices, which are g's renumbered
        old = [g.labels.index(lab) for lab in h.labels]
        pos = {v: i for i, v in enumerate(old)}
        group = _group([[pos[s[v]] for v in old] for s in gens])
        assert len(group) == order
        V = h.vertex_count
        masks = [0, (1 << V) - 1] + [rng.getrandbits(V) & rng.getrandbits(V) for _ in range(100)]
        masks += [rng.getrandbits(V) for _ in range(100)]
        # masks with their top bits all clear or all set tie on the top block
        # under every power of the rotation, so the lower blocks decide
        masks += [mask >> rng.randrange(V) for mask in masks[2:]]
        masks += [mask | (1 << V) - (1 << rng.randrange(V)) for mask in masks[2:102]]
        for mask in masks:
            assert least_image(mask) == min(
                sum(1 << perm[v] for v in iter_bits(mask)) for perm in group), (order, mask)


def test_greedy_bounds_are_worked_out_once_per_graph(monkeypatch):
    runs = []

    def counting_dsatur(g):
        runs.append(g.vertex_count)
        return dsatur(g)

    dsatur = coloring._dsatur
    monkeypatch.setattr(coloring, "_dsatur", counting_dsatur)
    g = build_schrijver(10, 3)
    assert chromatic_number(g) == 6
    # one DSATUR pass, although is_t_colorable(g, 5) asks for the bound again
    assert runs == [g.vertex_count]
    # each call returns a fresh list
    colors, clique = greedy_coloring(g), coloring.greedy_clique(g)
    kept = (list(colors), list(clique))
    colors.clear()
    clique.clear()
    assert (greedy_coloring(g), coloring.greedy_clique(g)) == kept
    assert runs == [g.vertex_count]


def test_symmetric_memo_agrees_with_plain_memo_and_dsatur(monkeypatch):
    graphs = []
    for build in (build_schrijver, build_kneser, build_q, build_circular):
        for n in range(4, 14):
            for k in range(2, n // 2 + 1):
                g = build(n, k)
                if g.vertex_count > 40:
                    continue
                graphs.append(g)
                if build in (build_q, build_circular):
                    # labels still rotate, but the rotation is no automorphism
                    u = (g.adj[0] & -g.adj[0]).bit_length() - 1
                    graphs.append(delete_edge(g, 0, u))
                # an edge {u, s(u)} under the reflection s: s still fixes
                # the graph once it is deleted
                reflection = dihedral_automorphisms(g)[-1]
                u = next((u for u, v in enumerate(reflection) if g.has_edge(u, v)), None)
                if u is not None:
                    graphs.append(delete_edge(g, u, reflection[u]))
    symmetries = set()
    for g in graphs:
        symmetries.add(len(dihedral_automorphisms(g)))
        chi = chromatic_number(g)
        for t in range(1, chi + 1):
            symmetric = class_branching(g, t)
            with monkeypatch.context() as m:
                m.setattr(coloring, "dihedral_automorphisms", lambda g: [])
                plain = class_branching(g, t)
            by_dsatur = find_proper_coloring(g, t) is not None
            assert symmetric == plain == by_dsatur == (t == chi)
    # graphs with no certified generator, with the reflection alone, and with both
    assert symmetries == {0, 1, 2}


def test_q_needs_ceil_n_over_k():
    for n, k in [(5, 2), (7, 2), (7, 3), (9, 4), (11, 3), (13, 5)]:
        assert chromatic_number(build_q(n, k)) == -(-n // k)


def test_interlacing_needs_ceil_n_over_k():
    for n, k in [(5, 2), (7, 2), (7, 3), (9, 4), (10, 3)]:
        assert chromatic_number(build_interlacing(n, k)) == -(-n // k)


def test_node_budget_trips(monkeypatch):
    g = build_kneser(8, 3)
    monkeypatch.setattr("wellspread.graphs.NODE_BUDGET", 5)
    with pytest.raises(ResourceCap):
        chromatic_number(g)
    # the message names the nodes each search spent: here DSATUR alone, which
    # refutes 3 colors on I(10,3) in 9 nodes
    monkeypatch.setattr("wellspread.graphs.NODE_BUDGET", 8)
    with pytest.raises(ResourceCap, match=r"exceeded 8 nodes \(DSATUR 9, class branching 0\)"):
        is_t_colorable(build_interlacing(10, 3), 3)


def _record_class_branching(monkeypatch) -> list[str]:
    """Which search answered each `is_t_colorable` call that reached the
    turns and returned: 'class branching' when its steps ran to their end,
    else 'DSATUR'."""
    ends = []

    def recording(g, t):
        ends.append("DSATUR")
        colorable = yield from _class_steps(g, t)
        ends[-1] = "class branching"
        return colorable

    monkeypatch.setattr(coloring, "_class_steps", recording)
    return ends


@pytest.mark.parametrize("g,t,colorable,dsatur,classes,winner", [
    # class branching refutes in 128 nodes while DSATUR, which needs 8,980
    # alone, has spent 158 of them
    (build_schrijver(9, 3), 4, False, 158, 128, "class branching"),
    # DSATUR refutes in 279 nodes, on class branching's 244th of 1,051
    (build_kneser(9, 2), 6, False, 279, 244, "DSATUR"),
], ids=["SG(9,3) t=4", "KG(9,2) t=6"])
def test_the_two_searches_take_turns_under_one_budget(monkeypatch, g, t, colorable, dsatur,
                                                      classes, winner):
    total = dsatur + classes
    monkeypatch.setattr("wellspread.graphs.NODE_BUDGET", total - 1)
    with pytest.raises(ResourceCap, match=rf"exceeded {total - 1} nodes "
                                          rf"\(DSATUR {dsatur}, class branching {classes}\)"):
        is_t_colorable(g, t)
    monkeypatch.setattr("wellspread.graphs.NODE_BUDGET", total)
    ends = _record_class_branching(monkeypatch)
    assert is_t_colorable(g, t) == colorable
    assert ends == [winner]


def test_dsatur_decides_inside_its_first_descent(monkeypatch):
    # 3 colors on I(10,3) are refuted in 9 DSATUR nodes, fewer than its 50
    # vertices, so class branching never starts
    monkeypatch.setattr("wellspread.graphs.NODE_BUDGET", 9)
    ends = _record_class_branching(monkeypatch)
    assert not is_t_colorable(build_interlacing(10, 3), 3)
    assert ends == []


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 12), st.integers(1, 6), st.randoms(use_true_random=False))
def test_is_t_colorable_agrees_with_each_search_alone(n, t, rng):
    g = random_graph(rng, n)
    colorable = find_proper_coloring(g, t) is not None
    assert class_branching(g, t) == colorable
    assert is_t_colorable(g, t) == colorable


def test_turns_agree_with_each_search_alone(monkeypatch):
    # DSATUR decides graphs of up to 12 vertices inside its first descent;
    # from 25 to 32 vertices, below the greedy bound, some reach the turns
    ends = _record_class_branching(monkeypatch)
    rng = random.Random(20261019)
    for trial in range(150):
        g = random_graph(rng, rng.randint(25, 32), rng.choice([0.3, 0.5, 0.7]))
        for t in range(3, max(greedy_coloring(g)) + 1):
            colorable = find_proper_coloring(g, t) is not None
            assert class_branching(g, t) == colorable, (trial, t)
            assert is_t_colorable(g, t) == colorable, (trial, t)
    assert ends.count("class branching") >= 5 and ends.count("DSATUR") >= 5, ends


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 12), st.randoms(use_true_random=False))
def test_rlf_coloring_is_a_proper_coloring_into_k_c(n, rng):
    p = rng.random()
    g = mk(n, [e for e in combinations(range(n), 2) if rng.random() < p])
    colors = rlf_coloring(g)
    # deterministic: the same answer again, and on a fresh copy of the graph
    assert rlf_coloring(g) == colors
    assert rlf_coloring(mk(n, g.edges())) == colors
    assert len(colors) == n
    c = len(set(colors))
    assert set(colors) == set(range(c))
    into = VertexMap(g, complete(c), dict(enumerate(colors)), MapKind.HOMOMORPHISM)
    assert validate_map(into) == []
    assert c >= chromatic_number(g)


def test_rlf_witness_success_on_schrijver_deletions():
    # deletions of SG(n,k) colored with chi - 1 = n - 2k + 1 colors, out of
    # all of them: by RLF, and by the DSATUR greedy coloring for comparison
    for n, k, by_rlf, by_dsatur in [(10, 2, 35, 3), (10, 3, 20, 4), (9, 3, 16, 11)]:
        g = build_schrijver(n, k)
        deleted = [delete_vertex(g, v) for v in range(g.vertex_count)]
        t = n - 2 * k + 1
        assert sum(max(rlf_coloring(d)) < t for d in deleted) == by_rlf, (n, k)
        assert sum(max(greedy_coloring(d)) < t for d in deleted) == by_dsatur, (n, k)


def _heap_dsatur(g):
    """DSATUR by a heap of (-saturation, -degree, id) entries, one pushed each
    time a vertex's saturation grows and stale ones skipped, as
    `greedy_coloring` ran it before it kept colour masks: the reference for
    the colouring it must still return."""
    V = g.vertex_count
    adj = g.adj
    colors = [-1] * V
    used_next_to = [0] * V  # bitmask of neighbor colors
    deg = [m.bit_count() for m in adj]
    heap = [(0, -deg[v], v) for v in range(V)]
    heapify(heap)
    uncolored = (1 << V) - 1
    while heap:
        neg_sat, _, best = heappop(heap)
        used = used_next_to[best]
        if colors[best] >= 0 or -neg_sat != used.bit_count():
            continue
        c = (~used & (used + 1)).bit_length() - 1  # the lowest colour not in used
        colors[best] = c
        uncolored ^= 1 << best
        bit = 1 << c
        for u in iter_bits(adj[best] & uncolored):
            if not used_next_to[u] & bit:
                used_next_to[u] |= bit
                heappush(heap, (-used_next_to[u].bit_count(), -deg[u], u))
    return list(colors)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 40), st.integers(0, 2**32))
def test_greedy_coloring_equals_the_previous_dsatur_on_random_graphs(n, seed):
    g = random_graph(random.Random(seed), n)
    assert greedy_coloring(g) == _heap_dsatur(g)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]), max_size=40),
       st.integers(0, 2**32))
def test_greedy_coloring_equals_the_heap_dsatur_on_irregular_graphs(reach, seed):
    # vertex u joins v with chance reach[u] * reach[v]: reach 0 leaves u
    # isolated, and mixed reaches spread the degrees over many classes
    rng = random.Random(seed)
    g = mk(len(reach), [(u, v) for u, v in combinations(range(len(reach)), 2)
                        if rng.random() < reach[u] * reach[v]])
    assert greedy_coloring(g) == _heap_dsatur(g)


def test_greedy_coloring_equals_the_previous_dsatur_on_the_workload_graphs():
    # the graphs the benchmark's requests build, one deletion of each small
    # one, and the Kneser and Schrijver graphs of the colouring searches
    graphs = [build_q(23, 7), build_q(27, 8), build_q(19, 7), build_q(29, 9), build_q(23, 11),
              build_schrijver(10, 3), build_schrijver(10, 2), build_schrijver(9, 3),
              build_circular(17, 5), build_interlacing(10, 3), build_kneser(9, 3)]
    graphs += [delete_vertex(g, 1) for g in graphs] + [delete_edge(g, *g.edges()[0]) for g in graphs]
    graphs += [build_q(601, 300), build_q(401, 200), build_q(599, 150), build_q(101, 50),
               build_circular(1001, 500)]
    for g in graphs:
        assert greedy_coloring(g) == _heap_dsatur(g), g.family


def test_greedy_coloring_equals_the_heap_dsatur_on_every_small_family_graph():
    # every graph of the five families with n <= 13 (Kneser graphs up to 300
    # vertices), the cycles and complete graphs of conftest, and one vertex
    # and one edge deletion of each
    graphs = [cycle(n) for n in range(3, 14)] + [complete(n) for n in range(1, 14)]
    for build in (build_q, build_circular, build_schrijver, build_interlacing, build_kneser):
        for n in range(1, 14):
            for k in range(1, n + 1):
                try:
                    g = build(n, k, 300)
                except (InvalidParams, ResourceCap):
                    continue
                graphs.append(g)
    graphs += [delete_vertex(g, 0) for g in graphs if g.vertex_count]
    graphs += [delete_edge(g, *g.edges()[0]) for g in graphs if g.edge_count()]
    assert len(graphs) > 300
    for g in graphs:
        assert greedy_coloring(g) == _heap_dsatur(g), g.family
