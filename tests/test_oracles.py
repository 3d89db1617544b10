"""Differential tests: the exact solvers against independent oracles
(networkx, brute force) on small random graphs with fixed seeds."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from conftest import complete, covering_lp_over_pool, cycle, mk, random_graph  # noqa: E402

from wellspread import (  # noqa: E402
    build_circular,
    circular_chromatic_number,
    enumerate_maximal_independent_sets,
    find_homomorphism,
    find_isomorphism,
    find_proper_coloring,
    fractional_chromatic_number,
    is_t_colorable,
    max_weight_independent_set,
    maximum_independent_set,
    validate_map,
)
from wellspread.graphs import iter_bits, label_rotation  # noqa: E402
from wellspread.independence import _fail_soft_search, alpha_at_most  # noqa: E402
from wellspread.simplex import PackingMaster  # noqa: E402


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.vertex_count))
    out.add_edges_from(g.edges())
    return out


def admits_map(g, h) -> bool:
    """Brute force: some vertex map g -> h sends every edge to an edge."""
    edges = g.edges()
    return any(all(h.has_edge(f[u], f[v]) for u, v in edges)
               for f in product(range(h.vertex_count), repeat=g.vertex_count))


def test_isomorphism_against_networkx():
    rng = random.Random(20221219)
    for trial in range(80):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = mk(n, [(perm[u], perm[v]) for u, v in g.edges()])
        m = find_isomorphism(g, h)
        assert m is not None and validate_map(m) == [], trial
        # near miss: move one edge to a non-edge, keeping the edge count
        edges = h.edges()
        non_edges = [e for e in combinations(range(n), 2) if not h.has_edge(*e)]
        if edges and non_edges:
            gone = rng.choice(edges)
            h2 = mk(n, [e for e in edges if e != gone] + [rng.choice(non_edges)])
            m2 = find_isomorphism(g, h2)
            assert (m2 is not None) == nx.is_isomorphic(to_nx(g), to_nx(h2)), trial
            assert m2 is None or validate_map(m2) == []


@pytest.mark.parametrize("target,max_n", [
    (complete(2), 8),
    (complete(3), 7),
    (cycle(5), 6),
    (build_circular(7, 2), 5),
], ids=["K2", "K3", "C5", "K7/2"])
def test_homomorphism_against_brute_force(target, max_n):
    rng = random.Random(max_n * 1000 + target.vertex_count)
    for trial in range(40):
        g = random_graph(rng, rng.randint(1, max_n))
        m = find_homomorphism(g, target)
        assert (m is not None) == admits_map(g, target), trial
        assert m is None or validate_map(m) == []


def test_maximal_independent_sets_against_networkx_cliques():
    rng = random.Random(7)
    for trial in range(80):
        g = random_graph(rng, rng.randint(1, 9))
        want = sorted(tuple(sorted(c)) for c in nx.find_cliques(nx.complement(to_nx(g))))
        assert enumerate_maximal_independent_sets(g) == want, trial


def alpha_by_networkx(g, mask: int) -> int:
    """The independence number of g[mask]: a maximum clique of the complement."""
    sub = nx.complement(to_nx(g).subgraph(iter_bits(mask)))
    return nx.max_weight_clique(sub, weight=None)[1] if mask else 0


def is_independent(g, mask: int) -> bool:
    return not any(g.adj[v] & mask for v in iter_bits(mask))


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.integers(1, 10), st.randoms(use_true_random=False))
def test_maximum_independent_set_against_networkx(n, rng):
    g = random_graph(rng, n)
    mask = maximum_independent_set(g)
    assert is_independent(g, mask)
    assert mask.bit_count() == alpha_by_networkx(g, (1 << n) - 1)


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.integers(1, 10), st.randoms(use_true_random=False))
def test_alpha_at_most_is_exact_at_alpha(n, rng):
    g = random_graph(rng, n)
    mask = rng.getrandbits(n)
    alpha = alpha_by_networkx(g, mask)
    assert alpha_at_most(g.adj, mask, alpha)
    assert not alpha_at_most(g.adj, mask, alpha - 1)


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.integers(1, 10), st.randoms(use_true_random=False))
def test_max_weight_independent_set_against_brute_force(n, rng):
    g = random_graph(rng, n)
    weights = [Fraction(rng.randrange(13), rng.randrange(1, 9)) for _ in range(n)]

    def weight(m):
        return sum((weights[v] for v in iter_bits(m)), Fraction(0))

    value, mask = max_weight_independent_set(list(g.adj), weights)
    assert value == max(weight(m) for m in range(1 << n) if is_independent(g, m))
    assert is_independent(g, mask)
    assert weight(mask) == value


@hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.integers(1, 10), st.randoms(use_true_random=False))
def test_weighted_fail_soft_search_against_brute_force(n, rng):
    # r > need: r is the heaviest independent set within mask and the
    # witness one of that weight; r <= need: none weighs more than need
    g = random_graph(rng, n)
    if rng.random() < 0.5:  # equal weights are searched as unit weights, then scaled
        weights = [rng.randrange(1, 4)] * n
    else:
        weights = [rng.choice([0, 0, 1, 2, 3, 5, 8]) for _ in range(n)]
    mask = rng.getrandbits(n)

    def weight(m):
        return sum(weights[v] for v in iter_bits(m))

    best = max(weight(m) for m in range(1 << n) if m & ~mask == 0 and is_independent(g, m))
    need = rng.randrange(-1, best + 2)
    r, witness = _fail_soft_search(list(g.adj), mask, need, weights)
    if r > need:
        assert r == best
        assert witness & ~mask == 0 and is_independent(g, witness) and weight(witness) == r
    else:
        assert best <= need


@hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_fractional_chromatic_number_against_the_maximal_pool(n, rng):
    # no label rotation, so column generation runs rather than the orbit shortcut
    g = random_graph(rng, n)
    assert label_rotation(g) is None
    want, _ = covering_lp_over_pool(g, enumerate_maximal_independent_sets(g))
    assert fractional_chromatic_number(g)[0] == want


def _random_independent_set(g, rng, mask: int) -> int:
    """mask extended by the vertices of a random order that keep it independent."""
    order = list(range(g.vertex_count))
    rng.shuffle(order)
    for v in order:
        if rng.random() < 0.7 and not (g.adj[v] & mask or mask >> v & 1):
            mask |= 1 << v
    return mask


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_packing_master_solutions_are_primal_dual_pairs(n, rng):
    # a feasible covering w, a feasible packing y and sum(w) = sum(y) prove
    # both optimal by LP duality, without a second LP solver: a covering pool
    # is solved by the primal simplex, then sets that the current y violates
    # (when there are any) and random sets by the dual simplex
    g = random_graph(rng, n)
    pool = [_random_independent_set(g, rng, 1 << v) for v in range(n)]
    master = PackingMaster(n)
    for mask in pool:
        master.add_constraint(mask)
    master.primal_simplex()
    for _ in range(rng.randrange(4)):
        more = [_random_independent_set(g, rng, 0),
                max_weight_independent_set(list(g.adj), master.solution()[1])[1]]
        for mask in more:
            master.add_constraint(mask)
        master.dual_simplex()
        pool += more
    value, y, w = master.solution()
    assert len(y) == n and len(w) == len(pool)
    assert min(w) >= 0 and min(y) >= 0
    for v in range(n):
        assert sum((wi for mask, wi in zip(pool, w) if mask >> v & 1), Fraction(0)) >= 1
    for mask in pool:
        assert sum((y[v] for v in iter_bits(mask)), Fraction(0)) <= 1
    assert sum(w) == sum(y) == value


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.integers(1, 7), st.integers(1, 4), st.randoms(use_true_random=False))
def test_t_colorability_against_brute_force(n, t, rng):
    g = random_graph(rng, n)
    colorable = admits_map(g, complete(t))
    assert is_t_colorable(g, t) == colorable
    coloring = find_proper_coloring(g, t)
    assert (coloring is not None) == colorable
    assert coloring is None or all(coloring[u] != coloring[v] for u, v in g.edges())


def admits_circular_map(g, p: int, q: int) -> bool:
    """Exhaustive: some map V -> Z_p puts every edge at circular distance >= q.

    Components are mapped one at a time, in breadth-first order from their
    least vertex, which goes to 0 (K_{p/q} is vertex-transitive); every later
    vertex tries every residue, and a partial map is dropped once an edge
    among its vertices fails.
    """
    V = g.vertex_count
    f = {}
    for root in range(V):
        if root in f:
            continue
        order = [root]
        for v in order:
            order.extend(u for u in g.neighbors(v) if u not in order)

        def extend(i: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            for c in range(p) if i else (0,):
                if all(q <= (c - f[u]) % p <= p - q for u in g.neighbors(v) if u in f):
                    f[v] = c
                    if extend(i + 1):
                        return True
                    del f[v]
            return False

        if not extend(0):
            return False
    return True


def chi_c_by_definition(g) -> Fraction:
    """The least p/q whose circular complete graph admits g.

    Only p <= V is tried: chi_c is attained by such a fraction (Zhu 2001,
    "Circular chromatic number: a survey"), so its denominator is at most V
    as well, and every fraction below the least admitting one is refuted.
    """
    V = g.vertex_count
    if V == 0:
        return Fraction(0)
    if not g.edges():
        return Fraction(1)
    fractions = sorted({Fraction(p, q) for p in range(2, V + 1) for q in range(1, p // 2 + 1)})
    return next(r for r in fractions if admits_circular_map(g, r.numerator, r.denominator))


def mobius_ladder(n: int):
    """n vertices (n even) on a cycle, each joined to the opposite one."""
    return mk(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)])


@pytest.mark.parametrize("g,value", [
    (cycle(3), Fraction(3)), (cycle(5), Fraction(5, 2)), (cycle(7), Fraction(7, 3)),
    (mobius_ladder(4), Fraction(4)), (mobius_ladder(6), Fraction(2)),
    (mobius_ladder(8), Fraction(8, 3)), (mobius_ladder(10), Fraction(2)),
], ids=["C3", "C5", "C7", "M4", "M6", "M8", "M10"])
def test_circular_chromatic_number_of_cycles_and_ladders(g, value):
    assert chi_c_by_definition(g) == value
    assert circular_chromatic_number(g) == value


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_circular_chromatic_number_against_the_definition(n, rng):
    g = random_graph(rng, n)
    assert circular_chromatic_number(g) == chi_c_by_definition(g)
