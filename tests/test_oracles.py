"""Differential tests: the exact solvers against independent oracles
(networkx, brute force) on small random graphs with fixed seeds."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from conftest import complete, cycle, mk  # noqa: E402

from wellspread import (  # noqa: E402
    build_circular,
    enumerate_maximal_independent_sets,
    find_homomorphism,
    find_isomorphism,
    find_proper_coloring,
    is_t_colorable,
    validate_map,
)


def random_graph(rng: random.Random, n: int):
    p = rng.random()
    return mk(n, [e for e in combinations(range(n), 2) if rng.random() < p])


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


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(st.integers(1, 7), st.integers(1, 4), st.randoms(use_true_random=False))
def test_t_colorability_against_brute_force(n, t, rng):
    g = random_graph(rng, n)
    colorable = admits_map(g, complete(t))
    assert is_t_colorable(g, t) == colorable
    coloring = find_proper_coloring(g, t)
    assert (coloring is not None) == colorable
    assert coloring is None or all(coloring[u] != coloring[v] for u, v in g.edges())
