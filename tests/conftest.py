"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from wellspread import LabeledGraph
from wellspread.simplex import PackingMaster


def mk(n: int, edges) -> LabeledGraph:
    """Ad-hoc graph on vertex ids 0..n-1 with integer labels."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return LabeledGraph(labels=tuple(range(n)), adj=tuple(adj))


def cycle(n: int) -> LabeledGraph:
    return mk(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> LabeledGraph:
    return mk(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng: random.Random, n: int, p: float | None = None) -> LabeledGraph:
    """Each pair of 0..n-1 an edge with probability p (drawn from rng when None)."""
    p = rng.random() if p is None else p
    return mk(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def covering_lp_over_pool(g: LabeledGraph,
                          pool: list[tuple[int, ...]]) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of the covering LP restricted to the given sets, an
    oracle for column generation; the pool must cover every vertex."""
    master = PackingMaster(g.vertex_count)
    for s in pool:
        mask = 0
        for v in s:
            mask |= 1 << v
        master.add_constraint(mask)
    master.primal_simplex()
    value, _y, w = master.solution()
    return value, w
