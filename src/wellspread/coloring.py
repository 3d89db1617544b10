"""Exact chromatic numbers by a budgeted portfolio of two exhaustive searches.

Every decision "is g t-colorable?" goes through `is_t_colorable`.  After the
greedy clique and DSATUR-coloring shortcuts, vertex-at-a-time DSATUR search
(`find_proper_coloring`: greedy-clique precoloring, forward checking on
per-vertex domain masks, most-constrained-vertex selection, first-fresh-color
symmetry breaking) runs as a probe of V + `_PROBE_NODES` nodes, enough to
color a graph without backtracking.  If the probe runs out, class branching
over maximal independent sets decides with what is left of the node budget.
The two win on different graphs: the probe refutes 3 colors on I(10,3) at
once, where class branching takes seconds; class branching refutes 5 colors
on SG(10,3) in seconds, where DSATUR takes minutes.  Both searches are
exhaustive, so both directions of every answer are exact.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import ResourceCap
from .graphs import LabeledGraph
from .independence import iter_bits

DEFAULT_NODE_BUDGET = 100_000_000

# DSATUR probe nodes beyond one per vertex, spent before class branching
_PROBE_NODES = 1000

# class branching stops memoizing refuted residual masks past this many; the
# largest memo in the acceptance grids and SG sweeps, refuting 5 colors on
# SG(10,3), holds 184,664
_REFUTED_MEMO_CAP = 250_000


def greedy_clique(g: LabeledGraph) -> list[int]:
    """A maximal clique grown from the max-degree vertex (chromatic lower bound)."""
    V = g.vertex_count
    if V == 0:
        return []
    adj = g.adj
    start = max(range(V), key=lambda v: adj[v].bit_count())
    clique = [start]
    cand = adj[start]
    while cand:
        best, bestd = -1, -1
        for v in iter_bits(cand):
            d = (adj[v] & cand).bit_count()
            if d > bestd:
                bestd, best = d, v
        clique.append(best)
        cand &= adj[best]
    return clique


def greedy_coloring(g: LabeledGraph) -> list[int]:
    """DSATUR greedy proper coloring (upper bound witness)."""
    V = g.vertex_count
    adj = g.adj
    colors = [-1] * V
    used_next_to = [0] * V  # bitmask of neighbor colors
    deg = [m.bit_count() for m in adj]
    # next vertex: max (saturation, degree), lowest index on ties; saturation
    # only grows and each growth pushes a fresh entry, so stale ones are skipped
    heap = [(0, -deg[v], v) for v in range(V)]
    heapify(heap)
    while heap:
        neg_sat, _, best = heappop(heap)
        if colors[best] >= 0 or -neg_sat != used_next_to[best].bit_count():
            continue
        c = 0
        while (used_next_to[best] >> c) & 1:
            c += 1
        colors[best] = c
        bit = 1 << c
        for u in iter_bits(adj[best]):
            if colors[u] < 0 and not used_next_to[u] & bit:
                used_next_to[u] |= bit
                heappush(heap, (-used_next_to[u].bit_count(), -deg[u], u))
    return colors


def find_proper_coloring(g: LabeledGraph, t: int,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> list[int] | None:
    """Exact decision: a proper t-coloring, or None after exhaustive refutation.

    Depth-first with an explicit stack, so graphs of any size stay within
    Python's recursion limit.
    """
    V = g.vertex_count
    if t < 0:
        raise ValueError("negative color count")
    if V == 0:
        return []
    if t == 0:
        return None
    adj = g.adj
    full_t = (1 << t) - 1
    domains = [full_t] * V
    colors = [-1] * V
    clique = greedy_clique(g)
    if len(clique) > t:
        return None

    def assign(v: int, c: int, trail: list[tuple[int, int]]) -> bool:
        colors[v] = c
        bit = 1 << c
        for u in iter_bits(adj[v]):
            if colors[u] < 0 and domains[u] & bit:
                trail.append((u, domains[u]))
                domains[u] &= ~bit
                if domains[u] == 0:
                    return False
        return True

    def undo(v: int, trail: list[tuple[int, int]]) -> None:
        colors[v] = -1
        for u, d in reversed(trail):
            domains[u] = d

    # precolor the clique
    pre_trail: list[tuple[int, int]] = []
    for i, v in enumerate(clique):
        domains[v] = 1 << i
        if not assign(v, i, pre_trail):
            return None

    max_used = len(clique) - 1

    def most_constrained() -> int:
        # min domain, then max saturation degree, then max degree
        best, key = -1, None
        for v in range(V):
            if colors[v] < 0:
                size = domains[v].bit_count()
                if size == 1:
                    return v
                sat = sum(1 for u in iter_bits(adj[v]) if colors[u] >= 0)
                kk = (size, -sat, -adj[v].bit_count())
                if key is None or kk < key:
                    key, best = kk, v
        return best

    # a frame is [vertex, candidate colors, next candidate index, max_used on
    # entry, trail of the current assignment]
    def color_next(frame: list) -> bool:
        """Give the frame's vertex its next candidate color that survives
        forward checking; False once the candidates are exhausted."""
        nonlocal max_used
        v, cands, _, saved_max, _ = frame
        while frame[2] < len(cands):
            c = cands[frame[2]]
            frame[2] += 1
            trail: list[tuple[int, int]] = []
            max_used = max(saved_max, c)
            if assign(v, c, trail):
                frame[4] = trail
                return True
            undo(v, trail)
        max_used = saved_max
        return False

    nodes = 0
    remaining = V - len(clique)
    stack: list[list] = []
    while remaining:
        nodes += 1
        if nodes > node_budget:
            raise ResourceCap(f"coloring search exceeded {node_budget} nodes")
        v = most_constrained()
        # colors above max_used + 1 are interchangeable with the first fresh one
        cands = [c for c in iter_bits(domains[v]) if c <= max_used + 1]
        frame = [v, cands, 0, max_used, None]
        stack.append(frame)
        while not color_next(frame):
            stack.pop()
            if not stack:
                return None
            frame = stack[-1]
            undo(frame[0], frame[4])
            remaining += 1
        remaining -= 1
    return colors[:]


def _class_colorable(g: LabeledGraph, t: int, node_budget: int, nodes: int) -> bool:
    """Exact t-colorability via class branching with residual memoization.

    The first remaining vertex always lies in some color class that is a
    maximal independent set of the residual graph, so branching over those
    sets is exhaustive.  Much faster than vertex-at-a-time search when the
    maximal-set families stay small; can blow up when they do not.  `nodes`
    is the work already spent against `node_budget`.
    """
    V = g.vertex_count
    adj = g.adj
    full = (1 << V) - 1
    nonadj = [full & ~adj[v] & ~(1 << v) for v in range(V)]
    refuted: dict[int, int] = {}

    def classes_containing(v: int, mask: int) -> list[int]:
        nonlocal nodes
        out: list[int] = []

        def expand(r: int, p: int, x: int) -> None:
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise ResourceCap(f"colorability search exceeded {node_budget} nodes")
            if p == 0 and x == 0:
                out.append(r)
                return
            best_u, best_cnt = -1, -1
            for u in iter_bits(p | x):
                c = (p & nonadj[u]).bit_count()
                if c > best_cnt:
                    best_cnt, best_u = c, u
            cand = p & ~nonadj[best_u]
            for w in iter_bits(cand):
                bw = 1 << w
                expand(r | bw, p & nonadj[w], x & nonadj[w])
                p &= ~bw
                x |= bw

        expand(1 << v, mask & nonadj[v], 0)
        return out

    def rec(mask: int, colors_left: int) -> bool:
        nonlocal nodes
        if mask == 0:
            return True
        if colors_left == 0:
            return False
        if refuted.get(mask, 0) >= colors_left:
            return False
        nodes += 1
        if nodes > node_budget:
            raise ResourceCap(f"colorability search exceeded {node_budget} nodes")
        v = (mask & -mask).bit_length() - 1
        sols = classes_containing(v, mask)
        sols.sort(key=lambda m: -m.bit_count())
        for cls in sols:
            if rec(mask & ~cls, colors_left - 1):
                return True
        if colors_left > refuted.get(mask, 0) and (
                mask in refuted or len(refuted) < _REFUTED_MEMO_CAP):
            refuted[mask] = colors_left
        return False

    return rec(full, t)


def is_t_colorable(g: LabeledGraph, t: int,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Exact t-colorability: greedy shortcuts, then a DSATUR probe, then
    class branching.

    The probe gets V + `_PROBE_NODES` nodes of `node_budget`; if it runs out,
    class branching decides with the rest.  Either search is exhaustive, so
    the answer is exact; ResourceCap is raised once the two together spend
    more than `node_budget` nodes (at once, when the probe spent all of it).
    """
    V = g.vertex_count
    if t < 0:
        raise ValueError("negative color count")
    if V == 0:
        return True
    if t == 0:
        return False
    if all(m == 0 for m in g.adj):
        return True
    if len(greedy_clique(g)) > t:
        return False
    if max(greedy_coloring(g)) + 1 <= t:
        return True
    probe = min(node_budget, V + _PROBE_NODES)
    try:
        return find_proper_coloring(g, t, probe) is not None
    except ResourceCap:
        pass  # the probe ran out: class branching decides with the rest
    return _class_colorable(g, t, node_budget, probe)


def chromatic_number(g: LabeledGraph, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact chromatic number: descend from the DSATUR bound, refute below."""
    V = g.vertex_count
    if V == 0:
        return 0
    if g.edge_count() == 0:
        return 1
    ub = max(greedy_coloring(g)) + 1
    lb = max(2, len(greedy_clique(g)))
    chi = ub
    for t in range(ub - 1, lb - 1, -1):
        if not is_t_colorable(g, t, node_budget):
            return chi
        chi = t
    return chi
