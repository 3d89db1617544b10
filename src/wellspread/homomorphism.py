"""Homomorphism and isomorphism search, and circular chromatic numbers.

Both searches set up the package's one map search (`graphs._map_steps`),
the same kernel that colors graphs as maps into K_t, and run it under
`graphs.NODE_BUDGET` nodes by the one search driver (`graphs._run_search`):
a homomorphism search starts every domain full, an isomorphism search starts
from joint neighbourhood-refinement classes and runs injective, with
non-edges kept.
Circular chromatic numbers are computed by scanning reduced fractions p/q
(p bounded by the vertex count, which always holds for the answer) upward
from the fractional chromatic number; hom-existence into circular complete
graphs is monotone in p/q, so the first admitting target is the exact value.
Each candidate is first tried with the maps v -> s*x(v) mod p that commute
with a certified label rotation (v is the rotation applied x(v) times to
vertex 0); a hit is validated and admits the candidate, a miss falls through
to one homomorphism search into K_{p/q} (`find_homomorphism`, which validates
its hit too), so every candidate below the answer is still refuted by the full
search.  A circular graph K_{p/q} is its own target at p/q.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from math import gcd
from typing import Iterator

from .coloring import chromatic_number
from .fractional import fractional_chromatic_number
from .graphs import (
    FamilyParams, LabeledGraph, MapKind, VertexMap, _map_steps, _run_search,
    build_circular, checked_map, is_automorphism, label_rotation,
)
from .independence import iter_bits


def find_homomorphism(g: LabeledGraph, h: LabeledGraph) -> VertexMap | None:
    """An edge-preserving vertex map g -> h, validated, or None (exhaustive)."""
    domains = [(1 << h.vertex_count) - 1] * g.vertex_count
    image = _run_search(_map_steps(g.adj, h.adj, domains), "homomorphism")
    if image is None:
        return None
    return checked_map(VertexMap(g, h, dict(enumerate(image)), MapKind.HOMOMORPHISM),
                       "search produced an invalid homomorphism")


def _wl_colors(g: LabeledGraph, h: LabeledGraph) -> tuple[list[int], list[int]] | None:
    """Joint neighborhood-color refinement; None when it separates g from h."""
    cg = [g.adj[v].bit_count() for v in range(g.vertex_count)]
    ch = [h.adj[v].bit_count() for v in range(h.vertex_count)]
    for _ in range(g.vertex_count + 1):
        table: dict[tuple, int] = {}

        def recolor(graph: LabeledGraph, cols: list[int]) -> list[int]:
            out = []
            for v in range(graph.vertex_count):
                sig = (cols[v], tuple(sorted(cols[u] for u in iter_bits(graph.adj[v]))))
                out.append(table.setdefault(sig, len(table)))
            return out

        ng, nh = recolor(g, cg), recolor(h, ch)
        if sorted(ng) != sorted(nh):
            return None
        stable = len(set(ng)) == len(set(cg))
        cg, ch = ng, nh
        if stable:
            break
    return cg, ch


def find_isomorphism(g: LabeledGraph, h: LabeledGraph) -> VertexMap | None:
    """A structure-preserving bijection g -> h, validated, or None (exact)."""
    Vg, Vh = g.vertex_count, h.vertex_count
    if Vg != Vh or g.edge_count() != h.edge_count():
        return None
    if Vg == 0:
        return VertexMap(g, h, {}, MapKind.ISOMORPHISM)
    wl = _wl_colors(g, h)
    if wl is None:
        return None
    cg, ch = wl
    class_mask: dict[int, int] = {}
    for v in range(Vh):
        class_mask[ch[v]] = class_mask.get(ch[v], 0) | (1 << v)
    domains = [class_mask.get(cg[u], 0) for u in range(Vg)]
    image = _run_search(_map_steps(g.adj, h.adj, domains, injective=True), "isomorphism")
    if image is None:
        return None
    return checked_map(VertexMap(g, h, dict(enumerate(image)), MapKind.ISOMORPHISM),
                       "search produced an invalid isomorphism")


def _ascending_candidates(lo: Fraction, hi: Fraction, max_q: int) -> Iterator[Fraction]:
    """The reduced fractions in [lo, hi] with denominator <= max_q, ascending,
    made one at a time: a heap merge of the least unused numerator p per
    denominator q, keeping p/q reduced so that every fraction comes once, from
    its own denominator."""
    heap = []
    for q in range(1, max_q + 1):
        p = -(-lo.numerator * q // lo.denominator)
        while gcd(p, q) != 1:
            p += 1
        if p * hi.denominator <= hi.numerator * q:
            heap.append((Fraction(p, q), q))
    heapify(heap)
    while heap:
        c, q = heap[0]
        yield c
        p = c.numerator + 1
        while gcd(p, q) != 1:
            p += 1
        if p * hi.denominator <= hi.numerator * q:
            heapreplace(heap, (Fraction(p, q), q))
        else:
            heappop(heap)


def _rotation_steps(g: LabeledGraph) -> list[int] | None:
    """x(v) with v = sigma^x(v)(0), where sigma is g's label rotation; None
    unless sigma is a certified automorphism of g whose orbit from vertex 0
    is every vertex."""
    sigma = label_rotation(g)
    if sigma is None or not is_automorphism(g, sigma):
        return None
    steps: list[int | None] = [None] * g.vertex_count
    v = 0
    for x in range(g.vertex_count):
        if steps[v] is not None:
            return None
        steps[v] = x
        v = sigma[v]
    return steps


def _rotation_probe(g: LabeledGraph, steps: list[int], p: int, q: int) -> int | None:
    """Least s with v -> s*x(v) mod p a homomorphism g -> K_{p/q}, or None.

    Only multiples s of p/gcd(p, V) give maps that commute with the rotation
    (s*V must vanish mod p).  Since the
    rotation is an automorphism, every edge is a rotated copy of an edge at
    vertex 0, so checking the neighbours of 0 decides the whole map.
    """
    step = p // gcd(p, g.vertex_count)
    xs = [steps[u] for u in iter_bits(g.adj[0])]
    for s in range(step, p, step):
        if all(q <= s * x % p <= p - q for x in xs):
            return s
    return None


def circular_chromatic_number(g: LabeledGraph) -> Fraction:
    """Least p/q (p <= |V|) whose circular complete graph admits g, exact.

    chi_c is attained by some p/q with p <= |V| (Zhu 2001), so candidates
    with a larger numerator are skipped without a search.
    """
    V = g.vertex_count
    if V == 0:
        return Fraction(0)
    if g.edge_count() == 0:
        return Fraction(1)
    chi = chromatic_number(g)
    if chi <= 2:
        return Fraction(chi)
    chif, _ = fractional_chromatic_number(g)
    steps = _rotation_steps(g)
    for cand in _ascending_candidates(chif, Fraction(chi), V):
        p, q = cand.numerator, cand.denominator
        if cand < 2 or p > V:
            continue
        target = (g if g.family == FamilyParams("circular", p, q)
                  else build_circular(p, q, vertex_cap=p))
        s = None if steps is None else _rotation_probe(g, steps, p, q)
        if s is not None:
            checked_map(VertexMap(g, target, {v: s * x % p for v, x in enumerate(steps)},
                                  MapKind.HOMOMORPHISM),
                        "rotation probe produced an invalid homomorphism")
            return cand
        if find_homomorphism(g, target) is not None:
            return cand
    raise AssertionError("no circular target admitted the graph up to its chromatic number")
