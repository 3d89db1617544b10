"""Homomorphism and isomorphism search, and circular chromatic numbers.

Both searches set up the package's one map search (`graphs._map_search`),
the same kernel that colors graphs as maps into K_t: a homomorphism search
starts every domain full, an isomorphism search starts from joint
neighbourhood-refinement classes and runs injective, with non-edges kept.
Circular chromatic numbers are computed by scanning reduced fractions p/q
(q bounded by the vertex count) upward from the fractional chromatic number,
one homomorphism search into K_{p/q} per candidate; hom-existence into
circular complete graphs is monotone in p/q, so the first admitting target is
the exact value.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .coloring import chromatic_number
from .fractional import fractional_chromatic_number
from .graphs import (
    LabeledGraph, MapKind, VertexMap, _map_search, build_circular, validate_map,
)
from .independence import iter_bits

DEFAULT_NODE_BUDGET = 100_000_000


def _hom_search(g: LabeledGraph, h: LabeledGraph,
                node_budget: int) -> dict[int, int] | None:
    Vg, Vh = g.vertex_count, h.vertex_count
    if Vg == 0:
        return {}
    if Vh == 0:
        return None
    image = _map_search(g.adj, h.adj, [(1 << Vh) - 1] * Vg, node_budget, "homomorphism")
    return None if image is None else dict(enumerate(image))


def find_homomorphism(g: LabeledGraph, h: LabeledGraph,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> VertexMap | None:
    """An edge-preserving vertex map g -> h, validated, or None (exhaustive)."""
    mapping = _hom_search(g, h, node_budget)
    if mapping is None:
        return None
    out = VertexMap(g, h, mapping, MapKind.HOMOMORPHISM)
    bad = validate_map(out)
    if bad:
        raise AssertionError(f"search produced an invalid homomorphism: {bad[:3]}")
    return out


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


def find_isomorphism(g: LabeledGraph, h: LabeledGraph,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> VertexMap | None:
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
    image = _map_search(g.adj, h.adj, domains, node_budget, "isomorphism", injective=True)
    if image is None:
        return None
    out = VertexMap(g, h, dict(enumerate(image)), MapKind.ISOMORPHISM)
    bad = validate_map(out)
    if bad:
        raise AssertionError(f"search produced an invalid isomorphism: {bad[:3]}")
    return out


def circular_candidates(lo: Fraction, hi: Fraction, max_q: int) -> list[Fraction]:
    """Reduced fractions in [lo, hi] with denominator <= max_q, ascending."""
    out = set()
    for q in range(1, max_q + 1):
        p_lo = -(-lo.numerator * q // lo.denominator)
        p_hi = hi.numerator * q // hi.denominator
        for p in range(p_lo, p_hi + 1):
            if gcd(p, q) == 1:
                out.add(Fraction(p, q))
    return sorted(out)


def circular_chromatic_number(g: LabeledGraph,
                              node_budget: int = DEFAULT_NODE_BUDGET) -> Fraction:
    """Least p/q (q <= |V|) whose circular complete graph admits g, exact."""
    V = g.vertex_count
    if V == 0:
        return Fraction(0)
    if g.edge_count() == 0:
        return Fraction(1)
    chi = chromatic_number(g, node_budget)
    if chi <= 2:
        return Fraction(chi)
    chif, _ = fractional_chromatic_number(g)
    for cand in circular_candidates(chif, Fraction(chi), V):
        if cand < 2:
            continue
        target = build_circular(cand.numerator, cand.denominator,
                                vertex_cap=max(cand.numerator, 1))
        if _hom_search(g, target, node_budget) is not None:
            return cand
    raise AssertionError("no circular target admitted the graph up to its chromatic number")
