"""Exact fractional chromatic numbers with verified certificates.

Main path: column generation whose exact pricing runs on the optimal dual's
support subgraph only -- sound by weak duality, since y(I) = y(I & supp) for
every independent set I.  For graphs labelled by residues or subsets of Z_n
(the circular family included) a rotation-orbit certificate built from one
certified maximum independent set usually pins the value without any LP
iterations.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclic import CyclicSubset
from .errors import ResourceCap
from .graphs import LabeledGraph, label_rotation
from .independence import (
    alpha_at_most,
    iter_bits,
    max_weight_independent_set,
    maximum_independent_set,
)
from .simplex import PackingMaster

_ZERO = Fraction(0)
_ONE = Fraction(1)
_ROUND_CAP = 5_000
_PRICE_BATCH = 8


@dataclass(frozen=True)
class FractionalColoring:
    """Weighted independent sets covering every non-excluded vertex at least once."""

    sets: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    excluded_vertex: int | None = None
    excluded_edge: tuple[int, int] | None = None

    @property
    def value(self) -> Fraction:
        return sum(self.weights, _ZERO)


def verify_fractional_coloring(g: LabeledGraph, fc: FractionalColoring) -> list[str]:
    """Exact feasibility check against g minus fc's exclusions.

    A quick pass settles a valid coloring with a few whole-set operations per
    set; anything it rejects is walked again member by member, so a
    violation is always reported by that walk.
    """
    if len(fc.sets) != len(fc.weights):
        return ["sets/weights length mismatch"]
    excl_e = None
    if fc.excluded_edge is not None:
        a, b = fc.excluded_edge
        excl_e = (min(a, b), max(a, b))
    if _coloring_passes(g, fc, excl_e):
        return []
    return _coloring_violations(g, fc, excl_e)


def _coloring_passes(g: LabeledGraph, fc: FractionalColoring,
                     excl_e: tuple[int, int] | None) -> bool:
    """True when fc is valid: each set is in range, has no repeats and misses
    the excluded vertex, no member's adjacency (less the excluded edge) meets
    the set, and coverage counted per weight reaches 1 everywhere else."""
    V = g.vertex_count
    excl_v = fc.excluded_vertex
    adj = g.adj
    if excl_e is not None and 0 <= excl_e[0] and excl_e[1] < V:
        a, b = excl_e
        adj = list(adj)
        adj[a] &= ~(1 << b)
        adj[b] &= ~(1 << a)
    bits = [1 << v for v in range(V)]
    counts: dict[Fraction, Counter] = {}
    for s, w in zip(fc.sets, fc.weights):
        if w < 0:
            return False
        if s:
            if min(s) < 0 or max(s) >= V or len(set(s)) != len(s) or excl_v in s:
                return False
            mask = sum(map(bits.__getitem__, s))  # distinct members, so sum is OR
            if any(map(mask.__and__, map(adj.__getitem__, s))):
                return False
        if w not in counts:
            counts[w] = Counter()
        counts[w].update(s)
    scale = lcm(*(w.denominator for w in fc.weights))
    cover = [0] * V
    for w, members in counts.items():
        units = w.numerator * (scale // w.denominator)
        for v, c in members.items():
            cover[v] += c * units
    return all(c >= scale for v, c in enumerate(cover) if v != excl_v)


def _coloring_violations(g: LabeledGraph, fc: FractionalColoring,
                         excl_e: tuple[int, int] | None) -> list[str]:
    """Every violation of fc, set by set and member by member."""
    out: list[str] = []
    V = g.vertex_count
    excl_v = fc.excluded_vertex
    # coverage in integers over the common denominator of the weights
    scale = lcm(*(w.denominator for w in fc.weights))
    cover = [0] * V
    for idx, (s, w) in enumerate(zip(fc.sets, fc.weights)):
        if w < 0:
            out.append(f"set {idx} has negative weight {w}")
        units = w.numerator * (scale // w.denominator)
        mask = 0
        for v in s:
            if not (0 <= v < V) or v == excl_v:
                out.append(f"set {idx} uses invalid vertex {v}")
            elif (mask >> v) & 1:
                out.append(f"set {idx} repeats vertex {v}")
            else:
                mask |= 1 << v
                cover[v] += units
        later = mask
        for u in iter_bits(mask):
            later ^= 1 << u
            for v in iter_bits(g.adj[u] & later):
                if (u, v) != excl_e:
                    out.append(f"set {idx} not independent: edge {{{u},{v}}}")
    for v in range(V):
        if v != excl_v and cover[v] < scale:
            out.append(f"vertex {v} covered only {Fraction(cover[v], scale)}")
    return out


def witnessed_value(g: LabeledGraph, fc: FractionalColoring, support,
                    b: int) -> Fraction | None:
    """chi_f(g) = |support|/b when fc and the uniform weight 1/b on support
    pin it, else None.

    fc must pass `verify_fractional_coloring(g, fc)` with value |support|/b,
    and branch-and-bound must prove alpha(g[support]) <= b, which makes the
    weights a fractional clique.  Weak duality then gives
    |support|/b <= chi_f(g) <= fc.value.
    """
    mask = 0
    for v in support:
        if not 0 <= v < g.vertex_count:
            return None
        mask |= 1 << v
    value = Fraction(mask.bit_count(), b)
    if fc.value != value or verify_fractional_coloring(g, fc):
        return None
    if not alpha_at_most(g.adj, mask, b):
        return None
    return value


def _greedy_maximal_extend(adj, V: int, seed_mask: int) -> int:
    s = seed_mask
    blocked = seed_mask
    for v in iter_bits(seed_mask):
        blocked |= adj[v]
    for v in range(V):
        if not (blocked >> v) & 1:
            s |= 1 << v
            blocked |= adj[v] | (1 << v)
    return s


def _orbit_certificate(g: LabeledGraph) -> tuple[Fraction, FractionalColoring] | None:
    """Try the rotation-orbit coloring of one maximum independent set.

    The rotation is the label rotation x -> x+1 of Z_n (`label_rotation`),
    taken n times.  Succeeds when every rotated set is again an independent
    set of g and the orbit covers all vertices equally often, and the
    resulting primal value matches the dual bound |V| / alpha.  Then chi_f is
    pinned exactly.  The rotation need not be an automorphism: the rotated
    sets and the certificate are checked here.
    """
    rotation = label_rotation(g)
    if rotation is None:
        return None
    labels = g.labels
    subsets = isinstance(labels[0], CyclicSubset)
    n = labels[0].modulus if subsets else g.vertex_count
    best_mask = maximum_independent_set(g)
    alpha = best_mask.bit_count()
    base = list(iter_bits(best_mask))
    V = g.vertex_count
    # a maximum residue-star, when one exists, always rotates onto stars and
    # covers uniformly; prefer it over an arbitrary solver witness (subset
    # labels only: a residue label holds no residues)
    for i in range(n) if subsets else ():
        star = [v for v in range(V) if i in labels[v]]
        if len(star) != alpha:
            continue
        mask = 0
        for v in star:
            if g.adj[v] & mask:
                mask = -1
                break
            mask |= 1 << v
        if mask != -1:
            base = star
            break
    cover = [0] * V
    orbit_sets: dict[tuple[int, ...], int] = {}
    members = base
    for _ in range(n):
        mask = 0
        for v in members:
            if g.adj[v] & mask:
                return None  # rotation is not an automorphism here
            mask |= 1 << v
        key = tuple(sorted(members))
        orbit_sets[key] = orbit_sets.get(key, 0) + 1
        for v in members:
            cover[v] += 1
        members = [rotation[v] for v in members]
    c = cover[0]
    if c == 0 or any(x != c for x in cover):
        return None
    primal = Fraction(n, c)
    if primal != Fraction(V, alpha):
        return None
    sets = tuple(sorted(orbit_sets))
    weights = tuple(Fraction(orbit_sets[s], c) for s in sets)
    fc = FractionalColoring(sets, weights)
    if verify_fractional_coloring(g, fc) or fc.value != primal:
        return None
    return primal, fc


def _support_pricing(g: LabeledGraph, y: list[Fraction]) -> tuple[Fraction, int]:
    """Exact max-weight independent set restricted to supp(y), as a g-mask."""
    supp = [v for v in range(g.vertex_count) if y[v] > 0]
    sadj = [0] * len(supp)
    for a, va in enumerate(supp):
        for bidx in range(a + 1, len(supp)):
            vb = supp[bidx]
            if (g.adj[va] >> vb) & 1:
                sadj[a] |= 1 << bidx
                sadj[bidx] |= 1 << a
    w, mask = max_weight_independent_set(sadj, [y[v] for v in supp])
    gmask = 0
    for i in iter_bits(mask):
        gmask |= 1 << supp[i]
    return w, gmask


def _greedy_priced_columns(g: LabeledGraph, y: list[Fraction]) -> list[int]:
    """Cheap pricing: weight-greedy independent sets forced through each of
    the heaviest support vertices; returns maximal extensions violating 1."""
    V = g.vertex_count
    supp = sorted((v for v in range(V) if y[v] > 0), key=lambda u: (-y[u], u))
    cols = []
    for force in supp[:_PRICE_BATCH]:
        tw = y[force]
        blocked = g.adj[force] | (1 << force)
        chosen = 1 << force
        for v in supp:
            if not (blocked >> v) & 1:
                chosen |= 1 << v
                tw += y[v]
                blocked |= g.adj[v] | (1 << v)
        if tw > 1:
            cols.append(_greedy_maximal_extend(g.adj, V, chosen))
    return cols


def fractional_chromatic_number(g: LabeledGraph) -> tuple[Fraction, FractionalColoring]:
    """Exact chi_f with a verified covering certificate."""
    V = g.vertex_count
    if V == 0:
        return _ZERO, FractionalColoring((), ())
    if g.edge_count() == 0:
        fc = FractionalColoring((tuple(range(V)),), (_ONE,))
        return _ONE, fc
    pinned = _orbit_certificate(g)
    if pinned is not None:
        return pinned
    value, masks, weights = _column_generation(g)
    sets = tuple(tuple(iter_bits(m)) for m in masks)
    fc = FractionalColoring(sets, tuple(weights))
    bad = verify_fractional_coloring(g, fc)
    if bad or fc.value != value:
        raise AssertionError(f"LP certificate failed verification: {bad[:3]}")
    return value, fc


def _column_generation(g: LabeledGraph) -> tuple[Fraction, list[int], list[Fraction]]:
    V = g.vertex_count
    adj = g.adj
    master = PackingMaster(V)
    seen: set[int] = set()
    for v in range(V):
        col = _greedy_maximal_extend(adj, V, 1 << v)
        if col not in seen:
            seen.add(col)
            master.add_constraint(col)
    master.primal_simplex()
    for _ in range(_ROUND_CAP):
        value, y, w = master.solution()
        cols = [c for c in _greedy_priced_columns(g, y) if c not in seen]
        if cols:
            for c in cols:
                seen.add(c)
                master.add_constraint(c)
            master.dual_simplex()
            continue
        best_w, best_mask = _support_pricing(g, y)
        if best_w <= 1:
            keep = [(m, wi) for m, wi in zip(master.pool, w) if wi > 0]
            return value, [m for m, _ in keep], [wi for _, wi in keep]
        col = _greedy_maximal_extend(adj, V, best_mask)
        if col in seen:
            col = best_mask  # the violated set itself is necessarily new
        seen.add(col)
        master.add_constraint(col)
        master.dual_simplex()
    raise ResourceCap(f"column generation exceeded {_ROUND_CAP} rounds")


def covering_lp_over_pool(g: LabeledGraph,
                          pool: list[tuple[int, ...]]) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of the covering LP restricted to the given sets.

    Small-graph oracle used to cross-check column generation; the pool must
    cover every vertex.
    """
    V = g.vertex_count
    master = PackingMaster(V)
    for s in pool:
        mask = 0
        for v in s:
            mask |= 1 << v
        master.add_constraint(mask)
    master.primal_simplex()
    value, _y, w = master.solution()
    return value, w
