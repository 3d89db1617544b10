"""Exact fractional chromatic numbers with verified certificates.

Main path: column generation on the integer tableau of `simplex`, each round
priced by one exact max-weight independent set over the optimal dual's
support (`max_weight_independent_set` leaves out weights <= 0), sound by
weak duality since y(I) = y(I & supp) for every independent set I.  The
covering and the final y are both checked.  For graphs labelled by residues
or subsets of Z_n (the circular family included) a rotation-orbit
certificate built from one certified maximum independent set usually pins
the value without any LP iterations.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from operator import itemgetter, or_

from .cyclic import CyclicSubset
from .errors import ResourceCap
from .graphs import LabeledGraph, _exclusion_violations, _rows_less, label_rotation
from .independence import (
    alpha_at_most,
    iter_bits,
    max_weight_independent_set,
    maximum_independent_set,
)
from .simplex import PackingMaster

_ROUND_CAP = 5_000


@dataclass(frozen=True)
class FractionalColoring:
    """Weighted independent sets covering every non-excluded vertex at least once."""

    sets: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    excluded_vertex: int | None = None
    excluded_edge: tuple[int, int] | None = None

    @cached_property
    def value(self) -> Fraction:
        """The total weight, summed on first read in integers over the
        common denominator."""
        scale = lcm(*(w.denominator for w in self.weights))
        return Fraction(sum(w.numerator * (scale // w.denominator) for w in self.weights), scale)


def verify_fractional_coloring(g: LabeledGraph, fc: FractionalColoring) -> list[str]:
    """Exact feasibility check against g minus fc's exclusions.

    A quick pass settles a valid coloring with a few whole-set operations per
    set; anything it rejects is walked again member by member, so a
    violation is always reported by that walk.  The exclusions must name one
    vertex of g or one edge of g, not both.
    """
    if len(fc.sets) != len(fc.weights):
        return ["sets/weights length mismatch"]
    if _coloring_passes(g, fc):
        return []
    return _coloring_violations(g, fc)


def _coloring_passes(g: LabeledGraph, fc: FractionalColoring) -> bool:
    """True when fc is valid, by a few whole-set operations per set.

    Row u of g, less the exclusion, carries u's own bit V places up, and
    index V reads a 0, so that a one-member set reads a tuple too.  One
    `itemgetter` reads a set's rows and one OR of them gives both the set's
    neighbourhood (the low V bits) and its mask (the bits from V up).  The
    least member is checked non-negative first; a member above V raises
    IndexError, and a member equal to V or a repeat leaves the mask with
    fewer bits than the set has members (the OR drops both).  One bit test
    finds the excluded vertex, and the neighbourhood must miss the mask.

    Coverage is counted per distinct weight in bit-sliced counters: slice i
    holds bit i of every vertex's count, and a set's mask is added by
    rippling its carry through the slices.  The counts are read back from the
    slices, and coverage in integers over the common denominator must reach
    1 on every vertex but the excluded one.
    """
    if _exclusion_violations(g, fc.excluded_vertex, fc.excluded_edge):
        return False
    V = g.vertex_count
    excl_v = fc.excluded_vertex
    rows = _rows_less(g, excl_v, fc.excluded_edge)
    rows = [row | 1 << top for top, row in enumerate(rows, V)] + [0]  # top = u + V
    excl_bit = 0 if excl_v is None else 1 << excl_v
    # the slices per distinct weight, keyed by its lowest terms (a cheaper
    # hash than a Fraction's)
    slices: dict[tuple[int, int], list[int]] = {}
    for s, w in zip(fc.sets, fc.weights):
        counter = slices.setdefault((w.numerator, w.denominator), [])
        if not s:
            continue
        if min(s) < 0:
            return False
        try:
            both = reduce(or_, itemgetter(*s, V)(rows))
        except IndexError:  # a member above V
            return False
        mask = both >> V
        # both & mask is the neighbourhood's share of the mask
        if mask.bit_count() != len(s) or mask & excl_bit or both & mask:
            return False
        carry = mask
        for i, c in enumerate(counter):
            counter[i] = c ^ carry
            carry &= c
            if not carry:
                break
        else:
            counter.append(carry)
    if any(num < 0 for num, _ in slices):  # the sign of each distinct weight
        return False
    scale = lcm(*(den for _, den in slices))
    cover = [0] * V
    for (num, den), counter in slices.items():
        units = num * (scale // den)
        for i, c in enumerate(counter):
            for v in iter_bits(c):
                cover[v] += units << i
    return all(c >= scale for v, c in enumerate(cover) if v != excl_v)


def _coloring_violations(g: LabeledGraph, fc: FractionalColoring) -> list[str]:
    """Every violation of fc, set by set and member by member."""
    out = _exclusion_violations(g, fc.excluded_vertex, fc.excluded_edge)
    if out:
        return out
    V = g.vertex_count
    excl_v = fc.excluded_vertex
    rows = tuple(_rows_less(g, excl_v, fc.excluded_edge))
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
            for v in iter_bits(rows[u] & later):
                out.append(f"set {idx} not independent: edge {{{u},{v}}}")
    for v in range(V):
        if v != excl_v and cover[v] < scale:
            out.append(f"vertex {v} covered only {Fraction(cover[v], scale)}")
    return out


def witnessed_value(g: LabeledGraph, fc: FractionalColoring, support,
                    b: int) -> Fraction | None:
    """chi_f(D) = |support|/b, where D is g less fc's exclusion, when fc and
    the uniform weight 1/b on support pin it, else None.

    fc must pass `verify_fractional_coloring(g, fc)` with value |support|/b.
    The support must lie in D, so it may not hold the excluded vertex, and
    branch-and-bound must prove alpha(D[support]) <= b on D's own rows,
    which makes the weights a fractional clique of D.  Weak duality then
    gives |support|/b <= chi_f(D) <= fc.value.
    """
    mask = 0
    for v in support:
        if not 0 <= v < g.vertex_count:
            return None
        mask |= 1 << v
    value = Fraction(mask.bit_count(), b)
    if fc.value != value or verify_fractional_coloring(g, fc):
        return None
    ev = fc.excluded_vertex
    if ev is not None and mask >> ev & 1:
        return None
    if not alpha_at_most(tuple(_rows_less(g, ev, fc.excluded_edge)), mask, b):
        return None
    return value


def _greedy_extend(adj, chosen: int) -> int:
    """The independent set chosen, extended by each vertex in id order that
    is not chosen and has no chosen neighbour."""
    blocked = chosen
    for v in iter_bits(chosen):
        blocked |= adj[v]
    for v in range(len(adj)):
        if not (blocked >> v) & 1:
            chosen |= 1 << v
            blocked |= adj[v] | (1 << v)
    return chosen


def _independent_stars(g: LabeledGraph) -> list[int]:
    """The stars {v : i in label(v)} of subset labels of Z_n, i = 0..n-1,
    that are independent in g, as masks; none for other labels.  A star is
    kept when it meets none of its members' neighbourhoods."""
    labels = g.labels
    if not labels or not isinstance(labels[0], CyclicSubset):
        return []
    stars = [0] * labels[0].modulus
    for v, label in enumerate(labels):
        for i in label.elements:
            stars[i] |= 1 << v
    adj = g.adj
    return [s for s in stars if not s & reduce(or_, map(adj.__getitem__, iter_bits(s)), 0)]


def _orbit_certificate(g: LabeledGraph) -> tuple[Fraction, FractionalColoring] | None:
    """Try the rotation-orbit coloring of one maximum independent set.

    The rotation is the label rotation x -> x+1 of Z_n (`label_rotation`),
    taken n times.  The orbit's n sets, each of weight 1/c for c = n*alpha/|V|
    (None unless that is an integer), are checked once by
    `verify_fractional_coloring`.  They hold n*alpha = c*|V| memberships, so
    they reach c on every vertex only when the cover is uniform; then their
    value n/c meets the dual bound |V|/alpha and chi_f is pinned exactly.
    The rotation need not be an automorphism: the check covers the rotated
    sets.
    """
    rotation = label_rotation(g)
    if rotation is None:
        return None
    labels = g.labels
    subsets = isinstance(labels[0], CyclicSubset)
    n = labels[0].modulus if subsets else g.vertex_count
    best_mask = maximum_independent_set(g)
    alpha = best_mask.bit_count()
    V = g.vertex_count
    c, rem = divmod(n * alpha, V)
    if rem:
        return None
    base = list(iter_bits(best_mask))
    # a maximum residue-star, when one exists, always rotates onto stars and
    # covers uniformly; prefer it over an arbitrary solver witness (subset
    # labels only: a residue label holds no residues)
    for i in range(n) if subsets else ():
        star = [v for v in range(V) if i in labels[v]]
        if len(star) != alpha:
            continue
        mask = sum(1 << v for v in star)
        if not any(g.adj[v] & mask for v in star):
            base = star
            break
    orbit_sets: dict[tuple[int, ...], int] = {}
    members = base
    for _ in range(n):
        key = tuple(sorted(members))
        orbit_sets[key] = orbit_sets.get(key, 0) + 1
        members = [rotation[v] for v in members]
    sets = tuple(sorted(orbit_sets))
    fc = FractionalColoring(sets, tuple(Fraction(orbit_sets[s], c) for s in sets))
    if verify_fractional_coloring(g, fc):
        return None
    return Fraction(V, alpha), fc


def fractional_chromatic_number(g: LabeledGraph) -> tuple[Fraction, FractionalColoring]:
    """Exact chi_f with a verified covering certificate."""
    V = g.vertex_count
    if V == 0:
        return Fraction(0), FractionalColoring((), ())
    if g.edge_count() == 0:
        return Fraction(1), FractionalColoring((tuple(range(V)),), (Fraction(1),))
    pinned = _orbit_certificate(g)
    if pinned is not None:
        return pinned
    value, y, masks, weights = _column_generation(g)
    sets = tuple(tuple(iter_bits(m)) for m in masks)
    fc = FractionalColoring(sets, tuple(weights))
    bad = verify_fractional_coloring(g, fc)
    if bad or fc.value != value:
        raise AssertionError(f"LP certificate failed verification: {bad[:3]}")
    # exact pricing proved y(I) <= 1 for every independent set I, so y >= 0
    # summing to the value is a fractional clique: the lower bound, checked
    if min(y) < 0 or sum(y) != value:
        raise AssertionError(f"LP dual weights fail: min {min(y)}, sum {sum(y)}, value {value}")
    return value, fc


def _column_generation(
        g: LabeledGraph) -> tuple[Fraction, list[Fraction], list[int], list[Fraction]]:
    """(chi_f, the optimal dual y, the pooled sets of positive weight, their weights).

    On subset labels the pool starts from the stars {v : i in label(v)},
    each kept if it is independent and greedily extended.  A vertex with a
    k-subset label lies in k of them, so with weight 1/k they colour at
    n/k, and the first solve is often optimal.  One greedy set per vertex
    follows."""
    V = g.vertex_count
    adj = g.adj
    master = PackingMaster(V)
    seen: set[int] = set()

    def pool(col: int) -> None:
        if col not in seen:
            seen.add(col)
            master.add_constraint(col)

    for star in _independent_stars(g):
        pool(_greedy_extend(adj, star))
    for v in range(V):
        pool(_greedy_extend(adj, 1 << v))
    master.primal_simplex()
    for _ in range(_ROUND_CAP):
        value, y, w = master.solution()
        best_w, best_mask = max_weight_independent_set(adj, y)
        if best_w <= 1:
            keep = [(m, wi) for m, wi in zip(master.pool, w) if wi > 0]
            return value, y, [m for m, _ in keep], [wi for _, wi in keep]
        col = _greedy_extend(adj, best_mask)
        if col in seen:
            col = best_mask  # the violated set itself is necessarily new
        pool(col)
        master.dual_simplex()
    raise ResourceCap(f"column generation exceeded {_ROUND_CAP} rounds")
