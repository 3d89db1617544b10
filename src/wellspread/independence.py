"""Exact independent-set machinery on bitmask adjacency.

One min-degree greedy (`_greedy_independent`) gives the first independent
set, and one exact search (`_fail_soft_search`: weighted neighbourhood
branching with fail-soft pruning, on the stack of `graphs._tree_steps`
under a node budget) proves or improves it at unit weights and prices LP
columns at integer weights.  All certificates are exact: the ratio bound is
only ever returned after its Katona-circle witness passes `validate_map` on
the graph itself, and the search returns witnesses.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .errors import ResourceCap
from .cyclic import CyclicSubset
from .graphs import (LabeledGraph, MapKind, VertexMap, _residue_permutation, _run_search,
                     _solve_per_orbit, _tree_steps, build_circular, is_automorphism,
                     iter_bits, label_rotation, validate_map)

_MIS_CAP = 200_000  # sets of one `enumerate_maximal_independent_sets`
_NODE_BUDGET = 10_000_000  # nodes of one `_fail_soft_search`


def bron_kerbosch(nonadj: list[int], r: int, p: int) -> Iterator[int]:
    """Pivoting Bron-Kerbosch on the complement: the maximal independent sets
    that contain r and lie within r | p, where nonadj[v] masks the vertices
    other than v that are not adjacent to v.

    Depth-first with an explicit stack, in the order of the recursive
    algorithm.  Yields once per expansion, so a caller can count and budget
    the work: the expanded set when it is maximal, else 0.  Class branching
    enumerates its classes here while four or more colors are left.
    """
    x = 0
    stack: list[list[int]] = []
    while True:
        if p or x:
            yield 0
            # pivot maximizing |P & nonadj(u)|
            best_u, best_cnt = -1, -1
            m = p | x
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                c = (p & nonadj[u]).bit_count()
                if c > best_cnt:
                    best_cnt, best_u = c, u
            stack.append([r, p, x, p & ~nonadj[best_u]])
        else:
            yield r
        # descend into the next untried branch, popping finished frames
        while stack:
            top = stack[-1]
            r, p, x, cand = top
            if cand:
                bv = cand & -cand
                v = bv.bit_length() - 1
                top[1], top[2], top[3] = p & ~bv, x | bv, cand ^ bv
                r, p, x = r | bv, p & nonadj[v], x & nonadj[v]
                break
            stack.pop()
        else:
            return


def nonadjacency(g: LabeledGraph) -> list[int]:
    """Per vertex, the mask of the other vertices not adjacent to it."""
    full = (1 << g.vertex_count) - 1
    return [full & ~a & ~(1 << v) for v, a in enumerate(g.adj)]


def enumerate_maximal_independent_sets(g: LabeledGraph) -> list[tuple[int, ...]]:
    """All maximal independent sets, lex-sorted, via pivoting Bron-Kerbosch
    on the complement.  Raises ResourceCap past `_MIS_CAP` sets."""
    V = g.vertex_count
    out: list[int] = []
    if V:
        for r in bron_kerbosch(nonadjacency(g), 0, (1 << V) - 1):
            if r:
                out.append(r)
                if len(out) > _MIS_CAP:
                    raise ResourceCap(f"more than {_MIS_CAP} maximal independent sets")
    return sorted(tuple(iter_bits(m)) for m in out)


def _greedy_independent(adj, mask: int) -> int:
    """Min-degree greedy on the subgraph induced on mask: take the first
    vertex of least degree in what is left, drop it and its neighbours, and
    repeat.  On paths and cycles this is a maximum independent set.

    Vertices wait in buckets by degree, each a bitmask.  A vertex whose
    degree falls joins its new bucket and stays in its old one, where it
    lies at a degree above the least; so the vertices left in the lowest
    bucket that holds any are exactly those of least degree, and the first of
    them is its lowest bit.  Each pick updates only the vertices next to
    what it drops.
    """
    deg = {v: (adj[v] & mask).bit_count() for v in iter_bits(mask)}
    buckets = [0] * (max(deg.values(), default=0) + 1)
    for v, d in deg.items():
        buckets[d] |= 1 << v
    chosen = 0
    low = 0
    while mask:
        while not buckets[low] & mask:
            low += 1
        b = buckets[low] & mask
        b &= -b
        chosen |= b
        gone = adj[b.bit_length() - 1] & mask | b
        mask ^= gone
        touched = 0
        for u in iter_bits(gone):
            touched |= adj[u]
        for w in iter_bits(touched & mask):
            d = deg[w] = deg[w] - (adj[w] & gone).bit_count()
            buckets[d] |= 1 << w
            if d < low:
                low = d
    return chosen


def _matching_bound(adj, mask: int, weight: list[int] | None = None) -> int:
    """The weight of mask less the lighter end of each edge of a greedy
    maximal matching: no independent set in mask weighs more.  With unit
    weights (weight None) this is |mask| minus the matching size."""
    rem = mask
    cut = 0
    while rem:
        v = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        nb = adj[v] & rem
        if nb:
            b = nb & -nb
            rem ^= b
            cut += 1 if weight is None else min(weight[v], weight[b.bit_length() - 1])
    return (mask.bit_count() if weight is None else sum(weight[v] for v in iter_bits(mask))) - cut


def _components(adj, mask: int) -> list[int]:
    comps = []
    rem = mask
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj[v] & rem
            nxt &= ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        rem &= ~comp
    return comps


def ratio_upper_bound(g: LabeledGraph) -> int | None:
    """alpha(g) <= floor(|V|*k/n), certified by the Katona circle, or None.

    k and n come from vertex 0's label, a k-subset of Z_n.  The n intervals
    {i, ..., i+k-1} map the circular complete graph K_{n/k} into g (Katona
    1972); with alpha(K_{n/k}) <= k this gives chi_f(g) >= n/k, and a
    vertex-transitive g has alpha(g) = |V|/chi_f(g) (the no-homomorphism
    lemma, Albertson and Collins 1985).  Every step is checked on g itself:
    the label rotation and the transposition (0 1) must each pass
    `is_automorphism` and move vertex 0 onto every vertex, the interval map
    must pass `validate_map`, and branch-and-bound must bound alpha(K_{n/k})
    by k.  Any failed check gives None.
    """
    labels = g.labels
    if not labels or not isinstance(labels[0], CyclicSubset):
        return None
    n, k = labels[0].modulus, len(labels[0])
    if not 1 <= k <= n // 2:
        return None
    gens = [label_rotation(g), _residue_permutation(g, lambda x, n: 1 - x if x < 2 else x)]
    if None in gens or not all(is_automorphism(g, perm) for perm in gens):
        return None
    V = g.vertex_count
    # transitive: vertex 0 is the first member of every vertex's orbit
    if any(_solve_per_orbit(range(V), gens, list.__getitem__, lambda v: v)):
        return None
    index = {lab: i for i, lab in enumerate(labels)}
    first = CyclicSubset(n, range(k))
    intervals = [index.get(first.rotate(i)) for i in range(n)]
    if None in intervals:
        return None
    circle = build_circular(n, k)
    if validate_map(VertexMap(circle, g, dict(enumerate(intervals)), MapKind.HOMOMORPHISM)):
        return None
    if not alpha_at_most(circle.adj, (1 << n) - 1, k):
        return None
    return V * k // n


def _fail_soft_search(adj, mask: int, need: int, weight: list[int] | None = None) -> tuple[int, int]:
    """Neighbourhood branching for the heaviest independent set within mask,
    for non-negative integer weights (unit weights when weight is None).

    Returns (r, witness): r is the maximum weight, and witness a set of that
    weight, whenever r > need; any r <= need certifies that no independent
    set within mask weighs more than need (fail-soft).  Weights equal and
    positive across mask are searched as unit weights and scaled.  Each
    node is a generator that `graphs._tree_steps` runs on one explicit
    stack, under `graphs._run_search`; ResourceCap past `_NODE_BUDGET` nodes.
    """
    scale = 1
    if weight is not None:
        seen = {weight[v] for v in iter_bits(mask)}
        if len(seen) == 1 and 0 not in seen:
            (scale,) = seen
            weight, need = None, need // scale

    def node(mask: int, need: int):
        # pauses as it begins, yields each child node and is sent its (r, witness)
        yield
        total, taken = 0, 0
        while True:
            if mask == 0:
                return total, taken
            # take each vertex whose neighbours, at most two, are pairwise
            # adjacent and none heavier: some heaviest set holds it
            changed = False
            for v in iter_bits(mask):
                if not (mask >> v) & 1:
                    continue
                nb = adj[v] & mask
                if nb & (nb - 1) and (nb.bit_count() > 2 or not adj[(nb & -nb).bit_length() - 1] & nb):
                    continue
                if weight is not None and any(weight[u] > weight[v] for u in iter_bits(nb)):
                    continue
                total += 1 if weight is None else weight[v]
                taken |= 1 << v
                mask &= ~(nb | (1 << v))
                changed = True
            if not changed:
                break

        v = max(iter_bits(mask), key=lambda u: (adj[u] & mask).bit_count())
        if weight is None and (adj[v] & mask).bit_count() <= 2:
            # paths and cycles, where the greedy is exact at equal weights
            m2 = _greedy_independent(adj, mask)
            return total + m2.bit_count(), taken | m2

        comps = _components(adj, mask)
        if len(comps) > 1:
            comps.sort(key=int.bit_count)
            for comp in comps:
                t2, m2 = yield node(comp, -1)  # exact per component
                total += t2
                taken |= m2
            return total, taken

        ub = _matching_bound(adj, mask, weight)
        if total + ub <= need:
            return total + ub, 0  # pruned: value only certifies the bound
        # some heaviest set holds v or one of its neighbours
        w = 1 if weight is None else weight[v]
        r, wm = yield node(mask & ~(adj[v] | (1 << v)), -1)
        best, best_mask = w + r, wm | (1 << v)
        excluded = 1 << v
        for u in iter_bits(adj[v] & mask):
            sub = mask & ~(adj[u] | (1 << u) | excluded)
            w = 1 if weight is None else weight[u]
            if w + _matching_bound(adj, sub, weight) > best:
                r, wm = yield node(sub, max(best, need - total) - w)
                if w + r > best:
                    best, best_mask = w + r, wm | (1 << u)
            excluded |= 1 << u
        return total + best, taken | best_mask

    r, witness = _run_search(_tree_steps(node(mask, need)), "independent-set", _NODE_BUDGET)
    return r * scale, witness


def maximum_independent_set(g: LabeledGraph) -> int:
    """A maximum independent set as a bitmask, exactly.

    Cascade: the min-degree greedy pass, then the matching bound, the
    Katona-circle ratio bound on 40 or more vertices of maximum degree above
    2, and `_fail_soft_search` at unit weights pruned below the pass's size
    (ResourceCap past its node budget).  The greedy set is returned whenever
    the cascade proves it maximum, and otherwise the larger set found.
    """
    V = g.vertex_count
    if V == 0:
        return 0
    adj = g.adj
    full = (1 << V) - 1
    first = _greedy_independent(adj, full)
    lb = first.bit_count()
    if _matching_bound(adj, full) == lb:
        return first
    # on small graphs, and at maximum degree <= 2 (paths and cycles),
    # the search settles alpha directly
    if V >= 40 and max(a.bit_count() for a in adj) > 2 and ratio_upper_bound(g) == lb:
        return first
    r, wit = _fail_soft_search(adj, full, lb - 1)
    return wit if r > lb else first


def alpha_at_most(adj, mask: int, bound: int) -> bool:
    """True when the subgraph induced on mask has no independent set of more
    than bound vertices: `_fail_soft_search` at unit weights prunes at bound
    and computes no maximum set (ResourceCap past its node budget)."""
    return _fail_soft_search(adj, mask, bound)[0] <= bound


def independence_number(g: LabeledGraph) -> int:
    return maximum_independent_set(g).bit_count()


def max_independent_sets(g: LabeledGraph) -> list[tuple[int, ...]]:
    """All maximum independent sets (lex-sorted), by filtering the maximal family."""
    fam = enumerate_maximal_independent_sets(g)
    if not fam:
        return []
    top = max(len(s) for s in fam)
    return [s for s in fam if len(s) == top]


def max_weight_independent_set(adj: Sequence[int],
                               weights: list[Fraction]) -> tuple[Fraction, int]:
    """An exact max-weight independent set and its weight, for LP pricing:
    `_fail_soft_search` runs exact on the weights scaled by their common
    denominator, vertices of weight <= 0 left out (ResourceCap past its node
    budget)."""
    scale = lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (scale // w.denominator) for w in weights]
    mask = sum(1 << v for v, w in enumerate(scaled) if w > 0)
    value, witness = _fail_soft_search(adj, mask, -1, scaled)
    return Fraction(value, scale), witness
