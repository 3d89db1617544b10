"""Exact independent-set machinery on bitmask adjacency.

All certificates are exact: the ratio bound is only ever accepted after an
exact rational PSD check, and the branch-and-bound returns witnesses.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import ceil
from typing import Iterator

from .errors import ResourceCap
from .graphs import LabeledGraph, iter_bits

DEFAULT_MIS_CAP = 200_000

_GREEDY_SEED = 0xC0FFEE
_GREEDY_TRIES = 40


def bron_kerbosch(nonadj: list[int], r: int, p: int) -> Iterator[int]:
    """Pivoting Bron-Kerbosch on the complement: the maximal independent sets
    that contain r and lie within r | p, where nonadj[v] masks the vertices
    other than v that are not adjacent to v.

    Depth-first with an explicit stack, in the order of the recursive
    algorithm.  Yields once per expansion, so a caller can count and budget
    the work: the expanded set when it is maximal, else 0.
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


def enumerate_maximal_independent_sets(g: LabeledGraph,
                                       mis_cap: int = DEFAULT_MIS_CAP) -> list[tuple[int, ...]]:
    """All maximal independent sets, lex-sorted, via pivoting Bron-Kerbosch
    on the complement.  Raises ResourceCap when the family outgrows mis_cap."""
    V = g.vertex_count
    out: list[int] = []
    if V:
        for r in bron_kerbosch(nonadjacency(g), 0, (1 << V) - 1):
            if r:
                out.append(r)
                if len(out) > mis_cap:
                    raise ResourceCap(f"more than {mis_cap} maximal independent sets")
    return sorted(tuple(iter_bits(m)) for m in out)


def _greedy_independent(adj: list[int] | tuple[int, ...], V: int, mask: int,
                        rng: random.Random | None) -> int:
    chosen = 0
    while mask:
        best, bestd, cands = -1, V + 1, []
        for v in iter_bits(mask):
            d = (adj[v] & mask).bit_count()
            if d < bestd:
                bestd, cands = d, [v]
            elif d == bestd:
                cands.append(v)
        v = cands[0] if rng is None else rng.choice(cands)
        chosen |= 1 << v
        mask &= ~(adj[v] | (1 << v))
    return chosen


def _random_passes(adj, V: int, best: int, passes: int) -> int:
    """best, replaced by each of `passes` randomized min-degree passes (fixed
    seed) that is strictly larger than the best so far."""
    full = (1 << V) - 1
    rng = random.Random(_GREEDY_SEED)
    for _ in range(passes):
        cand = _greedy_independent(adj, V, full, rng)
        if cand.bit_count() > best.bit_count():
            best = cand
    return best


def greedy_independent_set(g: LabeledGraph, tries: int = _GREEDY_TRIES) -> int:
    """Best independent set found by min-degree passes: one deterministic,
    then tries - 1 randomized (fixed seed)."""
    V = g.vertex_count
    first = _greedy_independent(g.adj, V, (1 << V) - 1, None)
    return _random_passes(g.adj, V, first, tries - 1)


def _matching_bound(adj, mask: int) -> int:
    """|mask| minus a greedy maximal matching size: a valid alpha upper bound."""
    n = mask.bit_count()
    rem = mask
    msize = 0
    while rem:
        v = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        nb = adj[v] & rem
        if nb:
            rem &= ~(nb & -nb)
            msize += 1
    return n - msize


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


def _is_psd_exact(M: list[list[Fraction]]) -> bool:
    """Congruence elimination with symmetric pivoting; exact rational PSD test."""
    n = len(M)
    for i in range(n):
        piv = -1
        for j in range(i, n):
            if M[j][j] > 0:
                piv = j
                break
        if piv < 0:
            return all(M[p][q] == 0 for p in range(i, n) for q in range(i, n))
        if piv != i:
            M[i], M[piv] = M[piv], M[i]
            for row in M:
                row[i], row[piv] = row[piv], row[i]
        d = M[i][i]
        rowi = M[i]
        for p in range(i + 1, n):
            f = M[p][i]
            if f:
                f = f / d
                rowp = M[p]
                for q in range(i + 1, n):
                    if rowi[q]:
                        rowp[q] -= f * rowi[q]
                rowp[i] = Fraction(0)
    return True


def ratio_upper_bound(g: LabeledGraph) -> int | None:
    """alpha <= floor(V*c/(d+c)) certified by PSD of V(A + cI) - (d+c)J.

    The bound's proof needs only the PSD fact: for an independent set of size
    s, 0 <= 1_S^T M 1_S = V*c*s - (d+c)*s^2.  Regularity just makes the PSD
    certificate attainable; a float eigenvalue computation guesses c, the
    exact rational elimination confirms it.
    """
    V = g.vertex_count
    adj = g.adj
    degs = {a.bit_count() for a in adj}
    if len(degs) != 1:
        return None
    d = degs.pop()
    if d == 0:
        return V
    import numpy as np

    A = np.zeros((V, V))
    for i in range(V):
        for j in iter_bits(adj[i]):
            A[i][j] = 1.0
    lam_min = float(np.linalg.eigvalsh(A)[0])
    c0 = max(1, ceil(-lam_min - 1e-9))
    for c in (c0, c0 + 1):
        M = [[Fraction(V * ((adj[i] >> j) & 1) + (V * c if i == j else 0) - (d + c))
              for j in range(V)] for i in range(V)]
        if _is_psd_exact(M):
            return (V * c) // (d + c)
    return None


def _fail_soft_alpha(adj):
    """Neighborhood branching on the graph with adjacency rows adj.

    The returned solve(mask, need) gives (r, witness): r is exact alpha of
    G[mask] whenever r > need; any r <= need certifies alpha <= need
    (fail-soft).
    """

    def alpha_deg2(mask: int) -> tuple[int, int]:
        total, taken = 0, 0
        for comp in _components(adj, mask):
            # path or cycle: take alternating vertices greedily
            sub = comp
            while sub:
                best, bestd = -1, 3
                for v in iter_bits(sub):
                    dd = (adj[v] & sub).bit_count()
                    if dd < bestd:
                        bestd, best = dd, v
                taken |= 1 << best
                total += 1
                sub &= ~(adj[best] | (1 << best))
        return total, taken

    def solve(mask: int, need: int) -> tuple[int, int]:
        total, taken = 0, 0
        while True:
            if mask == 0:
                return total, taken
            changed = False
            for v in iter_bits(mask):
                if not (mask >> v) & 1:
                    continue
                nb = adj[v] & mask
                d = nb.bit_count()
                if d == 0:
                    total += 1
                    taken |= 1 << v
                    mask &= ~(1 << v)
                    changed = True
                elif d == 1:
                    total += 1
                    taken |= 1 << v
                    mask &= ~(nb | (1 << v))
                    changed = True
                elif d == 2:
                    u1 = (nb & -nb).bit_length() - 1
                    u2 = (nb & (nb - 1)).bit_length() - 1
                    if (adj[u1] >> u2) & 1:
                        total += 1
                        taken |= 1 << v
                        mask &= ~(nb | (1 << v))
                        changed = True
            if not changed:
                break
        if mask == 0:
            return total, taken

        maxd, v = -1, -1
        for u in iter_bits(mask):
            d = (adj[u] & mask).bit_count()
            if d > maxd:
                maxd, v = d, u
        if maxd <= 2:
            t2, m2 = alpha_deg2(mask)
            return total + t2, taken | m2

        comps = _components(adj, mask)
        if len(comps) > 1:
            comps.sort(key=lambda c: c.bit_count())
            for comp in comps:
                t2, m2 = solve(comp, 0)  # exact per component
                total += t2
                taken |= m2
            return total, taken

        ub = _matching_bound(adj, mask)
        if total + ub <= need:
            return total + ub, 0  # pruned: value only certifies alpha <= need
        best, best_mask = 0, 0
        sub = mask & ~(adj[v] | (1 << v))
        r, wm = solve(sub, -1)
        best, best_mask = 1 + r, wm | (1 << v)
        excluded = 1 << v
        for u in iter_bits(adj[v] & mask):
            sub = mask & ~(adj[u] | (1 << u) | excluded)
            if 1 + sub.bit_count() > best or 1 + _matching_bound(adj, sub) > best:
                r, wm = solve(sub, max(best, need - total) - 1)
                if 1 + r > best:
                    best, best_mask = 1 + r, wm | (1 << u)
            excluded |= 1 << u
        return total + best, taken | best_mask

    return solve


def _alpha_branch_and_bound(adj, V: int, lb_mask: int) -> tuple[int, int]:
    """Exact (alpha, witness_mask), starting from the independent set lb_mask."""
    full = (1 << V) - 1
    lb = lb_mask.bit_count()
    res, wit = _fail_soft_alpha(adj)(full, lb - 1)
    if res > lb - 1:
        return res, wit
    return lb, lb_mask


def maximum_independent_set(g: LabeledGraph) -> int:
    """A maximum independent set as a bitmask, exactly.

    Cascade: the deterministic greedy pass, then the matching bound, the
    certified ratio bound for regular graphs of maximum degree above 2, and
    branch-and-bound from that pass.  When they prove the pass maximum, it is
    returned at once.  Otherwise the randomized greedy passes run, and the
    mask returned is the one the 40-pass greedy followed by this cascade
    gives: a random pass replaces the first only when strictly larger, so a
    greedy set of the first pass's size is the first pass itself.
    """
    V = g.vertex_count
    if V == 0:
        return 0
    adj = g.adj
    full = (1 << V) - 1
    first = _greedy_independent(adj, V, full, None)
    lb = first.bit_count()
    if _matching_bound(adj, full) == lb:
        return first
    # at maximum degree <= 2 (paths and cycles) branch-and-bound settles alpha
    # directly, far below the cost of the O(V^3) PSD check
    if V >= 40 and max(a.bit_count() for a in adj) > 2 and ratio_upper_bound(g) == lb:
        return first
    alpha, wit = _alpha_branch_and_bound(adj, V, first)
    if alpha == lb:
        return first
    best = _random_passes(adj, V, first, _GREEDY_TRIES - 1)
    if best == first:
        return wit  # the branch-and-bound above is the one run from best
    if best.bit_count() == alpha:
        return best
    return _alpha_branch_and_bound(adj, V, best)[1]


def alpha_at_most(adj, mask: int, bound: int) -> bool:
    """True when the subgraph induced on mask has no independent set of more
    than bound vertices; branch-and-bound prunes at bound and computes no
    maximum set."""
    return _fail_soft_alpha(adj)(mask, bound)[0] <= bound


def independence_number(g: LabeledGraph) -> int:
    return maximum_independent_set(g).bit_count()


def max_independent_sets(g: LabeledGraph, mis_cap: int = DEFAULT_MIS_CAP) -> list[tuple[int, ...]]:
    """All maximum independent sets (lex-sorted), by filtering the maximal family."""
    fam = enumerate_maximal_independent_sets(g, mis_cap)
    if not fam:
        return []
    top = max(len(s) for s in fam)
    return [s for s in fam if len(s) == top]


def max_weight_independent_set(adj: list[int], weights: list[Fraction]) -> tuple[Fraction, int]:
    """Exact max-weight independent set on a small graph (used by LP pricing)."""
    n = len(weights)
    best_w = Fraction(0)
    best_mask = 0

    def rec(avail: int, cur_w: Fraction, cur_mask: int) -> None:
        nonlocal best_w, best_mask
        rest = cur_w
        hv, hw = -1, Fraction(0)
        m = avail
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            wv = weights[v]
            rest += wv
            if wv > hw:
                hw, hv = wv, v
        if rest <= best_w:
            return
        if hv < 0:
            if cur_w > best_w:
                best_w, best_mask = cur_w, cur_mask
            return
        rec(avail & ~(adj[hv] | (1 << hv)), cur_w + weights[hv], cur_mask | (1 << hv))
        rec(avail & ~(1 << hv), cur_w, cur_mask)

    rec((1 << n) - 1, Fraction(0), 0)
    return best_w, best_mask
