"""Exact chromatic numbers by two exhaustive searches taking turns.

Every decision "is g t-colorable?" goes through `is_t_colorable`.  After the
greedy clique and DSATUR-coloring shortcuts (each worked out once per graph,
so `chromatic_number` and every `is_t_colorable` it asks share them), two
exact searches share one node budget, `graphs.NODE_BUDGET`.  Both are
generators that pause once per node, so one loop steps them in turn, and
class branching recurses on the explicit stack of `graphs._tree_steps`.  The
DSATUR search is the package's one map search (`graphs._map_steps`) into K_t:
greedy-clique precoloring, forward checking on per-vertex domain masks,
DSATUR vertex order and first-fresh-color symmetry breaking.  It runs alone
for its first V nodes, one greedy descent, which colors a graph without
backtracking.  Then class branching (`_class_steps`) starts, and one
class-branching node and one DSATUR node alternate until DSATUR has spent
V + `_PROBE_NODES`; the first search to answer wins.  Class branching
branches on the residual vertex with the fewest class choices, over the
maximal independent sets of the shared Bron-Kerbosch of `independence` while
four or more colors are left.  With three left it lists no classes: the
class must leave a bipartite rest, and `_forcing_steps` searches for one
directly.  It grows the class from that vertex, forces into it every
undecided vertex next to both sides of one component of the left-out
vertices, and branches only when nothing is forced.  One breadth-first
helper, `_odd_closers`, two-colors those components and finds the vertices
they force; alone it decides t = 2 before any search.  Class branching
memoizes refuted residuals up to the graph's certified dihedral symmetry
(`graphs.dihedral_automorphisms`), renumbering the vertices so that the
rotation acts by bit shifts and the reflection by one table lookup per hex
digit of the mask; a graph without one keys the memo by the residual itself.

The two searches win on different graphs (the node table in
`is_t_colorable`): DSATUR refutes 5 colors on I(11,2) in 5 nodes, where class
branching takes 56,480; class branching refutes 5 colors on SG(10,3) in 3,249,
where DSATUR takes minutes.  Taking turns bounds the cost to twice the
winner's nodes plus the DSATUR cap.  Both searches are exhaustive, forcing
moves only vertices that no 3-coloring of the residual puts elsewhere, and
the memo only skips residuals isomorphic to refuted ones, so both directions
of every answer are exact.

`rlf_coloring` is a recursive-largest-first greedy coloring (Leighton 1979).
No decision here uses it: it runs only in the chi vertex sweep
(`criticality.vertex_criticality`), once per orbit, on the deleted graph D,
as a witness that counts only once `validate_map` accepts it on D as a map
into K_{chi-1}; when it fails, `is_t_colorable` decides.
"""
from __future__ import annotations

from itertools import chain, repeat
from math import lcm
from operator import getitem
from typing import Callable, Generator

from . import graphs
from .errors import ResourceCap
from .graphs import LabeledGraph, _kept, _map_steps, _run_search, dihedral_automorphisms
from .independence import bron_kerbosch, iter_bits, nonadjacency

# DSATUR nodes beyond one per vertex that is_t_colorable lets the search spend
_PROBE_NODES = 1000

# class branching stops memoizing refuted residual masks past this many;
# refuting 5 colors on SG(10,3) leaves 384 entries, 4 on SG(11,4) 77, 4 on
# KG(9,3) 1,644 and 6 on SG(11,3) 92,406.  Most are residuals that the
# forcing search refuted with three colors left; with no memo, 4 colors on
# SG(11,4) take 8,476 nodes instead of 3,238
_REFUTED_MEMO_CAP = 250_000


def greedy_clique(g: LabeledGraph) -> list[int]:
    """A maximal clique grown from the max-degree vertex (chromatic lower bound).

    Computed once per graph; each call returns a fresh list.
    """
    def grow(g: LabeledGraph) -> tuple[int, ...]:
        V = g.vertex_count
        if V == 0:
            return ()
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
        return tuple(clique)

    return list(_kept(g, "_greedy_clique", grow))


def greedy_coloring(g: LabeledGraph) -> list[int]:
    """DSATUR greedy proper coloring (upper bound witness), by `_dsatur`.

    Computed once per graph; each call returns a fresh list.
    """
    return list(_kept(g, "_greedy_coloring", _dsatur))


def _dsatur(g: LabeledGraph) -> tuple[int, ...]:
    """DSATUR: color next the uncolored vertex of highest saturation (distinct
    neighbor colors), then highest degree, then lowest id, with the lowest
    color none of its neighbors has.

    Kept in masks: `level[s]` holds the uncolored vertices of saturation s,
    `classes` one mask per degree, highest first, and `sees[c]` the vertices
    next to color c (only its uncolored ones are read).  The pick is the
    lowest id of the top level in the first class meeting it; coloring v
    with c moves its uncolored neighbors not yet in `sees[c]` up one level.
    Each step costs O(colors + levels + degree classes) big-int operations.
    """
    V = g.vertex_count
    adj = g.adj
    colors = [-1] * V
    by_degree: dict[int, int] = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    classes = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    uncolored = (1 << V) - 1
    level = [uncolored] + [0] * V  # saturation stays below V
    sees: list[int] = []
    top = 0  # the highest non-empty level
    for _ in range(V):
        pool = level[top]
        for cls in classes:
            tied = pool & cls
            if tied:
                break
        bit = tied & -tied
        v = bit.bit_length() - 1
        c = 0
        while c < len(sees) and sees[c] & bit:
            c += 1
        if c == len(sees):
            sees.append(0)
        colors[v] = c
        uncolored ^= bit
        level[top] ^= bit
        grow = adj[v] & uncolored & ~sees[c]
        sees[c] |= grow
        # from the top down, so that no vertex moves twice
        s = top
        while grow:
            moved = level[s] & grow
            if moved:
                level[s] ^= moved
                level[s + 1] |= moved
                grow ^= moved
            s -= 1
        if level[top + 1]:
            top += 1
        while top and not level[top]:
            top -= 1
    return tuple(colors)


def rlf_coloring(g: LabeledGraph) -> list[int]:
    """Recursive-largest-first greedy proper coloring (Leighton 1979).

    Colors one class at a time from the uncolored vertices U.  A class opens
    with the vertex of most neighbours in U; it then takes, while any is
    left, the candidate (in U, with no neighbour in the class) with the most
    neighbours among the vertices of U the class has excluded, then the
    fewest among the remaining candidates, then the lowest index.  Classes
    get colors 0, 1, ... in turn.  Iterative, on the bitmask adjacency.
    """
    adj = g.adj
    colors = [-1] * g.vertex_count
    left = (1 << g.vertex_count) - 1
    c = 0
    while left:
        v = max(iter_bits(left), key=lambda u: (adj[u] & left).bit_count())
        cls = 1 << v
        excluded = adj[v] & left
        cand = left & ~excluded & ~cls
        while cand:
            v = max(iter_bits(cand), key=lambda u: ((adj[u] & excluded).bit_count(),
                                                     -(adj[u] & cand).bit_count()))
            cls |= 1 << v
            excluded |= adj[v] & cand
            cand &= ~(excluded | cls)
        for u in iter_bits(cls):
            colors[u] = c
        left &= ~cls
        c += 1
    return colors


def find_proper_coloring(g: LabeledGraph, t: int) -> list[int] | None:
    """Exact decision: a proper t-coloring, or None after exhaustive refutation.

    A t-coloring is a homomorphism into K_t: the map search runs with the
    greedy clique precolored and, the target being complete, DSATUR vertex
    order and first-fresh-color symmetry breaking.
    """
    V = g.vertex_count
    if t < 0:
        raise ValueError("negative color count")
    if V == 0:
        return []
    if t == 0:
        return None
    if len(greedy_clique(g)) > t:
        return None
    k_t, domains, pre = _into_k_t(g, t)
    return _run_search(_map_steps(g.adj, k_t, domains, pre), "coloring")


def _into_k_t(g: LabeledGraph, t: int) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The map search into K_t, for t at least the greedy clique: the target
    rows, full domains, and the greedy clique precolored 0, 1, ..."""
    t = min(t, g.vertex_count)  # fresh-color symmetry breaking never reaches color V
    full_t = (1 << t) - 1
    k_t = [full_t & ~(1 << c) for c in range(t)]
    return k_t, [full_t] * g.vertex_count, [(v, c) for c, v in enumerate(greedy_clique(g))]


def _odd_closers(adj: tuple[int, ...], mask: int, new: int = -1) -> int | None:
    """The vertices adjacent to both sides of a component of the subgraph
    induced on `mask` that meets `new` (by default of every component), or
    None when such a component holds an odd cycle.

    Breadth-first search one layer mask at a time from a vertex of `new`: an
    edge inside a layer closes an odd cycle, and without one the layers
    alternate two sides.  A vertex outside `mask` next to both sides of one
    component closes an odd cycle through it, whatever else joins `mask`
    later.  The inner loop of the forcing search, so bits are walked inline.
    """
    new &= mask
    closers = 0
    while new:
        layer = seen = new & -new
        near = far = 0  # the neighbours of the two sides, alternating
        while layer:
            reach = 0
            m = layer
            while m:
                b = m & -m
                reach |= adj[b.bit_length() - 1]
                m ^= b
            if reach & layer:
                return None
            near, far = far, near | reach
            layer = reach & mask & ~seen
            seen |= layer
        closers |= near & far
        new &= ~seen
    return closers


def _is_bipartite(adj: tuple[int, ...], mask: int) -> bool:
    """Whether the subgraph induced on `mask` is 2-colorable, by `_odd_closers`."""
    return _odd_closers(adj, mask) is not None


def _fewest_non_neighbours(nonadj: list[int], mask: int) -> int:
    """The first vertex of `mask` with the fewest non-neighbours in `mask`,
    in one bit walk."""
    fewest = mask.bit_count()
    m = mask
    while m:
        b = m & -m
        u = b.bit_length() - 1
        c = (mask & nonadj[u]).bit_count()
        if c < fewest:
            fewest, v = c, u
        m ^= b
    return v


def _force(adj: tuple[int, ...], cls: int, left: int, undecided: int,
           new: int) -> tuple[int, int, int] | None:
    """Propagate a partial 3-coloring split: the independent class `cls`, the
    vertices `left` out of it for two colors, and the vertices `undecided`,
    none of them next to `cls`.  `new` masks the vertices of `left` whose
    components may have changed; every other component of `left` has no
    undecided vertex next to both of its sides.

    An undecided vertex next to both sides of one component of `left` cannot
    join it, so it is forced into `cls`, and its undecided neighbours leave
    for `left`; this repeats until nothing is forced.  Returns the split then
    reached, or None when `left` holds an odd cycle or two forced vertices
    are adjacent.  Each pass searches only the components that meet the
    vertices it moved into `left`.
    """
    while True:
        closers = _odd_closers(adj, left, new)
        if closers is None:
            return None
        forced = closers & undecided
        if not forced:
            return cls, left, undecided
        near = 0
        m = forced
        while m:
            b = m & -m
            near |= adj[b.bit_length() - 1]
            m ^= b
        if near & forced:
            return None
        cls |= forced
        new = near & undecided
        left |= new
        undecided &= ~(forced | new)


def _forcing_steps(adj: tuple[int, ...], nonadj: list[int], mask: int,
                   v: int) -> Generator[None, None, bool]:
    """Whether the residual `mask` is 3-colorable, paused once per node: a
    search for an independent class holding v that leaves a bipartite rest.

    The class starts as {v} and v's neighbours are left out.  Each node runs
    `_force`, which fails on an odd cycle among the left-out vertices or on
    forced vertices that are adjacent, and answers True once no vertex is
    undecided.  Otherwise it branches on the undecided vertex with the fewest
    undecided non-neighbours (lowest index on ties): into the class first,
    its undecided neighbours then left out, and else left out itself.  Any
    3-coloring can be renamed so that v's color is the class, and forcing
    only moves vertices that no completion puts elsewhere, so the search is
    exhaustive.  The nodes wait on one explicit stack.
    """
    left = adj[v] & mask
    stack = [(1 << v, left, mask & nonadj[v], left)]
    while stack:
        yield
        split = _force(adj, *stack.pop())
        if split is None:
            continue
        cls, left, undecided = split
        if not undecided:
            return True
        u = _fewest_non_neighbours(nonadj, undecided)
        pick = 1 << u
        out = adj[u] & undecided
        stack.append((cls, left | pick, undecided ^ pick, pick))
        stack.append((cls | pick, left | out, undecided & ~(out | pick), out))
    return False


def _dihedral_frame(g: LabeledGraph) -> tuple[LabeledGraph, Callable[[int], int] | None]:
    """g renumbered so that its certified dihedral symmetry acts by shifts, and
    the memo key of a vertex mask there: its least image under that symmetry.

    Without a generator from `dihedral_automorphisms`, g itself and None.
    Otherwise the vertices are renumbered along the cycles of the first
    generator (the rotation when it is certified): the m cycles of one length
    form a block of bits, position i of the j-th cycle at bit i*m + j of the
    block, with longer cycles in higher blocks.  The generator then rotates
    each block by m bits, so each of its powers costs one shift per block; the
    second generator, the reflection, is applied by tables built here, one
    lookup per hex digit of the mask, all in one `map`.  The key is the least
    image of the mask and of its reflection under those powers.  Every image
    is under a composition of certified automorphisms, so two masks with one
    key induce isomorphic subgraphs.  Blocks compare from the top, so the
    lower blocks are rotated only by the powers that tie on the top block,
    and with one block the least top image is the key.
    """
    gens = dihedral_automorphisms(g)
    if not gens:
        return g, None
    step, *rest = gens
    V = g.vertex_count
    by_length: dict[int, list[list[int]]] = {}
    seen = [False] * V
    for v in range(V):
        cycle = []
        while not seen[v]:
            seen[v] = True
            cycle.append(v)
            v = step[v]
        if cycle:
            by_length.setdefault(len(cycle), []).append(cycle)
    order = lcm(*by_length)
    pos = [0] * V
    blocks = []  # (block mask, doubling factor, right shift per power), lowest first
    offset = 0
    for length in sorted(by_length):
        cycles = by_length[length]
        m = len(cycles)
        for j, cycle in enumerate(cycles):
            for i, u in enumerate(cycle):
                pos[u] = offset + i * m + j
        width = length * m
        blocks.append((((1 << width) - 1) << offset, 1 + (1 << width),
                       [width - r * m % width for r in range(order)]))
        offset += width
    old = sorted(range(V), key=pos.__getitem__)
    h = LabeledGraph(tuple(g.labels[v] for v in old),
                     tuple(sum(1 << pos[u] for u in iter_bits(g.adj[v])) for v in old))
    # the reflection, one lookup per hex digit of the mask: entry b of the
    # i-th table is the image of the vertices 4i + j for the bits j of b, and
    # the tables run from the top digit down, as the digits are written
    tables = []
    if rest:
        reflected = [1 << pos[rest[0][v]] for v in old]
        for i in range(0, V, 4):
            table = [0]
            for image in reflected[i:i + 4]:
                table += [x | image for x in table]
            tables.append(table)
        tables.reverse()
    digits = len(tables)
    digit_values = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
    top, top_double, top_shifts = blocks.pop()

    def reflect(mask: int) -> int:
        # the images of distinct vertices are disjoint, so their sum is their union
        return sum(map(getitem, tables, (b"%0*x" % (digits, mask)).translate(digit_values)))

    def least_image(mask: int) -> int:
        best = mask
        for x in (mask, reflect(mask)) if tables else (mask,):
            doubled = (x & top) * top_double
            images = [(doubled >> s) & top for s in top_shifts]
            low = min(images)
            if not blocks:  # no lower block to break ties on the top one
                best = min(best, low)
                continue
            r = -1
            for _ in range(images.count(low)):
                r = images.index(low, r + 1)
                image = low
                for bm, dbl, shifts in blocks:
                    image |= ((x & bm) * dbl >> shifts[r]) & bm
                best = min(best, image)
        return best

    return h, least_image


def _class_steps(g: LabeledGraph, t: int) -> Generator[None, None, bool]:
    """Exact t-colorability via class branching with residual memoization,
    paused once per node: it yields as each node begins and returns whether
    g is t-colorable.

    Any coloring can be changed so that the class of a chosen residual vertex
    is a maximal independent set of the residual graph, so branching over
    those sets is exhaustive for every choice; the vertex with the fewest
    residual non-neighbors (lowest index on ties) has the fewest sets.  Two
    colors left are decided by `_is_bipartite`, one node.  With three left,
    `_forcing_steps` searches for a class holding that vertex that leaves a
    bipartite rest, and no classes are listed.  Much faster than
    vertex-at-a-time search when the maximal-set families stay small; can
    blow up when they do not.  A node is a residual past the memo, one
    Bron-Kerbosch expansion or one node of the forcing search.  A child
    residual that is empty, has no color left or is refuted already is
    decided where it is made, without a node.

    A residual refuted with c colors is memoized under its least image by
    `_dihedral_frame`: an automorphism maps G[m] onto G[s(m)], so one
    refutation refutes the residual's whole orbit.  With more than two colors
    left, lookups use that key; a graph without certified symmetry keys by
    the mask itself.
    """
    g, least_image = _dihedral_frame(g)
    V = g.vertex_count
    adj = g.adj
    nonadj = nonadjacency(g)
    refuted: dict[int, int] = {}

    def rec(mask: int, colors_left: int, key: int) -> Generator[Generator | None, bool | None, bool]:
        # a residual that is not empty, has a color left and is not refuted
        yield
        if colors_left == 2:
            return _is_bipartite(adj, mask)
        v = _fewest_non_neighbours(nonadj, mask)
        if colors_left == 3:
            if (yield from _forcing_steps(adj, nonadj, mask, v)):
                return True
        else:
            sols = []
            for cls in bron_kerbosch(nonadj, 1 << v, mask & nonadj[v]):
                yield
                if cls:
                    sols.append(cls)
            sols.sort(key=lambda m: -m.bit_count())
            below = colors_left - 1
            for cls in sols:
                rest = mask & ~cls
                if not rest:
                    return True
                # no child for a residual with no color left or refuted already
                sub = least_image(rest) if least_image and below > 2 else rest
                if refuted.get(sub, 0) < below and (yield rec(rest, below, sub)):
                    return True
        if colors_left > refuted.get(key, 0) and (
                key in refuted or len(refuted) < _REFUTED_MEMO_CAP):
            refuted[key] = colors_left
        return False

    if V == 0:
        return True
    if t == 0:
        return False
    full = (1 << V) - 1
    return (yield from graphs._tree_steps(rec(full, t, full)))


def is_t_colorable(g: LabeledGraph, t: int) -> bool:
    """Exact t-colorability: greedy shortcuts, then DSATUR and class
    branching taking turns under `graphs.NODE_BUDGET` nodes; t = 2 is
    decided by `_is_bipartite` alone.

    The DSATUR search (`graphs._map_steps` into K_t) runs alone for its first
    V nodes, one greedy descent.  Class branching (`_class_steps`, with the
    forcing search at three colors left) then starts, and one class-branching
    node and one DSATUR node alternate until DSATUR has spent
    V + `_PROBE_NODES`; class branching goes on alone after that.  The first
    search to answer wins, so the turns cost at most twice the winner's nodes
    plus the DSATUR cap.  Nodes each search needs, from a survey (DSATUR,
    class branching):

        I(11,2) at t = 5        5    56,480
        KG(8,3) at t = 4       81    12,303
        KG(9,2) at t = 6      279     1,051
        KG(10,2) - v at t = 7 983    10,139

    so neither search can go first alone, and the DSATUR cap cannot shrink.
    Either search is exhaustive, so the answer is exact; ResourceCap, naming
    the nodes each search spent, is raised once the two together spend more
    than the budget.
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
    if t == 2:
        return _is_bipartite(g.adj, (1 << V) - 1)
    if len(greedy_clique(g)) > t:
        return False
    if max(greedy_coloring(g)) + 1 <= t:
        return True
    budget = graphs.NODE_BUDGET
    searches = (_map_steps(g.adj, *_into_k_t(g, t)), _class_steps(g, t))
    spent = [0, 0]  # DSATUR, class branching
    # DSATUR alone for V nodes, then class branching and DSATUR one node each
    # in turn, then class branching alone
    turns = chain(repeat(0, V), chain.from_iterable(repeat((1, 0), _PROBE_NODES)), repeat(1))
    try:
        for i in turns:
            next(searches[i])
            spent[i] += 1
            if spent[0] + spent[1] > budget:
                raise ResourceCap(f"colorability search exceeded {budget} nodes "
                                  f"(DSATUR {spent[0]}, class branching {spent[1]})")
    except StopIteration as done:
        # DSATUR returns a coloring or None, class branching a bool
        return done.value if i else done.value is not None


def chromatic_number(g: LabeledGraph) -> int:
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
        if not is_t_colorable(g, t):
            return chi
        chi = t
    return chi
