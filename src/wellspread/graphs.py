"""Graph families over cyclic ground sets, plus vertex maps between them.

Vertices are dense 0-based ids.  Adjacency is kept as one Python-int bitmask
per vertex, which the exact solvers rely on.  Vertex labels carry identity:
k-subsets of Z_n for the set-valued families, plain residues for circular
complete graphs.

The Kneser and Schrijver families are built from one holder mask per
residue (the vertices whose label contains it): a vertex's neighbours are
everything outside the holders of its own residues, so a build costs O(V*k)
big-int ORs instead of O(V^2) set intersections.  The rotation graph Q(n,k)
and the circular complete graphs are circulants: every row is row 0 rotated
within V bits.  Row 0 of Q(n,k) takes one test per rotation offset of the
canonical set's member mask, so the build costs O(V) big-int operations.
Q(n,k)'s labels are a `cyclic.CanonicalRotations` sequence: label u, the
canonical set rotated by u, is made the first time it is read, and a full
iteration makes every missing label from one table of the residues of Z_n,
so those label entries share n int objects.  The dihedral maps of Q(n,k) are
computed from vertex ids: an affine residue map sends label u to the image
of the canonical set rotated by a multiple of u, and that image is located
among the rotations by arithmetic.  The interlacing graph I(n,k) takes the
Schrijver labels and finds each vertex's neighbours directly: they are the
ways of choosing one residue strictly inside each cyclic gap of its label, so
the build costs one index lookup per edge end instead of a test per pair.

`validate_map` settles a valid map by a quick pass of whole-row operations:
per source vertex, the images of its later neighbours are ORed into one mask
that must lie inside the target row of its own image.  A map whose images
step by +1 along a few runs of source ids (the retractions and embeddings of
the certificates have two to four) gives each row's mask as the row's piece
of each run shifted onto its images; any other map's are ORed by
`itertools.compress` over the row's bits, or bit by bit for a short row.  An
embedding or isomorphism needs one count more: an injective homomorphism
sends distinct edges to distinct edges of the image, so it keeps non-edges
exactly when the source has as many edges (less the exclusion) as the
target has on the image.  Only a map the quick pass rejects is walked pair
by pair, and that walk writes every message.  A map that must be valid
goes through `checked_map`, which raises AssertionError on a violation; a
witness that may fail reads `validate_map`'s list itself.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import chain, combinations, compress, product, repeat
from math import comb, gcd
from operator import add, ne, or_
from typing import Any, Callable, Generator, Iterable, Iterator, TypeVar

from .cyclic import CanonicalRotations, CyclicSubset
from .errors import InvalidParams, NotAnEdge, ResourceCap

DEFAULT_VERTEX_CAP = 10_000


def iter_bits(m: int) -> Iterator[int]:
    while m:
        b = m & -m
        yield b.bit_length() - 1
        m ^= b


def _row_edges(rows: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The edges (u, v), u < v, of adjacency rows, in order, each made as it
    is read."""
    for u, a in enumerate(rows):
        yield from zip(repeat(u), iter_bits(a >> (u + 1) << (u + 1)))


@dataclass(frozen=True)
class FamilyParams:
    tag: str  # kneser | sg | q | circular | interlacing
    n: int
    k: int


@dataclass(frozen=True)
class LabeledGraph:
    labels: Sequence  # a tuple, or Q(n,k)'s `CanonicalRotations`
    adj: tuple[int, ...]
    family: FamilyParams | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return list(_row_edges(self.adj))

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2


def _check_cap(count: int, vertex_cap: int, what: str) -> None:
    if count > vertex_cap:
        raise ResourceCap(f"{what} would have {count} vertices, cap is {vertex_cap}")


def _disjointness_graph(labels: tuple[CyclicSubset, ...], n: int,
                        family: FamilyParams) -> LabeledGraph:
    """Edges join labels with no common residue of Z_n."""
    holders = [0] * n
    for i, lab in enumerate(labels):
        bit = 1 << i
        for x in lab.elements:
            holders[x] |= bit
    full = (1 << len(labels)) - 1
    adj = []
    for lab in labels:
        held = 0
        for x in lab.elements:
            held |= holders[x]
        adj.append(full & ~held)
    return LabeledGraph(labels, tuple(adj), family)


def build_kneser(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> LabeledGraph:
    """All k-subsets of Z_n in lex order; edges join disjoint pairs."""
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"need 1 <= k <= n/2, got n={n} k={k}")
    _check_cap(comb(n, k), vertex_cap, f"kneser({n},{k})")
    labels = tuple(CyclicSubset(n, c) for c in combinations(range(n), k))
    return _disjointness_graph(labels, n, FamilyParams("kneser", n, k))


def _separated_labels(n: int, k: int, vertex_cap: int) -> tuple[CyclicSubset, ...]:
    """The 2-separated k-subsets of Z_n in lex order, capped on their count
    n*C(n-k-1, k-1)/k before any is made.  x_0 < ... < x_{k-1} is one
    exactly when y_i = x_i - i is a k-subset of range(n - k + 1) with
    y_{k-1} - y_0 <= n - k - 1 (a wrap gap of at least 2); x -> y keeps lex
    order."""
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"need 1 <= k <= n/2, got n={n} k={k}")
    _check_cap(n * comb(n - k - 1, k - 1) // k, vertex_cap,
               f"the 2-separated {k}-subsets of Z_{n}")
    return tuple(
        CyclicSubset.from_sorted(n, tuple(map(add, c, range(k))))
        for c in combinations(range(n - k + 1), k)
        if c[-1] - c[0] <= n - k - 1
    )


def build_schrijver(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> LabeledGraph:
    """The 2-separated k-subsets of Z_n in lex order; edges join disjoint pairs."""
    labels = _separated_labels(n, k, vertex_cap)
    return _disjointness_graph(labels, n, FamilyParams("sg", n, k))


def build_q(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> LabeledGraph:
    """Rotations of the canonical well-spread k-subset, in base-cycle order.

    Vertex u carries rotate(canonical, u); there are n/gcd(n,k) distinct
    rotations, and consecutive vertices differ by a +1 rotation.  The labels
    are a `CanonicalRotations` sequence, each made on its first read.
    Whether u and v are adjacent depends only on v - u mod n/gcd(n,k), so
    the graph is a circulant built from row 0.  The modulus n, which bounds
    the vertex count, must be within vertex_cap.
    """
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"need 1 <= k <= n/2, got n={n} k={k}")
    if n > vertex_cap:
        raise ResourceCap(f"q({n},{k}) is built on Z_{n}, cap is {vertex_cap}")
    n2 = n // gcd(n, k)
    labels = CanonicalRotations(n, k)
    canon = labels.canon
    # v is adjacent to 0 when the canonical set rotated by v misses it; the
    # rotations repeat with period n2, so every row is row 0 rotated by u
    full_n = (1 << n) - 1
    member = 0
    for x in canon.elements:
        member |= 1 << x
    row0 = 0
    for v in range(1, n2):
        if not member & ((member << v) | (member >> (n - v))) & full_n:
            row0 |= 1 << v
    full = (1 << n2) - 1
    adj = tuple(((row0 << u) | (row0 >> (n2 - u))) & full for u in range(n2))
    return LabeledGraph(labels, adj, FamilyParams("q", n, k))


def build_circular(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> LabeledGraph:
    """Circular complete graph: residues 0..n-1, edges where k <= |i-j| <= n-k."""
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"need 1 <= k <= n/2, got n={n} k={k}")
    _check_cap(n, vertex_cap, f"circular({n},{k})")
    full = (1 << n) - 1
    row0 = ((1 << (n - 2 * k + 1)) - 1) << k  # residues k..n-k
    adj = tuple(((row0 << i) | (row0 >> (n - i))) & full for i in range(n))
    return LabeledGraph(tuple(range(n)), adj, FamilyParams("circular", n, k))


def build_interlacing(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> LabeledGraph:
    """Same vertices as the 2-separated family; edges join interlacing pairs.

    y interlaces x exactly when y has one residue strictly inside each cyclic
    gap of x.  Any such choice is 2-separated (a member of x lies between
    two picks either way round), so x's neighbours are the product of its
    gaps, each looked up in the label index.
    """
    labels = _separated_labels(n, k, vertex_cap)
    index = {lab.elements: i for i, lab in enumerate(labels)}
    adj = []
    for lab in labels:
        xs = lab.elements
        inner = [range(xs[i] + 1, xs[i + 1]) for i in range(k - 1)]
        high = range(xs[-1] + 1, n)  # the wrapping gap, above the last member
        low = range(xs[0])  # and below the first
        row = 0
        for picks in product(*inner):
            for c in high:
                row |= 1 << index[picks + (c,)]
            for c in low:
                row |= 1 << index[(c,) + picks]
        adj.append(row)
    return LabeledGraph(labels, tuple(adj), FamilyParams("interlacing", n, k))


def is_cycle_edge(q: LabeledGraph, u: int, v: int) -> bool:
    """True when edge {u, v} joins labels that differ by a single rotation."""
    if not q.has_edge(u, v):
        raise NotAnEdge(f"{{{u},{v}}} is not an edge")
    lu, lv = q.labels[u], q.labels[v]
    return lu.rotate(1) == lv or lv.rotate(1) == lu


def delete_vertex(g: LabeledGraph, v: int) -> LabeledGraph:
    """Induced subgraph on the remaining vertices, ids compacted."""
    adj = tuple(_deleted_rows(g, v))
    return LabeledGraph(g.labels[:v] + g.labels[v + 1:], adj, None)


def delete_edge(g: LabeledGraph, u: int, v: int) -> LabeledGraph:
    """Same vertex set with one edge removed."""
    return LabeledGraph(g.labels, tuple(_deleted_rows(g, (u, v))), None)


def _deleted_rows(g: LabeledGraph, deleted: int | tuple[int, int] | None) -> Iterable[int]:
    """The rows of g less deleted (None, a vertex id or an edge pair), made
    as they are read, ids past a deleted vertex moved down one.  The call
    raises InvalidParams for an id out of range, NotAnEdge for a non-edge."""
    V = g.vertex_count
    if isinstance(deleted, int):
        if not 0 <= deleted < V:
            raise InvalidParams(f"vertex {deleted} out of range 0..{V - 1}")
        low = (1 << deleted) - 1
        return ((a & low) | ((a >> 1) & ~low) for u, a in enumerate(g.adj) if u != deleted)
    if deleted is not None:
        u, v = deleted
        if not (0 <= u < V and 0 <= v < V):
            raise InvalidParams(f"edge {{{u},{v}}} out of range 0..{V - 1}")
        if not g.has_edge(u, v):
            raise NotAnEdge(f"{{{u},{v}}} is not an edge")
    return _rows_less(g, deleted)


class MapKind(Enum):
    HOMOMORPHISM = "homomorphism"
    EMBEDDING = "embedding"
    ISOMORPHISM = "isomorphism"


@dataclass
class VertexMap:
    """A vertex mapping between two graphs with a claimed structural kind.

    The source may carry one exclusion, `excluded`: None, a deleted vertex
    id or a deleted edge pair, as a graph document carries one deletion.
    The mapping is then over the source minus that exclusion; `validate_map`
    rejects an excluded vertex or edge that the source lacks.  A map that
    fixes an embedded copy pointwise may carry a section: target id ->
    source id with mapping[section[t]] == t; present sections are checked.
    """

    source: LabeledGraph
    target: LabeledGraph
    mapping: dict[int, int]
    kind: MapKind
    excluded: int | tuple[int, int] | None = None
    section: dict[int, int] | None = None


# nodes one exact search may spend, read at each call; the independent-set
# search keeps its own, smaller `independence._NODE_BUDGET`
NODE_BUDGET = 100_000_000

_Result = TypeVar("_Result")


def _run_search(steps: Generator[None, None, _Result], what: str,
                budget: int | None = None) -> _Result:
    """Run `steps`, a search that yields once as each node begins, to its end
    and return its result.  ResourceCap, naming `what`, as node `budget` + 1
    begins (by default `NODE_BUDGET`, read at each call).  A recursive search
    reaches it through `_tree_steps`."""
    if budget is None:
        budget = NODE_BUDGET
    try:
        for _ in range(budget + 1):
            next(steps)
    except StopIteration as done:
        return done.value
    raise ResourceCap(f"{what} search exceeded {budget} nodes")


def _tree_steps(root: Generator[Any, Any, _Result]) -> Generator[None, None, _Result]:
    """Run a tree of node generators depth-first on one explicit stack, so
    its depth is not bounded by Python's recursion limit, and return the
    root's value.  A node yields None to spend one node, a pause passed on;
    or it yields a child node generator, which runs to its end and whose
    return value is sent back to the node."""
    stack, send, value = [root], root.send, None
    while True:
        try:
            child = send(value)
            while child is None:
                yield
                child = send(None)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            send, value = stack[-1].send, done.value
        else:
            stack.append(child)
            send, value = child.send, None


def _map_steps(adj, target_adj, domains: list[int], pre=(),
               injective: bool = False) -> Generator[None, None, list[int] | None]:
    """Depth-first search for a map from a source graph into a target graph,
    paused once per node: it yields as each node begins and returns the
    image of every source vertex, or None once the search space is exhausted.

    Every source vertex keeps a bitmask domain of the target vertices it may
    still map to (`domains`, updated in place).  Assigning u to a forward-checks
    the unassigned neighbours of u: each keeps only the target neighbours of a.
    Into a complete target that means dropping a alone, so the search also
    keeps, per image, a holder mask of the source vertices whose domains
    still hold it: only the unassigned neighbours among a's holders are
    visited, and a fails at once when one of them holds a alone.
    With `injective`, one mask holds the images already taken, and they are
    masked out of a vertex's candidates when it is selected; they stay in the
    other domains and in their sizes, so no assignment touches the
    non-neighbours.  The caller guarantees equal vertex and edge counts, so an
    injective homomorphism is an isomorphism: distinct edges map to distinct
    edges, as many as the target has.  `pre` lists forced (vertex, image)
    assignments, checked the same way but not counted as nodes.  A node is
    one vertex selection.  `_run_search` drives it under the node budget,
    and `coloring.is_t_colorable` steps it in turn with class branching.

    Two rules come from the target alone.  Into a complete target, which
    callers start from full domains, unused images are interchangeable: a
    vertex tries no image above one past the largest used, and the next vertex
    is the DSATUR choice (smallest domain, most assigned neighbours, highest
    degree).  Into any other target the next vertex has the smallest domain,
    then the highest degree.  Ties go to the lowest id, and the first vertex
    left with one candidate is taken at once.  The stack is explicit, so the
    depth is not bounded by Python's recursion limit.
    """
    V = len(adj)
    T = len(target_adj)
    complete = all(row == (1 << T) - 1 - (1 << a) for a, row in enumerate(target_adj))
    deg = [a.bit_count() for a in adj]
    regular = len(set(deg)) <= 1
    everyone = (1 << V) - 1
    # domain sizes are kept beside the domains; an assigned vertex's size is
    # parked at T + 1, above any live domain's, so the smallest size is always
    # an unassigned vertex's
    sizes = [d.bit_count() for d in domains]
    if complete:
        # holders[a]: the vertices whose domains hold image a
        holders = ([everyone] * T if all(d == (1 << T) - 1 for d in domains) else
                   [sum(1 << v for v, d in enumerate(domains) if d >> a & 1) for a in range(T)])
    image = [-1] * V
    assigned = 0
    max_used = -1
    used = 0  # the images of the assigned vertices, kept only when injective
    forced = list(reversed(pre))
    # a frame is [vertex, its domain size, untried candidates, trail of the
    # current candidate, max_used on entry, used on entry]; the trail lists the
    # (vertex, domain, size) that the candidate changed, or into a complete
    # target is the mask of the vertices it struck from.  Forced frames have
    # one candidate and are no node.  While a frame is on the stack its vertex
    # counts as assigned and its size is parked.
    stack: list[list] = []
    while True:
        if forced:
            v, a = forced.pop()
            cands = domains[v] & (1 << a)
        elif assigned == everyone:
            return image
        else:
            yield
            size = min(sizes)
            # the first vertex of least size wins unless a tie-break can differ
            if size > 1 and (complete or not regular):
                ties = [w for w, s in enumerate(sizes) if s == size]
                if complete:
                    v = max(ties, key=lambda w: ((adj[w] & assigned).bit_count(), deg[w]))
                else:
                    v = max(ties, key=deg.__getitem__)
            else:
                v = sizes.index(size)
            cands = domains[v] & ~used
            if complete:
                cands &= (1 << (max_used + 2)) - 1
        frame = [v, sizes[v], cands, None, max_used, used]
        stack.append(frame)
        sizes[v] = T + 1
        assigned |= 1 << v
        # give the top frame's vertex its next candidate that survives forward
        # checking, popping exhausted frames
        while True:
            u, _, cands, _, saved, used_on_entry = frame
            free_nb = adj[u] & everyone & ~assigned
            while cands:
                a = (cands & -cands).bit_length() - 1
                cands &= cands - 1
                # each branch leaves m nonzero when a empties a domain
                if complete:
                    bit = 1 << a
                    trail = m = free_nb & holders[a]
                    while m:
                        b = m & -m
                        w = b.bit_length() - 1
                        d = domains[w] ^ bit
                        if not d:
                            break  # a domain would empty
                        domains[w] = d
                        sizes[w] -= 1
                        m ^= b
                    if m:
                        m ^= trail  # the vertices struck before the failure
                        while m:
                            b = m & -m
                            w = b.bit_length() - 1
                            domains[w] |= bit
                            sizes[w] += 1
                            m ^= b
                        continue
                    holders[a] ^= trail
                else:
                    keep = target_adj[a]
                    trail = []
                    m = free_nb
                    while m:
                        w = (m & -m).bit_length() - 1
                        d = domains[w]
                        if d & ~keep:
                            trail.append((w, d, sizes[w]))
                            domains[w] = d = d & keep
                            sizes[w] = d.bit_count()
                            if not d:
                                break  # a domain emptied
                        m &= m - 1
                    if m:
                        for w, d, k in reversed(trail):
                            domains[w], sizes[w] = d, k
                        continue
                image[u] = a
                frame[2], frame[3] = cands, trail
                max_used = a if a > saved else saved
                if injective:
                    used = used_on_entry | 1 << a
                break
            else:
                stack.pop()
                assigned &= ~(1 << u)
                sizes[u] = frame[1]
                if not stack:
                    return None
                frame = stack[-1]
                trail = frame[3]
                if complete:
                    a = image[frame[0]]
                    holders[a] |= trail
                    bit = 1 << a
                    while trail:
                        b = trail & -trail
                        w = b.bit_length() - 1
                        domains[w] |= bit
                        sizes[w] += 1
                        trail ^= b
                else:
                    for w, d, k in reversed(trail):
                        domains[w], sizes[w] = d, k
                continue
            break


def _exclusion_violations(g: LabeledGraph, excluded: int | tuple[int, int] | None) -> list[str]:
    """What is wrong with a certificate's exclusion on g: a vertex id or an
    edge pair that g lacks."""
    V = g.vertex_count
    if isinstance(excluded, int):
        return [] if 0 <= excluded < V else [f"excluded vertex {excluded} out of range 0..{V - 1}"]
    if excluded is not None:
        a, b = excluded
        if not (0 <= a < V and 0 <= b < V and g.has_edge(a, b)):
            return [f"excluded edge {{{a},{b}}} is not an edge"]
    return []


def _rows_less(g: LabeledGraph, excluded: int | tuple[int, int] | None) -> Iterable[int]:
    """g's rows less an exclusion that `_exclusion_violations` accepts, each
    made as it is read: the excluded vertex's row empty and its bit cleared
    from every row, or the excluded edge's bit cleared from both its ends'
    rows; `g.adj` itself, uncopied, when nothing is excluded."""
    if isinstance(excluded, int):
        v, adj = excluded, g.adj
        keep = ~(1 << v)
        return chain(map(keep.__and__, adj[:v]), (0,), map(keep.__and__, adj[v + 1:]))
    if excluded is not None:
        a, b = excluded
        ends = {a: ~(1 << b), b: ~(1 << a)}
        return (row & ends[u] if u in ends else row for u, row in enumerate(g.adj))
    return g.adj


# bin(row)[:1:-1] lists a row's bits from bit 0 up as the characters 0 and 1;
# translated, its bytes are 0 and 1, which `compress` reads as selectors
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def validate_map(m: VertexMap) -> list[str]:
    """Check m against its claimed kind; return human-readable violations.

    A quick pass settles a valid map with whole-row operations: for each
    source vertex u it ORs the images of u's later neighbours (less the
    exclusion) into one mask, which must lie inside the target row of f(u)
    less f(u) itself.  When the images step by +1 along few runs of source
    ids, a run's part of that mask is the row's piece of the run shifted by
    the run's offset, so a row costs one mask and shift per run it meets
    rather than one OR per neighbour.  An embedding or isomorphism is then
    settled by one count: an injective homomorphism is induced exactly when
    the source's edges, less the exclusion, are as many as the target's
    edges on the image, because distinct source edges map to distinct image
    edges.
    Anything the quick pass rejects is walked again pair by pair, so every
    violation is reported by that walk.
    """
    if _map_passes(m):
        return []
    return _map_violations(m)


def checked_map(m: VertexMap, what: str) -> VertexMap:
    """m, once `validate_map` accepts it; else AssertionError with the first
    three violations after the prefix `what`.  A map the package builds
    that fails is an internal error, never a returned value."""
    bad = validate_map(m)
    if bad:
        raise AssertionError(f"{what}: {bad[:3]}")
    return m


def _map_passes(m: VertexMap) -> bool:
    """True when m is valid: the checks of `_map_violations`, a row at a time.

    A run is a maximal interval of source ids whose images step by +1.  A
    map with fewer than one run per 8 source vertices reads each row's
    images run by run: the row's lowest remaining bit names its run (by
    bisection over the run starts), and the row's piece of that run, shifted
    by the run's offset, is ORed in.  Any other map ORs one image bit per
    later neighbour.
    """
    src, tgt = m.source, m.target
    sv, tv = src.vertex_count, tgt.vertex_count
    if _exclusion_violations(src, m.excluded):
        return False
    ev = m.excluded if isinstance(m.excluded, int) else None
    img = list(map(m.mapping.get, range(sv)))
    images = img  # the images of the domain, the source less the excluded vertex
    if ev is not None:
        images = img[:ev] + img[ev + 1:]
        img[ev] = tv  # a placeholder: no row below selects the excluded vertex
    if None in images or images and not (min(images) >= 0 and max(images) < tv):
        return False
    if len(m.mapping) != len(images):  # each domain vertex is a key; any more lie outside it
        return False
    bit = [1 << t for t in range(tv)] + [0]
    fbits = list(map(bit.__getitem__, img))
    # a target row less its own vertex, so an edge onto one image fails
    allowed = [row & ~b for row, b in zip(tgt.adj, bit)]
    # on the run starting at s, f(v) = v + img[s] - s.  The excluded vertex
    # is in no row's later neighbours, so the run its placeholder joins is
    # read correctly
    starts = [0, *compress(range(1, sv), map(ne, img[1:], map(add, img, repeat(1))))]
    by_runs = 8 * len(starts) < sv
    if by_runs:
        masks = [(1 << e) - (1 << s) for s, e in zip(starts, starts[1:] + [sv])]
        shifts = [img[s] - s for s in starts]
    edges = 0
    for u, row in enumerate(_rows_less(src, m.excluded)):
        if u == ev:
            continue
        later = row >> (u + 1) << (u + 1)
        count = later.bit_count()
        edges += count
        # the images of u's later neighbours: on few runs, each run's piece
        # of the row shifted onto its images; else `compress`, which costs
        # about as much as walking six bits plus one per 16 bits of the row
        if by_runs:
            hit = 0
            while later:
                i = bisect_right(starts, (later & -later).bit_length() - 1) - 1
                piece = later & masks[i]
                later ^= piece
                d = shifts[i]
                hit |= piece << d if d >= 0 else piece >> -d
        elif 16 * count < later.bit_length() + 96:
            hit = 0
            while later:
                b = later & -later
                later ^= b
                hit |= fbits[b.bit_length() - 1]
        else:
            hit = reduce(or_, compress(fbits, bin(later)[:1:-1].encode().translate(_BIT_BYTES)))
        if hit & ~allowed[img[u]]:
            return False
    if m.kind is not MapKind.HOMOMORPHISM:
        if len(set(images)) != len(images):
            return False
        on_image = sum(fbits)  # distinct bits, so the sum is their OR
        rows = map(on_image.__and__, map(allowed.__getitem__, images))
        if 2 * edges != sum(map(int.bit_count, rows)):
            return False
        if m.kind is MapKind.ISOMORPHISM and len(images) != tv:
            return False
    if m.section is not None:
        if list(map(m.mapping.get, map(m.section.get, range(tv)))) != list(range(tv)):
            return False
    return True


def _map_violations(m: VertexMap) -> list[str]:
    """Every violation of m, source edge by source edge."""
    src, tgt = m.source, m.target
    sv = src.vertex_count
    out = _exclusion_violations(src, m.excluded)
    if out:
        return out
    domain = [u for u in range(sv) if u != m.excluded]
    for u in domain:
        if u not in m.mapping:
            out.append(f"vertex {u} unmapped")
        elif not (0 <= m.mapping[u] < tgt.vertex_count):
            out.append(f"image of {u} out of range: {m.mapping[u]}")
    for u in sorted(set(m.mapping).difference(domain)):
        out.append(f"vertex {u} mapped but not in the domain")
    if out:
        return out
    # src_later[u]: u's source neighbours v > u, less the exclusion
    rows = tuple(_rows_less(src, m.excluded))
    src_later = {u: rows[u] >> (u + 1) << (u + 1) for u in domain}
    mapping, tgt_adj = m.mapping, tgt.adj
    for u in domain:
        fu = mapping[u]
        row = tgt_adj[fu]
        later = src_later[u]
        while later:
            b = later & -later
            later ^= b
            v = b.bit_length() - 1
            fv = mapping[v]
            if fu == fv or not (row >> fv) & 1:
                out.append(f"edge {{{u},{v}}} maps to non-edge {{{fu},{fv}}}")
    if m.kind in (MapKind.EMBEDDING, MapKind.ISOMORPHISM):
        images = [m.mapping[u] for u in domain]
        if len(set(images)) != len(images):
            out.append("mapping not injective")
        else:
            preimage = {t: u for u, t in zip(domain, images)}
            for u in domain:
                # later domain vertices whose images are adjacent to u's image
                hits = 0
                for t in tgt.neighbors(m.mapping[u]):
                    v = preimage.get(t)
                    if v is not None and v > u:
                        hits |= 1 << v
                for v in iter_bits(hits & ~src_later[u]):
                    out.append(f"non-edge {{{u},{v}}} maps to edge")
    if m.kind is MapKind.ISOMORPHISM:
        if len(domain) != tgt.vertex_count:
            out.append(f"sizes differ: {len(domain)} vs {tgt.vertex_count}")
    if m.section is not None:
        for t in range(tgt.vertex_count):
            s = m.section.get(t)
            if s is None:
                out.append(f"target {t} has no section vertex")
            elif m.mapping.get(s) != t:
                out.append(f"section vertex {s} not fixed onto {t}")
    return out


def _residue_permutation(g: LabeledGraph,
                         residue_map: Callable[[int, int], int]) -> list[int] | None:
    """The vertex permutation induced on g's labels by the residue map
    x -> residue_map(x, n) of Z_n, or None when the labels are not mapped
    onto themselves.

    Labels are residues for the circular family and k-subsets of Z_n
    otherwise; any other labelling has no such permutation.  On the
    `CanonicalRotations` of Q(n,k) an affine map x -> s*x + c sends label u,
    the canonical set plus u, to (s*canon + c) + s*u, so the permutation is
    u -> t + s*u with t located by `CanonicalRotations.rotation_of`.  Any
    other map, and any other labels, are walked label by label, each image
    located by `rotation_of` or by an index of the labels, and the walk stops
    at the first image that is no label.
    """
    labels = g.labels
    if g.family is not None and g.family.tag == "circular":
        n = g.family.n
        return [residue_map(i, n) for i in range(n)]
    rotating = isinstance(labels, CanonicalRotations)
    if rotating:
        n = labels.canon.modulus
    elif labels and all(isinstance(lab, CyclicSubset) for lab in labels):
        n = labels[0].modulus
    else:
        return None
    image = [residue_map(x, n) for x in range(n)]
    if rotating:  # n >= 2, since 1 <= k < n
        s, c = image[1] - image[0], image[0]
        if image == [(s * x + c) % n for x in range(n)]:
            moved = tuple(sorted(map(image.__getitem__, labels.canon.elements)))
            t = labels.rotation_of(moved)
            V = len(labels)
            return None if t is None else [(t + s * u) % V for u in range(V)]
        find = labels.rotation_of
    else:
        find = {lab.elements: i for i, lab in enumerate(labels)}.get
    out = []
    for u in range(len(labels)):  # read by index, so a refusal makes few labels
        lab = labels[u]
        if lab.modulus != n:
            return None
        img = find(tuple(sorted(set(map(image.__getitem__, lab.elements)))))
        if img is None:
            return None
        out.append(img)
    return out


def _kept(g: LabeledGraph, key: str, compute: Callable[[LabeledGraph], object]):
    """compute(g), computed once per graph.  A LabeledGraph never changes, so
    the value is kept in the graph's own attribute dict (outside its fields,
    so equality and hashing ignore it) and is dropped with the graph."""
    memo = vars(g)
    if key not in memo:
        memo[key] = compute(g)
    return memo[key]


def label_rotation(g: LabeledGraph) -> list[int] | None:
    """Vertex permutation of the label rotation x -> x+1 mod n, or None.

    Computed once per graph; each call returns a fresh list.  Nothing here
    checks that it preserves adjacency; see `is_automorphism`.
    """
    perm = _kept(g, "_label_rotation",
                 lambda g: _residue_permutation(g, lambda x, n: (x + 1) % n))
    return None if perm is None else list(perm)


def is_automorphism(g: LabeledGraph, perm: list[int]) -> bool:
    """True when `validate_map` certifies perm as an isomorphism of g onto itself."""
    return not validate_map(VertexMap(g, g, dict(enumerate(perm)), MapKind.ISOMORPHISM))


def dihedral_automorphisms(g: LabeledGraph) -> list[list[int]]:
    """The label rotation and the reflection x -> -x mod n, keeping each only
    when it `is_automorphism` of g.

    Computed and certified once per graph; each call returns fresh lists.
    An empty list means no symmetry is known.
    """
    def certified(g: LabeledGraph) -> list[list[int]]:
        perms = (label_rotation(g), _residue_permutation(g, lambda x, n: -x % n))
        return [perm for perm in perms if perm is not None and is_automorphism(g, perm)]

    return [list(perm) for perm in _kept(g, "_dihedral", certified)]


def _solve_per_orbit(items, generators, act, solve) -> list:
    """The value of every item, calling solve only on the first item, in the
    given order, of each orbit of the group the generators span;
    `act(perm, item)` applies one generator."""
    value = {}
    for x in items:
        if x in value:
            continue
        value[x] = val = solve(x)
        todo = [x]
        while todo:
            y = todo.pop()
            for perm in generators:
                z = act(perm, y)
                if z not in value:
                    value[z] = val
                    todo.append(z)
    return [value[x] for x in items]
