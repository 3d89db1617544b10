"""Graph families over cyclic ground sets, plus vertex maps between them.

Vertices are dense 0-based ids.  Adjacency is kept as one Python-int bitmask
per vertex, which the exact solvers rely on.  Vertex labels carry identity:
k-subsets of Z_n for the set-valued families, plain residues for circular
complete graphs.

The disjointness families are built from one holder mask per residue (the
vertices whose label contains it): a vertex's neighbours are everything
outside the holders of its own residues, so a build costs O(V*k) big-int ORs
instead of O(V^2) set intersections.  Circular complete graphs are
circulant: every row is row 0 rotated within n bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb, gcd
from typing import Iterator

from .cyclic import CyclicSubset, canonical_well_spread, is_r_separated
from .errors import InvalidParams, NotAnEdge, ResourceCap

DEFAULT_VERTEX_CAP = 10_000


def iter_bits(m: int) -> Iterator[int]:
    while m:
        b = m & -m
        yield b.bit_length() - 1
        m ^= b


@dataclass(frozen=True)
class FamilyParams:
    tag: str  # kneser | sg | q | circular | interlacing
    n: int
    k: int


@dataclass(frozen=True)
class LabeledGraph:
    labels: tuple
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
        out = []
        for u, a in enumerate(self.adj):
            out.extend((u, v) for v in iter_bits(a >> (u + 1) << (u + 1)))
        return out

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2


def _graph_from_edges(labels: tuple, edge_pairs, family: FamilyParams | None) -> LabeledGraph:
    adj = [0] * len(labels)
    for u, v in edge_pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return LabeledGraph(labels, tuple(adj), family)


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


def build_schrijver(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> LabeledGraph:
    """The 2-separated k-subsets of Z_n in lex order; edges join disjoint pairs."""
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"need 1 <= k <= n/2, got n={n} k={k}")
    _check_cap(comb(n, k), vertex_cap, f"schrijver({n},{k}) candidate pool")
    labels = tuple(
        CyclicSubset(n, c)
        for c in combinations(range(n), k)
        if is_r_separated(CyclicSubset(n, c), 2)
    )
    return _disjointness_graph(labels, n, FamilyParams("sg", n, k))


def build_q(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> LabeledGraph:
    """Rotations of the canonical well-spread k-subset, in base-cycle order.

    Vertex u carries rotate(canonical, u); there are n/gcd(n,k) distinct
    rotations, and consecutive vertices differ by a +1 rotation.
    """
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"need 1 <= k <= n/2, got n={n} k={k}")
    ell = gcd(n, k)
    n2 = n // ell
    _check_cap(n2, vertex_cap, f"q({n},{k})")
    canon = canonical_well_spread(n, k)
    labels = tuple(canon.rotate(u) for u in range(n2))
    if len(set(labels)) != n2:
        raise AssertionError(f"rotations of {canon} not distinct over {n2} steps")
    if labels[-1].rotate(1) != labels[0]:
        raise AssertionError("base-cycle order broken: final rotation misses the start")
    return _disjointness_graph(labels, n, FamilyParams("q", n, k))


def build_circular(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> LabeledGraph:
    """Circular complete graph: residues 0..n-1, edges where k <= |i-j| <= n-k."""
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"need 1 <= k <= n/2, got n={n} k={k}")
    _check_cap(n, vertex_cap, f"circular({n},{k})")
    full = (1 << n) - 1
    row0 = ((1 << (n - 2 * k + 1)) - 1) << k  # residues k..n-k
    adj = tuple(((row0 << i) | (row0 >> (n - i))) & full for i in range(n))
    return LabeledGraph(tuple(range(n)), adj, FamilyParams("circular", n, k))


def is_interlacing_edge(x: CyclicSubset, y: CyclicSubset) -> bool:
    """True when x and y are disjoint, equal-sized, and alternate around Z_n."""
    if x.modulus != y.modulus:
        raise InvalidParams(f"moduli differ: {x.modulus} vs {y.modulus}")
    if len(x) != len(y) or len(x) == 0:
        return False
    xs, ys = set(x.elements), set(y.elements)
    if xs & ys:
        return False
    owners = []
    for r in range(x.modulus):
        if r in xs:
            owners.append(0)
        elif r in ys:
            owners.append(1)
    return all(owners[i] != owners[(i + 1) % len(owners)] for i in range(len(owners)))


def build_interlacing(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> LabeledGraph:
    """Same vertices as the 2-separated family; edges join interlacing pairs."""
    sg = build_schrijver(n, k, vertex_cap)
    labels = sg.labels
    edges = [
        (i, j)
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if is_interlacing_edge(labels[i], labels[j])
    ]
    return _graph_from_edges(labels, edges, FamilyParams("interlacing", n, k))


def is_cycle_edge(q: LabeledGraph, u: int, v: int) -> bool:
    """True when edge {u, v} joins labels that differ by a single rotation."""
    if not q.has_edge(u, v):
        raise NotAnEdge(f"{{{u},{v}}} is not an edge")
    lu, lv = q.labels[u], q.labels[v]
    return lu.rotate(1) == lv or lv.rotate(1) == lu


def delete_vertex(g: LabeledGraph, v: int) -> LabeledGraph:
    """Induced subgraph on the remaining vertices, ids compacted."""
    V = g.vertex_count
    if not (0 <= v < V):
        raise InvalidParams(f"vertex {v} out of range 0..{V - 1}")
    low = (1 << v) - 1
    adj = tuple((a & low) | ((a >> 1) & ~low) for u, a in enumerate(g.adj) if u != v)
    return LabeledGraph(g.labels[:v] + g.labels[v + 1:], adj, None)


def delete_edge(g: LabeledGraph, u: int, v: int) -> LabeledGraph:
    """Same vertex set with one edge removed."""
    if not g.has_edge(u, v):
        raise NotAnEdge(f"{{{u},{v}}} is not an edge")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return LabeledGraph(g.labels, tuple(adj), None)


class MapKind(Enum):
    HOMOMORPHISM = "homomorphism"
    EMBEDDING = "embedding"
    ISOMORPHISM = "isomorphism"


@dataclass
class VertexMap:
    """A vertex mapping between two graphs with a claimed structural kind.

    The source may carry one exclusion (a deleted vertex or edge), in which
    case the mapping is over the source minus that exclusion.  A map that
    fixes an embedded copy pointwise may carry a section: target id ->
    source id with mapping[section[t]] == t; present sections are checked.
    """

    source: LabeledGraph
    target: LabeledGraph
    mapping: dict[int, int]
    kind: MapKind
    excluded_vertex: int | None = None
    excluded_edge: tuple[int, int] | None = None
    section: dict[int, int] | None = None


def _map_search(adj, target_adj, domains: list[int], node_budget: int, what: str,
                pre=(), injective: bool = False) -> list[int] | None:
    """Depth-first search for a map from a source graph into a target graph.

    Every source vertex keeps a bitmask domain of the target vertices it may
    still map to (`domains`, updated in place).  Assigning u to a forward-checks
    the unassigned vertices: a neighbour of u keeps only the target neighbours
    of a; with `injective`, every other vertex also loses a, and a non-neighbour
    keeps only the target non-neighbours of a (an isomorphism, given equal
    vertex and edge counts).  `pre` lists forced (vertex, image) assignments,
    checked the same way but not counted as nodes.  A node is one vertex
    selection; ResourceCap is raised past `node_budget`.

    Two rules come from the target alone.  Into a complete target, which
    callers start from full domains, unused images are interchangeable: a
    vertex tries no image above one past the largest used, and the next vertex
    is the DSATUR choice (smallest domain, most assigned neighbours, highest
    degree).  Into any other target the next vertex has the smallest domain,
    then the highest degree.  Ties go to the lowest id, and the first vertex
    left with one candidate is taken at once.  The stack is explicit, so the
    depth is not bounded by Python's recursion limit.  Returns the image of
    every source vertex, or None once the search space is exhausted.
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
    image = [-1] * V
    assigned = 0
    max_used = -1
    nodes = 0
    forced = list(reversed(pre))
    # a frame is [vertex, its domain size, untried candidates, trail of the
    # current candidate, max_used on entry]; forced frames have one candidate
    # and are no node.  While a frame is on the stack its vertex counts as
    # assigned and its size is parked.
    stack: list[list] = []
    while True:
        if forced:
            v, a = forced.pop()
            cands = domains[v] & (1 << a)
        elif assigned == everyone:
            return image
        else:
            nodes += 1
            if nodes > node_budget:
                raise ResourceCap(f"{what} search exceeded {node_budget} nodes")
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
            cands = domains[v]
            if complete:
                cands &= (1 << (max_used + 2)) - 1
        frame = [v, sizes[v], cands, None, max_used]
        stack.append(frame)
        sizes[v] = T + 1
        assigned |= 1 << v
        # give the top frame's vertex its next candidate that survives forward
        # checking, popping exhausted frames
        while True:
            u, _, cands, _, saved = frame
            nb = adj[u]
            free = everyone & ~assigned
            while cands:
                a = (cands & -cands).bit_length() - 1
                cands &= cands - 1
                keep = target_adj[a]
                # neighbours keep the target neighbours of a; for an injective
                # map the rest lose a and the target neighbours of a
                if injective:
                    checks = ((nb & free, keep), (free & ~nb, ~(keep | 1 << a)))
                else:
                    checks = ((nb & free, keep),)
                trail = []
                for m, keep in checks:
                    while m:
                        w = (m & -m).bit_length() - 1
                        m &= m - 1
                        d = domains[w]
                        if d & ~keep:
                            trail.append((w, d, sizes[w]))
                            domains[w] = d = d & keep
                            sizes[w] = d.bit_count()
                            if not d:
                                break
                    else:
                        continue
                    break  # a domain emptied
                else:
                    image[u] = a
                    frame[2], frame[3] = cands, trail
                    max_used = a if a > saved else saved
                    break
                for w, d, k in reversed(trail):
                    domains[w], sizes[w] = d, k
            else:
                stack.pop()
                assigned &= ~(1 << u)
                sizes[u] = frame[1]
                if not stack:
                    return None
                frame = stack[-1]
                for w, d, k in reversed(frame[3]):
                    domains[w], sizes[w] = d, k
                continue
            break


def validate_map(m: VertexMap) -> list[str]:
    """Check m against its claimed kind; return human-readable violations."""
    out: list[str] = []
    src, tgt = m.source, m.target
    sv = src.vertex_count
    excluded_v = m.excluded_vertex
    excl_edge = None
    if m.excluded_edge is not None:
        a, b = m.excluded_edge
        excl_edge = (min(a, b), max(a, b))
    domain = [u for u in range(sv) if u != excluded_v]
    for u in domain:
        if u not in m.mapping:
            out.append(f"vertex {u} unmapped")
        elif not (0 <= m.mapping[u] < tgt.vertex_count):
            out.append(f"image of {u} out of range: {m.mapping[u]}")
    if out:
        return out
    # src_later[u]: u's source neighbours v > u, less the exclusions
    src_later = {}
    for u in domain:
        later = src.adj[u] >> (u + 1) << (u + 1)
        if excluded_v is not None:
            later &= ~(1 << excluded_v)
        if excl_edge is not None and excl_edge[0] == u:
            later &= ~(1 << excl_edge[1])
        src_later[u] = later
    for u in domain:
        fu = m.mapping[u]
        for v in iter_bits(src_later[u]):
            fv = m.mapping[v]
            if fu == fv or not tgt.has_edge(fu, fv):
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


def _residue_permutation(g: LabeledGraph, scale: int, shift: int) -> list[int] | None:
    """The vertex permutation induced on g's labels by x -> scale*x + shift
    mod n, or None when the labels are not mapped onto themselves.

    Labels are residues for the circular family and k-subsets of Z_n
    otherwise; any other labelling has no such permutation.
    """
    labels = g.labels
    if g.family is not None and g.family.tag == "circular":
        n = g.family.n
        return [(scale * i + shift) % n for i in range(n)]
    if not labels or not all(isinstance(lab, CyclicSubset) for lab in labels):
        return None
    n = labels[0].modulus
    index = {lab: i for i, lab in enumerate(labels)}
    out = []
    for lab in labels:
        if lab.modulus != n:
            return None
        img = index.get(CyclicSubset(n, ((scale * x + shift) % n for x in lab.elements)))
        if img is None:
            return None
        out.append(img)
    return out


def label_rotation(g: LabeledGraph) -> list[int] | None:
    """Vertex permutation of the label rotation x -> x+1 mod n, or None.

    Nothing here checks that it preserves adjacency; see
    `dihedral_automorphisms`.
    """
    return _residue_permutation(g, 1, 1)


def dihedral_automorphisms(g: LabeledGraph) -> list[list[int]]:
    """The label rotation and the reflection x -> -x mod n, keeping each only
    when `validate_map` certifies it as an isomorphism of g onto itself.

    Every permutation returned is a graph automorphism; an empty list means
    no symmetry is known.
    """
    out = []
    for perm in (label_rotation(g), _residue_permutation(g, -1, 0)):
        if perm is None:
            continue
        m = VertexMap(g, g, dict(enumerate(perm)), MapKind.ISOMORPHISM)
        if not validate_map(m):
            out.append(perm)
    return out
