"""Closed-form certificates on the rotation graph: colorings for single
deletions, window embeddings, folding homomorphisms, and explicit
isomorphisms.

Positions are vertex ids of the rotation graph, i.e. rotation offsets of the
canonical well-spread set (position 0 carries the canonical set itself).
Every public constructor validates its output before returning, a colouring
by `verify_fractional_coloring` and a map by `graphs.checked_map`; a
violation is an internal error, never a returned value.  The private cores
behind them return unchecked results, and a deletion sweep checks what it
reads of them itself (`criticality`).  Both retractions come from one core,
`_fold`: Q(n,k) less a vertex or a consecutive-rotation edge folds onto the
copy of Q(a,b) anchored next to the deletion.

The light-window machinery: with (a, b) the least solution of a*k = b*n - 1,
the n windows of a consecutive positions each contain b members of any
rotated star except for exactly one window with b-1.  All constructions below
conjugate that one deficient window onto the requested deletion.  The
critical copy on a window is Q(a,b), isomorphic to K_{a/b}: its ids are
computed from the positions by arithmetic, not read from labels, and
`validate_map` checks every map built from them.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .cyclic import (
    CriticalParams,
    CyclicSubset,
    critical_params,
    rotations,
)
from .errors import InvalidParams, NotAnEdge, NotCoprime, NotCycleEdge
from .fractional import FractionalColoring, verify_fractional_coloring
from .graphs import (
    LabeledGraph,
    MapKind,
    VertexMap,
    build_circular,
    build_q,
    checked_map,
)


def _require_coprime(n: int, k: int, strict: bool) -> None:
    lo_ok = 2 * k < n if strict else 2 * k <= n
    if not (1 <= k and lo_ok):
        bound = "k < n/2" if strict else "k <= n/2"
        raise InvalidParams(f"need 1 <= {bound}, got n={n} k={k}")
    if gcd(n, k) != 1:
        raise NotCoprime(f"need gcd(n,k)=1, got gcd({n},{k})={gcd(n, k)}")


def _star(canon: CyclicSubset) -> tuple[int, ...]:
    n = canon.modulus
    return tuple(sorted((-c) % n for c in canon))


def _light_window_start(n: int, length: int, heavy: int, members: frozenset[int]) -> int:
    """Start of the unique length-window holding heavy-1 members (others hold heavy)."""
    light = None
    c = sum(1 for d in range(length) if d % n in members)
    for s in range(n):
        if s:  # slide the window one step: drop s-1, take in s+length-1
            c += ((s + length - 1) % n in members) - (s - 1 in members)
        if c == heavy - 1:
            if light is not None:
                raise AssertionError(f"two deficient windows at {light} and {s}")
            light = s
        elif c != heavy:
            raise AssertionError(f"window count {c} outside {{{heavy - 1},{heavy}}}")
    if light is None:
        raise AssertionError("no deficient window found")
    return light


@dataclass(frozen=True)
class _Frame:
    """Coprime Q(n,k), its (a, b), and the parts of it that the deletion
    certificates read, each computed on first use.

    A constructor builds one frame per call; a deletion sweep builds one and
    hands it to the certificates of every orbit, so a colouring never builds
    Q(a,b) and a chi_c sweep builds it once.
    """

    q: LabeledGraph
    cp: CriticalParams

    @property
    def n(self) -> int:
        return self.q.vertex_count

    @cached_property
    def star(self) -> tuple[int, ...]:
        return _star(self.q.labels[0])

    @cached_property
    def light(self) -> int:
        """Start of the star's deficient a-window."""
        return _light_window_start(self.n, self.cp.a, self.cp.b, frozenset(self.star))

    @cached_property
    def qab(self) -> LabeledGraph:
        return build_q(self.cp.a, self.cp.b)

    @cached_property
    def to_circular(self) -> VertexMap:
        """The validated isomorphism Q(a,b) -> K_{a/b}."""
        return _circular_isomorphism(self.qab, build_circular(self.cp.a, self.cp.b))


def _frame(n: int, k: int) -> _Frame:
    return _Frame(build_q(n, k), critical_params(n, k))


def _without(s: tuple[int, ...], x: int) -> tuple[int, ...]:
    """The sorted tuple s less x, found by bisection."""
    i = bisect_left(s, x)
    return s[:i] + s[i + 1:] if i < len(s) and s[i] == x else s


def _checked_coloring(q: LabeledGraph, fc: FractionalColoring) -> FractionalColoring:
    bad = verify_fractional_coloring(q, fc)
    if bad:
        raise AssertionError(f"constructed coloring invalid: {bad[:3]}")
    return fc


def vertex_deleted_coloring(n: int, k: int, deleted: int) -> FractionalColoring:
    """Weight-1/b star rotations covering every position except `deleted`.

    The star misses one position per window cycle; a single conjugating
    rotation parks that deficiency exactly on the deleted vertex.
    """
    _require_coprime(n, k, strict=False)
    if not (0 <= deleted < n):
        raise InvalidParams(f"vertex {deleted} out of range 0..{n - 1}")
    f = _frame(n, k)
    return _checked_coloring(f.q, _vertex_deleted_coloring(f, deleted))


def _vertex_deleted_coloring(f: _Frame, deleted: int) -> FractionalColoring:
    n, cp = f.n, f.cp
    delta = (deleted - f.light) % n
    # The rotations hit `deleted` exactly b-1 times; strip it so each set
    # lives in the deleted graph.  Every other vertex keeps coverage b.
    sets = tuple(
        _without(r, deleted) for r in rotations(f.star, n, (delta - j for j in range(cp.a)))
    )
    return FractionalColoring(sets, (Fraction(1, cp.b),) * cp.a, excluded_vertex=deleted)


def _check_edge_endpoints(n: int, edge: tuple[int, int]) -> None:
    u, v = edge
    if not (0 <= u < n and 0 <= v < n) or u == v:
        raise InvalidParams(f"bad edge endpoints {{{u},{v}}} for {n} positions")


def _cycle_edge_base(q: LabeledGraph, edge: tuple[int, int]) -> int:
    """p such that edge == {p, p+1 mod n}; rejects non-edges and chords.

    q is the coprime rotation graph and the endpoints are already in range;
    u, v are adjacent exactly when rotations (v - u) apart are disjoint.
    """
    n = q.vertex_count
    u, v = edge
    t = (v - u) % n
    if not q.has_edge(u, v):
        raise NotAnEdge(f"offset {t} rotations share a residue: {{{u},{v}}} is no edge")
    if t == 1:
        return u
    if t == n - 1:
        return v
    raise NotCycleEdge(f"{{{u},{v}}} joins rotations {t} apart, not consecutive ones")


def edge_deleted_coloring(n: int, k: int, edge: tuple[int, int]) -> FractionalColoring:
    """Star rotations plus one extra position, covering all of the graph minus
    one consecutive-rotation edge with total weight a/b."""
    _require_coprime(n, k, strict=False)
    _check_edge_endpoints(n, edge)
    f = _frame(n, k)
    return _checked_coloring(f.q, _edge_deleted_coloring(f, _cycle_edge_base(f.q, edge)))


def _edge_deleted_coloring(f: _Frame, p: int) -> FractionalColoring:
    """The colouring of Q(n,k) less the edge {p, p+1}."""
    n, cp, star, s0 = f.n, f.cp, f.star, f.light
    members = frozenset(star)
    # the deficient window start is the unique position entering the star a
    # steps later; its predecessor is a star position
    if (s0 + cp.a) % n not in members or s0 in members or (s0 - 1) % n not in members:
        raise AssertionError(f"deficient window at {s0} lacks the boundary structure")
    delta = (p - (s0 - 1)) % n
    # s0 is no star position, so s0 + delta joins the first set as a new member
    rots = rotations(star, n, (delta - j for j in range(cp.a)))
    first = next(rots)
    extra = (s0 + delta) % n
    cut = bisect_left(first, extra)
    sets = (first[:cut] + (extra,) + first[cut:], *rots)
    return FractionalColoring(sets, (Fraction(1, cp.b),) * cp.a, excluded_edge=(p, (p + 1) % n))


def _anchored_copy(f: _Frame, anchor: int) -> list[tuple[int, int]]:
    """The (position, Q(a,b) id) pairs of the critical copy anchored at anchor.

    Position (anchor - i) mod n goes to vertex a - 1 - i of Q(a,b), for
    i < a: the a consecutive positions ending at the anchor, read through
    the anchor's deficient window, carry Q(a,b)'s labels in base-cycle
    order.  The ids come from this arithmetic, not from the labels; every
    retraction, section and embedding built from them is checked by
    `validate_map`.
    """
    n, a = f.n, f.cp.a
    return [((anchor - i) % n, a - 1 - i) for i in range(a)]


# the prefix of the AssertionError a constructed map that fails validation raises
_INVALID = "constructed map invalid"


def find_subgraph_qab(n: int, k: int) -> VertexMap:
    """Embed the critical rotation graph induced on a window of consecutive
    positions starting at position 0."""
    _require_coprime(n, k, strict=True)
    f = _frame(n, k)
    mapping = {t: xi for xi, t in _anchored_copy(f, 0)}
    return checked_map(VertexMap(f.qab, f.q, mapping, MapKind.EMBEDDING), _INVALID)


def vertex_deleted_retraction(n: int, k: int, deleted: int) -> VertexMap:
    """Fold the graph minus one vertex onto the embedded critical copy
    anchored just below the deletion; positions map by index mod a."""
    _require_coprime(n, k, strict=True)
    if not (0 <= deleted < n):
        raise InvalidParams(f"vertex {deleted} out of range 0..{n - 1}")
    return checked_map(_fold(_frame(n, k), (deleted - 1) % n, excluded_vertex=deleted), _INVALID)


def edge_deleted_retraction(n: int, k: int, edge: tuple[int, int]) -> VertexMap:
    """Fold the graph minus one consecutive-rotation edge onto the embedded
    critical copy anchored at the edge's lower endpoint."""
    _require_coprime(n, k, strict=True)
    _check_edge_endpoints(n, edge)
    f = _frame(n, k)
    p = _cycle_edge_base(f.q, edge)
    return checked_map(_fold(f, p, excluded_edge=(p, (p + 1) % n)), _INVALID)


def _fold(f: _Frame, anchor: int, excluded_vertex: int | None = None,
          excluded_edge: tuple[int, int] | None = None) -> VertexMap:
    """The retraction of Q(n,k) less one exclusion onto the copy of Q(a,b)
    anchored at anchor, with that copy as its section.

    Positions anchor, anchor - 1, ... map by index mod a onto the copy: the
    n - 1 positions left by an excluded vertex (anchor + 1), or all n when
    the excluded edge is {anchor, anchor + 1}.
    """
    n, a = f.n, f.cp.a
    pairs = _anchored_copy(f, anchor)
    targets = [t for _, t in pairs]
    covered = n - 1 if excluded_vertex is not None else n
    mapping = {(anchor - i) % n: targets[i % a] for i in range(covered)}
    return VertexMap(f.q, f.qab, mapping, MapKind.HOMOMORPHISM, excluded_vertex,
                     excluded_edge, section={t: xi for xi, t in pairs})


def scaling_isomorphism(n: int, k: int, ell: int) -> VertexMap:
    """Rotation graphs on (n, k) and (ell*n, ell*k) are isomorphic: send each
    set to the union of its residue classes mod n inside Z_{ell*n}."""
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"need 1 <= k <= n/2, got n={n} k={k}")
    if ell < 2:
        raise InvalidParams(f"scale factor must be >= 2, got {ell}")
    src = build_q(n, k)
    tgt = build_q(ell * n, ell * k)
    index = {lab: i for i, lab in enumerate(tgt.labels)}
    mapping = {}
    for u, lab in enumerate(src.labels):
        big = CyclicSubset(ell * n, (x + j * n for x in lab for j in range(ell)))
        t = index.get(big)
        if t is None:
            raise AssertionError(f"blow-up of vertex {u} is not a target rotation")
        mapping[u] = t
    return checked_map(VertexMap(src, tgt, mapping, MapKind.ISOMORPHISM), _INVALID)


def circular_isomorphism(n: int, k: int) -> VertexMap:
    """Position u of the rotation graph onto residue u*k of the circular
    complete graph; a bijection exactly because gcd(n, k) = 1."""
    _require_coprime(n, k, strict=False)
    return _circular_isomorphism(build_q(n, k), build_circular(n, k))


def _circular_isomorphism(src: LabeledGraph, tgt: LabeledGraph) -> VertexMap:
    """`circular_isomorphism` from src = Q(n,k) onto tgt = circular(n,k),
    both already built."""
    n, k = src.family.n, src.family.k
    mapping = {u: (u * k) % n for u in range(n)}
    return checked_map(VertexMap(src, tgt, mapping, MapKind.ISOMORPHISM), _INVALID)
