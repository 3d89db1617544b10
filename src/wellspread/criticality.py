"""Deletion sweeps: how chromatic invariants respond to removing one vertex
or one edge, and where the rotation and 2-separated families coincide.

Every reported value is exact.  chi is decided on the deleted graph; chi_f
and chi_c come from a witness pair checked on the intact graph with the
deletion as its exclusion, or else from an exact solver run on the deleted
graph, which is built only then.  A sweep first takes the graph's certified
dihedral symmetries (`graphs.dihedral_automorphisms`: the label rotation and
reflection, each kept only once `validate_map` accepts it as an automorphism)
and closes the vertices or edges into orbits under them.  An automorphism s gives G-v
isomorphic to G-s(v) and G-e to G-s(e), so chi, chi_f and chi_c are constant
on an orbit: the deleted graph of the orbit's first member is settled and its
value is reported for every member.  A graph with no certified symmetry gets
one deleted graph settled per deletion.

chi of a vertex deletion rests on the bracket chi(G) - 1 <= chi(G - v) <=
chi(G).  The baseline c = chi(G) comes from the exact solver, and each orbit
asks one question of D = G - v: is it (c-1)-colorable?  A
recursive-largest-first colouring of D (`coloring.rlf_coloring`) answers yes
when `validate_map` accepts it on D as a homomorphism into K_{c-1}; otherwise
`is_t_colorable(D, c - 1)` decides.  The row is c - 1 on yes and c on no.
One side of each row is checked on D and the other comes from the exact
baseline: on yes, chi(D) <= c - 1 is checked on D and chi(D) >= c - 1
follows from chi(G) = c; on no, chi(D) >= c is the exact refutation on D
and chi(D) <= c follows from G's c-colouring.  Below three colours
`is_t_colorable` decides by a linear check, so no witness is tried.

On the rotation graph Q(n,k) with gcd(n,k) = 1 and 2k < n, chi_f and chi_c of
D = Q(n,k) less a vertex or a consecutive-rotation edge are first tried
through the paper's witness pair (`certificates`), stated on Q(n,k) with the
deletion as its exclusion and checked there once: a fractional colouring,
and weight 1/b on the a positions S of the embedded copy of Q(a,b).
`fractional.witnessed_value` verifies the colouring, checks that S avoids
the excluded vertex, and proves alpha(D[S]) <= b on D's own rows; weak
duality then pins chi_f(D) = a/b.  For chi_c the retraction onto the copy,
composed with Q(a,b) ~ K_{a/b}, must also pass `validate_map` under the
same exclusion.
Any other edge keeps chi_f(D) = chi_c(D) = n/k once branch-and-bound proves
alpha(D) <= k, as the exact baseline n/k bounds D from above: deleting an
edge raises neither invariant.

The circular complete graph K_{n/k} with the same parameters gets the same
witnesses: `certificates.circular_isomorphism` (validated) sends position u
of Q(n,k) to residue u*k mod n, so a deletion moves to Q positions through
it and its pair is checked on Q(n,k).  This settles the paper's corollary
that deleting an edge at circular distance k lowers chi_c to a/b and any
other edge leaves n/k.  If any check fails, the deleted graph is built and
the solver decides.  Formula predictions live in the verification harness,
which compares them against the closed forms and solves every deleted graph
itself, so it checks the witnesses and the orbit reduction too.

A sweep builds each graph its witnesses read once, not once per orbit: Q(n,k)
(the swept graph itself when it is Q(n,k)) sits in one certificates frame,
which builds Q(a,b) and K_{a/b} on first use, and only chi_c uses them.  Each
orbit builds its own pair from the frame and checks it.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Sequence

from .certificates import (
    _anchored_copy,
    _circular_isomorphism,
    _edge_deleted_coloring,
    _fold,
    _Frame,
    _vertex_deleted_coloring,
)
from .coloring import chromatic_number, is_t_colorable, rlf_coloring
from .cyclic import critical_params
from .errors import InvalidParams
from .fractional import fractional_chromatic_number, witnessed_value
from .graphs import (
    FamilyParams,
    LabeledGraph,
    MapKind,
    VertexMap,
    _rows_less,
    _solve_per_orbit,
    build_circular,
    build_q,
    build_schrijver,
    delete_edge,
    delete_vertex,
    dihedral_automorphisms,
    label_rotation,
    validate_map,
)
from .homomorphism import circular_chromatic_number
from .independence import alpha_at_most


class Invariant(enum.Enum):
    CHI = "chi"
    CHI_F = "chi_f"
    CHI_C = "chi_c"


class SweepSummary(enum.Enum):
    VERTEX_CRITICAL = "vertex_critical"
    EDGE_CLASSIFICATION = "edge_classification"
    NOT_CRITICAL = "not_critical"
    MIXED = "mixed"


@dataclass(frozen=True)
class CriticalityReport:
    """One sweep: the invariant on the intact graph and after each deletion."""

    family: Optional[FamilyParams]
    invariant: Invariant
    baseline: Fraction
    per_vertex: tuple[tuple[int, Fraction], ...]
    per_edge: tuple[tuple[tuple[int, int], Fraction, Optional[bool]], ...]
    metadata: dict = field(default_factory=dict)

    @property
    def summary(self) -> SweepSummary:
        """NOT_CRITICAL when no deletion lowered the value; else
        VERTEX_CRITICAL when every vertex deletion did, EDGE_CLASSIFICATION
        when exactly the flagged edge deletions did, and MIXED otherwise."""
        drops = ([x < self.baseline for _, x in self.per_vertex]
                 or [x < self.baseline for _, x, _ in self.per_edge])
        if not any(drops):
            return SweepSummary.NOT_CRITICAL
        if self.per_vertex:
            return SweepSummary.VERTEX_CRITICAL if all(drops) else SweepSummary.MIXED
        if drops == [flag for _, _, flag in self.per_edge]:
            return SweepSummary.EDGE_CLASSIFICATION
        return SweepSummary.MIXED


def evaluate_invariant(g: LabeledGraph, invariant: Invariant) -> Fraction:
    if invariant is Invariant.CHI:
        return Fraction(chromatic_number(g))
    if invariant is Invariant.CHI_F:
        return fractional_chromatic_number(g)[0]
    return circular_chromatic_number(g)


def _edge_image(perm: list[int], e: tuple[int, int]) -> tuple[int, int]:
    u, v = perm[e[0]], perm[e[1]]
    return (u, v) if u < v else (v, u)


def _q_frame(g: LabeledGraph) -> tuple[Sequence[int], _Frame] | None:
    """The Q(n,k) position of each vertex id of g, and the certificates'
    frame of Q(n,k), when the paper's witness pairs apply to g; else None.

    They apply to the coprime rotation graph with 2k < n, on its own ids, and
    to circular(n, k) with the same parameters, through the isomorphism
    Q(n,k) -> g of `circular_isomorphism` (position u to residue u*k mod n),
    validated against g itself.  A sweep calls this once: the frame holds g
    itself or the one Q(n,k) built here, and builds Q(a,b) and K_{a/b} at
    most once.
    """
    fam = g.family
    if fam is None or fam.tag not in ("q", "circular"):
        return None
    n, k = fam.n, fam.k
    if gcd(n, k) != 1 or not 2 * k < n or g.vertex_count != n:
        return None
    if fam.tag == "q":
        return range(n), _Frame(g, critical_params(n, k))
    q = build_q(n, k, vertex_cap=n)
    where = [0] * n
    for u, x in _circular_isomorphism(q, g).mapping.items():
        where[x] = u
    return where, _Frame(q, critical_params(n, k))


def _retraction_witness(g: LabeledGraph, invariant: Invariant,
                        deletion: int | tuple[int, int], baseline: Fraction,
                        frame: tuple[Sequence[int], _Frame] | None) -> Fraction | None:
    """chi_f or chi_c of D, the graph g less one vertex or edge, when the
    paper's witness pair pins it; None otherwise.

    frame is `_q_frame(g)`, and baseline the invariant of g.  The deletion
    moves to Q positions, and the pair is checked on Q(n,k) with the
    deletion as its exclusion:
    - vertex p: the star colouring avoiding p, and the copy of Q(a,b)
      anchored at p-1, with weight 1/b;
    - consecutive-rotation edge {p, p+1}: the star colouring less that edge
      and the copy anchored at p;
    - any other edge: n/k when the baseline is n/k and alpha(D) <= k.
    chi_c also needs a validated homomorphism of D: the retraction onto the
    copy composed with Q(a,b) ~ K_{a/b}.
    """
    if frame is None:
        return None
    where, f = frame
    n = f.n
    if isinstance(deletion, int):
        p = where[deletion]
        anchor, excluded = (p - 1) % n, (p, None)
        fc = _vertex_deleted_coloring(f, p)
    else:
        u, v = map(where.__getitem__, deletion)
        if (v - u) % n not in (1, n - 1):
            k = f.q.family.k
            adj = tuple(_rows_less(g, None, deletion))
            pinned = baseline == Fraction(n, k) and alpha_at_most(adj, (1 << n) - 1, k)
            return baseline if pinned else None
        p = u if (v - u) % n == 1 else v
        anchor, excluded = p, (None, (p, (p + 1) % n))
        fc = _edge_deleted_coloring(f, p)
    if (fc.excluded_vertex, fc.excluded_edge) != excluded:
        return None
    support = (x for x, _ in _anchored_copy(f, anchor))
    value = witnessed_value(f.q, fc, support, f.cp.b)
    if value is None or invariant is Invariant.CHI_F:
        return value
    to_circular = f.to_circular
    mapping = {u: to_circular.mapping[t] for u, t in _fold(f, anchor, *excluded).mapping.items()}
    hom = VertexMap(f.q, to_circular.target, mapping, MapKind.HOMOMORPHISM, *excluded)
    return None if validate_map(hom) else value


def _colorable(d: LabeledGraph, t: int, k_t: LabeledGraph | None) -> bool:
    """Whether d is t-colorable.  Yes when `rlf_coloring(d)` passes
    `validate_map` as a homomorphism into k_t = K_t: then it uses at most t
    colors and no edge of d joins two vertices of one color.  Otherwise, and
    always when k_t is None, `is_t_colorable` decides."""
    if k_t is not None:
        rlf = VertexMap(d, k_t, dict(enumerate(rlf_coloring(d))), MapKind.HOMOMORPHISM)
        if not validate_map(rlf):
            return True
    return is_t_colorable(d, t)


def _settle(g: LabeledGraph, invariant: Invariant, deletion, baseline: Fraction,
            frame: tuple[Sequence[int], _Frame] | None) -> Fraction:
    """chi_f or chi_c of g less the deletion: the witness pair first, then
    the solver on the deleted graph, built only then."""
    value = _retraction_witness(g, invariant, deletion, baseline, frame)
    if value is not None:
        return value
    d = delete_vertex(g, deletion) if isinstance(deletion, int) else delete_edge(g, *deletion)
    return evaluate_invariant(d, invariant)


def vertex_criticality(g: LabeledGraph, invariant: Invariant) -> CriticalityReport:
    """The invariant after each single vertex deletion, settled once per
    certified vertex orbit; for chi, by one colorability question per orbit.
    """
    baseline = evaluate_invariant(g, invariant)
    if invariant is Invariant.CHI:
        # chi(g) - 1 <= chi(g - v) <= chi(g): one question per orbit, no
        # witness below three colors (see the module docstring)
        t = int(baseline) - 1
        k_t = build_circular(t, 1) if t > 2 else None

        def settle(v: int) -> Fraction:
            return Fraction(t if _colorable(delete_vertex(g, v), t, k_t) else t + 1)
    else:
        frame = _q_frame(g)

        def settle(v: int) -> Fraction:
            return _settle(g, invariant, v, baseline, frame)
    vertices = range(g.vertex_count)
    values = _solve_per_orbit(vertices, dihedral_automorphisms(g), list.__getitem__, settle)
    rows = []
    for v, val in zip(vertices, values):
        if val > baseline:
            raise AssertionError(f"deleting {v} raised {invariant.value} to {val}")
        rows.append((v, val))
    return CriticalityReport(g.family, invariant, baseline, tuple(rows), ())


def _edge_sweep(g: LabeledGraph, invariant: Invariant, baseline: Fraction,
                flag: Callable[[tuple[int, int]], bool], metadata: dict) -> CriticalityReport:
    """`invariant` of g after each single edge deletion, settled once per
    certified edge orbit, each row tagged with flag(edge).  No deletion may
    raise the value above `baseline`."""
    edges = g.edges()
    frame = _q_frame(g)
    values = _solve_per_orbit(
        edges, dihedral_automorphisms(g), _edge_image,
        lambda e: _settle(g, invariant, e, baseline, frame))
    rows = []
    for e, val in zip(edges, values):
        if val > baseline:
            raise AssertionError(f"deleting edge {e} raised {invariant.value} to {val}")
        rows.append((e, val, flag(e)))
    return CriticalityReport(g.family, invariant, baseline, (), tuple(rows), metadata)


def edge_criticality(q: LabeledGraph) -> CriticalityReport:
    """Fractional chromatic number of the rotation graph after each single
    edge deletion, settled once per certified edge orbit, tagged with the
    consecutive-rotation flag.

    Non-coprime parameters are reduced first; the sweep then runs on the
    reduced graph with the original parameters preserved in metadata.
    """
    if q.family is None or q.family.tag != "q":
        raise InvalidParams("edge sweep is defined for the rotation family")
    n, k = q.family.n, q.family.k
    metadata = {}
    g = gcd(n, k)
    if g != 1:
        metadata["original_params"] = (n, k)
        n, k = n // g, k // g
        q = build_q(n, k)
    baseline = fractional_chromatic_number(q)[0]
    rot = label_rotation(q)  # labels of consecutive rotations differ by one step
    return _edge_sweep(q, Invariant.CHI_F, baseline,
                       lambda e: rot[e[0]] == e[1] or rot[e[1]] == e[0], metadata)


def circular_edge_corollary(g: LabeledGraph) -> CriticalityReport:
    """Circular chromatic number of g = circular(n,k), gcd(n,k) = 1 and
    2k <= n, after each single edge deletion, settled once per certified
    edge orbit: by the paper's witness pairs, moved across circular(n,k) ~
    Q(n,k), or else by the solver.

    The flag on each edge {i,j} marks circular distance exactly k, i.e. the
    image of a consecutive-rotation edge under the position-times-k bijection.
    """
    fam = g.family
    if fam is None or fam.tag != "circular" or not 1 <= fam.k <= fam.n // 2:
        raise InvalidParams("the circular edge sweep needs circular(n,k) with 1 <= k <= n/2")
    n, k = fam.n, fam.k
    if gcd(n, k) != 1:
        raise InvalidParams(f"need gcd(n,k)=1, got gcd({n},{k})={gcd(n, k)}")
    baseline = circular_chromatic_number(g)
    return _edge_sweep(g, Invariant.CHI_C, baseline,
                       lambda e: min((e[1] - e[0]) % n, (e[0] - e[1]) % n) == k,
                       {"critical_value": critical_params(n, k).as_fraction()})


@dataclass(frozen=True)
class BoundaryEntry:
    n: int
    k: int
    equal: bool

    @property
    def predicted(self) -> bool:
        """The paper's rule: Q(n,k) = SG(n,k) exactly when k = 1, n = 2k or n = 2k + 1."""
        return self.k == 1 or self.n == 2 * self.k or self.n == 2 * self.k + 1


@dataclass(frozen=True)
class BoundaryReport:
    entries: tuple[BoundaryEntry, ...]

    @property
    def all_match(self) -> bool:
        return all(e.equal == e.predicted for e in self.entries)


def q_equals_schrijver_sweep(max_n: int) -> BoundaryReport:
    """Compare vertex sets of the rotation graph and the 2-separated graph
    for every 1 <= k, 2k <= n <= max_n.

    Both graphs put an edge exactly between disjoint labels, so equal label
    sets mean equal graphs.  Each entry derives its prediction from (n, k).
    """
    return BoundaryReport(tuple(
        BoundaryEntry(n, k, set(build_q(n, k).labels) == set(build_schrijver(n, k).labels))
        for n in range(2, max_n + 1) for k in range(1, n // 2 + 1)))
