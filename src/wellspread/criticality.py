"""Deletion sweeps: how chromatic invariants respond to removing one vertex
or one edge, and where the rotation and 2-separated families coincide.

Every reported value is checked on the literally deleted graph: it comes
either from a witness pair checked there or from an exact solver.  A sweep
first takes the graph's certified dihedral symmetries
(`graphs.dihedral_automorphisms`: the label rotation and reflection, each kept
only once `validate_map` accepts it as an automorphism) and closes the
vertices or edges into orbits under them.  An automorphism s gives G-v
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
a deleted graph D are first tried through the paper's constructions
(`certificates`): a fractional colouring of D and the uniform weight 1/b on
the embedded copy S of Q(a,b).  `fractional.witnessed_value` verifies the
colouring on D and proves alpha(D[S]) <= b by branch-and-bound, and weak
duality then pins chi_f(D) = a/b.  For chi_c the retraction onto that copy, composed
with Q(a,b) ~ K_{a/b}, must also pass `validate_map` as a homomorphism of D,
so chi_f(D) <= chi_c(D) <= a/b.  An edge that joins no consecutive rotations
keeps chi_f(D) = n/k: the intact graph's own colouring stays valid on D, and
weight 1/k on every vertex is a fractional clique once branch-and-bound
proves alpha(D) <= k; for chi_c the identity D -> K_{n/k} is validated too.

The circular complete graph K_{n/k} with the same parameters gets the same
witnesses: `certificates.circular_isomorphism` (validated) sends position u
of Q(n,k) to residue u*k mod n, so a deletion moves to Q positions by k^-1
mod n, the pair is built there, and its sets, section and retraction move
back to D's ids, where every check runs.  This settles the paper's corollary
that deleting an edge at circular distance k lowers chi_c to a/b and any
other edge leaves n/k.  If any check fails, the solver decides.
Formula predictions live in the verification harness, which compares them
against the closed forms and solves every deleted graph itself, so it checks
the witnesses and the orbit reduction too.

A sweep builds each graph its witnesses read once, not once per orbit: Q(n,k)
(the swept graph itself when it is Q(n,k)), Q(a,b) and K_{a/b} sit in one
certificates frame, which every orbit's constructors read; each orbit still
builds and checks its own pair.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from .certificates import (
    _circular_isomorphism,
    _cycle_edge_base,
    _edge_deleted_coloring,
    _edge_deleted_retraction,
    _Frame,
    _vertex_deleted_coloring,
    _vertex_deleted_retraction,
)
from .coloring import chromatic_number, is_t_colorable, rlf_coloring
from .cyclic import critical_params
from .errors import InvalidParams
from .fractional import FractionalColoring, fractional_chromatic_number, witnessed_value
from .graphs import (
    FamilyParams,
    LabeledGraph,
    MapKind,
    VertexMap,
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
    summary: SweepSummary
    metadata: dict = field(default_factory=dict)


def evaluate_invariant(g: LabeledGraph, invariant: Invariant) -> Fraction:
    if invariant is Invariant.CHI:
        return Fraction(chromatic_number(g))
    if invariant is Invariant.CHI_F:
        return fractional_chromatic_number(g)[0]
    return circular_chromatic_number(g)


def _edge_image(perm: list[int], e: tuple[int, int]) -> tuple[int, int]:
    u, v = perm[e[0]], perm[e[1]]
    return (u, v) if u < v else (v, u)


def _q_frame(g: LabeledGraph) -> tuple[list[int], _Frame] | None:
    """g's vertex id of each position of Q(n,k), and the certificates' frame
    of Q(n,k), when the paper's witness pairs apply to g; else None.

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
        return list(range(n)), _Frame(g, critical_params(n, k))
    q = build_q(n, k)
    iso = _circular_isomorphism(q, g)
    return [iso.mapping[u] for u in range(n)], _Frame(q, critical_params(n, k))


def _retraction_witness(g: LabeledGraph, d: LabeledGraph, invariant: Invariant,
                        deletion: int | tuple[int, int],
                        orbit_fc: FractionalColoring | None = None,
                        frame: tuple[list[int], _Frame] | None = None) -> Fraction | None:
    """chi_f or chi_c of d, the graph g less one vertex or edge, when the
    paper's witness pair pins it on d; None otherwise.

    g is Q(n,k) or circular(n,k) with gcd(n,k) = 1 and 2k < n; frame is
    `_q_frame(g)`, computed here when not given.  The deletion moves to Q
    positions, the pair is built there and moves back to d's ids:
    - vertex v: the star colouring avoiding v, and the copy of Q(a,b)
      anchored at v-1, with weight 1/b;
    - consecutive-rotation edge (circular distance k): the star colouring less
      that edge and the copy anchored at the edge's lower endpoint;
    - any other edge: orbit_fc, g's own colouring, which stays valid, and
      weight 1/k on every vertex.
    chi_c also needs a validated homomorphism of d: the retraction onto the
    copy composed with Q(a,b) ~ K_{a/b}, or, for the other edges, the
    identity into g ~ K_{n/k}.
    """
    if frame is None:
        frame = _q_frame(g)
        if frame is None:
            return None
    positions, f = frame
    n, k = g.family.n, g.family.k
    where = [0] * n  # g id -> Q position
    for u, x in enumerate(positions):
        where[x] = u
    if isinstance(deletion, int):
        fc = _vertex_deleted_coloring(f, where[deletion])
        retraction = _vertex_deleted_retraction(f, where[deletion])
        d_id = lambda u: positions[u] - (positions[u] > deletion)  # delete_vertex compacts
    elif (where[deletion[1]] - where[deletion[0]]) % n in (1, n - 1):
        p = _cycle_edge_base(f.q, (where[deletion[0]], where[deletion[1]]))
        fc = _edge_deleted_coloring(f, p)
        retraction = _edge_deleted_retraction(f, p)
        d_id = positions.__getitem__
    elif orbit_fc is not None:
        value = witnessed_value(d, orbit_fc, range(n), k)
        if value is None or invariant is Invariant.CHI_F:
            return value
        identity = VertexMap(d, g, {u: u for u in range(n)}, MapKind.HOMOMORPHISM)
        return None if validate_map(identity) else value
    else:
        return None
    # re-indexed without its exclusion, the colouring is checked on d itself
    fc = FractionalColoring(tuple(tuple(map(d_id, s)) for s in fc.sets), fc.weights)
    cp = f.cp
    value = witnessed_value(d, fc, map(d_id, retraction.section.values()), cp.b)
    if value is None or invariant is Invariant.CHI_F:
        return value
    to_circular = f.to_circular
    mapping = {d_id(u): to_circular.mapping[t] for u, t in retraction.mapping.items()}
    hom = VertexMap(d, to_circular.target, mapping, MapKind.HOMOMORPHISM)
    if value != Fraction(cp.a, cp.b) or validate_map(hom):
        return None
    return value


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


def _settle(g: LabeledGraph, d: LabeledGraph, invariant: Invariant, deletion,
            orbit_fc: FractionalColoring | None = None,
            frame: tuple[list[int], _Frame] | None = None) -> Fraction:
    """chi_f or chi_c of d = g less the deletion: witness first, then the solver."""
    value = _retraction_witness(g, d, invariant, deletion, orbit_fc, frame)
    return evaluate_invariant(d, invariant) if value is None else value


def vertex_criticality(g: LabeledGraph, invariant: Invariant) -> CriticalityReport:
    """The invariant after each single vertex deletion, settled once per
    certified vertex orbit; for chi, by one colorability question per orbit.

    VERTEX_CRITICAL means every deletion strictly lowered the value.
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
            return _settle(g, delete_vertex(g, v), invariant, v, None, frame)
    vertices = range(g.vertex_count)
    values = _solve_per_orbit(vertices, dihedral_automorphisms(g), list.__getitem__, settle)
    rows = []
    for v, val in zip(vertices, values):
        if val > baseline:
            raise AssertionError(f"deleting {v} raised {invariant.value} to {val}")
        rows.append((v, val))
    drops = sum(1 for _, val in rows if val < baseline)
    if drops == len(rows) and rows:
        summary = SweepSummary.VERTEX_CRITICAL
    elif drops == 0:
        summary = SweepSummary.NOT_CRITICAL
    else:
        summary = SweepSummary.MIXED
    return CriticalityReport(g.family, invariant, baseline, tuple(rows), (), summary)


def _edge_sweep(g: LabeledGraph, invariant: Invariant, baseline: Fraction,
                orbit_fc: FractionalColoring, flag: Callable[[tuple[int, int]], bool],
                metadata: dict) -> CriticalityReport:
    """`invariant` of g after each single edge deletion, settled once per
    certified edge orbit, each row tagged with flag(edge).  No deletion may
    raise the value above `baseline`."""
    edges = g.edges()
    frame = _q_frame(g)
    values = _solve_per_orbit(
        edges, dihedral_automorphisms(g), _edge_image,
        lambda e: _settle(g, delete_edge(g, *e), invariant, e, orbit_fc, frame))
    rows = []
    for e, val in zip(edges, values):
        if val > baseline:
            raise AssertionError(f"deleting edge {e} raised {invariant.value} to {val}")
        rows.append((e, val, flag(e)))
    if all(val >= baseline for _, val, _ in rows):
        summary = SweepSummary.NOT_CRITICAL
    elif all((val < baseline) == flagged for _, val, flagged in rows):
        summary = SweepSummary.EDGE_CLASSIFICATION
    else:
        summary = SweepSummary.MIXED
    return CriticalityReport(g.family, invariant, baseline, (), tuple(rows), summary, metadata)


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
    baseline, orbit_fc = fractional_chromatic_number(q)
    rot = label_rotation(q)  # labels of consecutive rotations differ by one step
    return _edge_sweep(q, Invariant.CHI_F, baseline, orbit_fc,
                       lambda e: rot[e[0]] == e[1] or rot[e[1]] == e[0], metadata)


def circular_edge_corollary(n: int, k: int) -> CriticalityReport:
    """Circular chromatic number of the circular complete graph after each
    single edge deletion, settled once per certified edge orbit: by the
    paper's witness pairs, moved across circular(n,k) ~ Q(n,k), or else by
    the solver.

    The flag on each edge {i,j} marks circular distance exactly k, i.e. the
    image of a consecutive-rotation edge under the position-times-k bijection.
    """
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"need 1 <= k <= n/2, got n={n} k={k}")
    if gcd(n, k) != 1:
        raise InvalidParams(f"need gcd(n,k)=1, got gcd({n},{k})={gcd(n, k)}")
    g = build_circular(n, k)
    baseline = circular_chromatic_number(g)
    orbit_fc = fractional_chromatic_number(g)[1]
    return _edge_sweep(g, Invariant.CHI_C, baseline, orbit_fc,
                       lambda e: min((e[1] - e[0]) % n, (e[0] - e[1]) % n) == k,
                       {"critical_value": critical_params(n, k).as_fraction()})


@dataclass(frozen=True)
class BoundaryEntry:
    n: int
    k: int
    equal: bool
    predicted: bool


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
    sets mean equal graphs.  Equality is predicted to hold exactly for k=1,
    n=2k, and n=2k+1.
    """
    entries = []
    for n in range(2, max_n + 1):
        for k in range(1, n // 2 + 1):
            q = build_q(n, k)
            sg = build_schrijver(n, k)
            equal = frozenset(q.labels) == frozenset(sg.labels)
            predicted = k == 1 or n == 2 * k or n == 2 * k + 1
            entries.append(BoundaryEntry(n, k, equal, predicted))
    return BoundaryReport(tuple(entries))
