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

On the rotation graph Q(n,k) with gcd(n,k) = 1 and 2k < n, chi_f and chi_c of
a deleted graph D are first tried through the paper's constructions
(`certificates`): a fractional colouring of D and the uniform weight 1/b on
the embedded copy S of Q(a,b).  `fractional.witnessed_value` verifies the
colouring on D and proves alpha(D[S]) <= b by branch-and-bound, and weak
duality then pins chi_f(D) = a/b.  For chi_c the retraction onto that copy, composed
with Q(a,b) ~ K_{a/b}, must also pass `validate_map` as a homomorphism of D,
so chi_f(D) <= chi_c(D) <= a/b.  If any check fails, the solver decides.
Formula predictions live in the verification harness, which compares them
against the closed forms and solves every deleted graph itself, so it checks
the witnesses and the orbit reduction too.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

from .certificates import (
    circular_isomorphism,
    edge_deleted_coloring,
    edge_deleted_retraction,
    vertex_deleted_coloring,
    vertex_deleted_retraction,
)
from .coloring import chromatic_number
from .cyclic import critical_params
from .errors import InvalidParams
from .fractional import FractionalColoring, fractional_chromatic_number, witnessed_value
from .graphs import (
    FamilyParams,
    LabeledGraph,
    MapKind,
    VertexMap,
    build_circular,
    build_q,
    build_schrijver,
    delete_edge,
    delete_vertex,
    dihedral_automorphisms,
    is_cycle_edge,
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


def _retraction_witness(q: LabeledGraph, d: LabeledGraph, invariant: Invariant,
                        deletion: int | tuple[int, int],
                        orbit_fc: FractionalColoring | None = None) -> Fraction | None:
    """chi_f or chi_c of d, the graph q less one vertex or edge, when the
    paper's witness pair pins it on d; None otherwise.

    Only the coprime rotation graph with 2k < n has the pair:
    - vertex v: the star colouring avoiding v, re-indexed to d's ids, and the
      copy of Q(a,b) anchored at v-1, with weight 1/b;
    - consecutive-rotation edge: the star colouring less that edge and the
      copy anchored at the edge's lower endpoint;
    - any other edge (chi_f only): orbit_fc, q's own colouring, which stays
      valid, and weight 1/k on every vertex.
    chi_c also needs the retraction onto the copy, composed with
    Q(a,b) ~ K_{a/b}, to be a homomorphism of d.
    """
    fam = q.family
    if invariant is Invariant.CHI or fam is None or fam.tag != "q":
        return None
    n, k = fam.n, fam.k
    if gcd(n, k) != 1 or not 2 * k < n or q.vertex_count != n:
        return None
    if isinstance(deletion, int):
        fc = vertex_deleted_coloring(n, k, deletion)
        retraction = vertex_deleted_retraction(n, k, deletion)
        d_id = lambda u: u - (u > deletion)  # delete_vertex compacts the ids
    elif is_cycle_edge(q, *deletion):
        fc = edge_deleted_coloring(n, k, deletion)
        retraction = edge_deleted_retraction(n, k, deletion)
        d_id = lambda u: u
    elif invariant is Invariant.CHI_F and orbit_fc is not None:
        return witnessed_value(d, orbit_fc, range(n), k)
    else:
        return None
    # re-indexed without its exclusion, the colouring is checked on d itself
    fc = FractionalColoring(tuple(tuple(map(d_id, s)) for s in fc.sets), fc.weights)
    cp = critical_params(n, k)
    value = witnessed_value(d, fc, map(d_id, retraction.section.values()), cp.b)
    if value is None or invariant is Invariant.CHI_F:
        return value
    to_circular = circular_isomorphism(cp.a, cp.b)
    mapping = {d_id(u): to_circular.mapping[t] for u, t in retraction.mapping.items()}
    hom = VertexMap(d, to_circular.target, mapping, MapKind.HOMOMORPHISM)
    if value != Fraction(cp.a, cp.b) or validate_map(hom):
        return None
    return value


def _settle(q: LabeledGraph, d: LabeledGraph, invariant: Invariant, deletion,
            orbit_fc: FractionalColoring | None = None) -> Fraction:
    """The invariant of d = q less the deletion: witness first, then the solver."""
    value = _retraction_witness(q, d, invariant, deletion, orbit_fc)
    return evaluate_invariant(d, invariant) if value is None else value


def vertex_criticality(g: LabeledGraph, invariant: Invariant) -> CriticalityReport:
    """The invariant after each single vertex deletion, settled once per
    certified vertex orbit.

    VERTEX_CRITICAL means every deletion strictly lowered the value.
    """
    baseline = evaluate_invariant(g, invariant)
    vertices = range(g.vertex_count)
    values = _solve_per_orbit(
        vertices, dihedral_automorphisms(g), list.__getitem__,
        lambda v: _settle(g, delete_vertex(g, v), invariant, v))
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


def _edge_summary(rows, baseline) -> SweepSummary:
    drops = sum(1 for _, val, _ in rows if val < baseline)
    if drops == 0:
        return SweepSummary.NOT_CRITICAL
    clean = all((val < baseline) == bool(flag) for _, val, flag in rows)
    return SweepSummary.EDGE_CLASSIFICATION if clean else SweepSummary.MIXED


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
    edges = q.edges()
    values = _solve_per_orbit(
        edges, dihedral_automorphisms(q), _edge_image,
        lambda e: _settle(q, delete_edge(q, *e), Invariant.CHI_F, e, orbit_fc))
    rows = []
    for e, val in zip(edges, values):
        if val > baseline:
            raise AssertionError(f"deleting edge {e} raised chi_f to {val}")
        rows.append((e, val, is_cycle_edge(q, *e)))
    return CriticalityReport(
        q.family, Invariant.CHI_F, baseline, (), tuple(rows),
        _edge_summary(rows, baseline), metadata,
    )


def circular_edge_corollary(n: int, k: int) -> CriticalityReport:
    """Circular chromatic number of the circular complete graph after each
    single edge deletion, solved once per certified edge orbit.

    The flag on each edge {i,j} marks circular distance exactly k, i.e. the
    image of a consecutive-rotation edge under the position-times-k bijection.
    """
    if not (1 <= k and 2 * k <= n):
        raise InvalidParams(f"need 1 <= k <= n/2, got n={n} k={k}")
    if gcd(n, k) != 1:
        raise InvalidParams(f"need gcd(n,k)=1, got gcd({n},{k})={gcd(n, k)}")
    g = build_circular(n, k)
    baseline = circular_chromatic_number(g)
    edges = g.edges()
    values = _solve_per_orbit(
        edges, dihedral_automorphisms(g), _edge_image,
        lambda e: circular_chromatic_number(delete_edge(g, *e)))
    rows = []
    for e, val in zip(edges, values):
        if val > baseline:
            raise AssertionError(f"deleting edge {e} raised chi_c to {val}")
        d = (e[1] - e[0]) % n
        rows.append((e, val, min(d, n - d) == k))
    return CriticalityReport(
        g.family, Invariant.CHI_C, baseline, (), tuple(rows),
        _edge_summary(rows, baseline),
        {"critical_value": critical_params(n, k).as_fraction()},
    )


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
