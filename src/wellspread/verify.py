"""End-to-end verification grids.

Each criterion sweeps a parameter grid, recomputes the claimed quantity with
the exact solvers, and compares against the closed-form prediction.  Nothing
here trusts the certificate constructors: colorings and maps are re-validated
and their values cross-checked against independent LP or search oracles.

Every `check_*` takes one argument, `max_n`, and `_cap` clamps each of its own
grid sizes to n <= max_n; a max_n below `_MIN_MAX_N` raises InvalidParams.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, gcd

from .certificates import (
    circular_isomorphism,
    edge_deleted_coloring,
    edge_deleted_retraction,
    find_subgraph_qab,
    scaling_isomorphism,
    vertex_deleted_coloring,
    vertex_deleted_retraction,
)
from .coloring import find_proper_coloring, is_t_colorable
from .criticality import q_equals_schrijver_sweep
from .cyclic import (
    CyclicSubset,
    canonical_well_spread,
    critical_params,
    euclid_reduce,
    is_well_spread,
    is_well_spread_dual,
)
from .errors import InvalidParams
from .fractional import fractional_chromatic_number, verify_fractional_coloring
from .graphs import (
    MapKind,
    VertexMap,
    build_circular,
    build_interlacing,
    build_kneser,
    build_q,
    build_schrijver,
    checked_map,
    delete_edge,
    delete_vertex,
    is_cycle_edge,
    validate_map,
)
from .homomorphism import circular_chromatic_number, find_isomorphism
from .independence import independence_number, max_independent_sets
from .serialize import SCHEMA_VERSION


@dataclass(frozen=True)
class CaseResult:
    label: str
    detail: str
    ok: bool


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    cases: tuple[CaseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cases)

    def lines(self) -> list[str]:
        return [
            f"{self.name} {c.label}: {c.detail} {'OK' if c.ok else 'FAIL'}"
            for c in self.cases
        ]


def _chi_equals(g, t: int) -> tuple[bool, int]:
    """Exact check chi(g) == t via one decision each side; returns (ok, chi-ish).

    The second component is t when the check passes and is only a bracket
    hint otherwise (enough for a failure message).
    """
    if g.vertex_count == 0:
        return t == 0, 0
    if t < 1 or not is_t_colorable(g, t):
        return False, t + 1
    if is_t_colorable(g, t - 1):
        return False, t - 1
    return True, t


# criterion 9's graphs K_{n/k}: below their least n it checks no case, so that
# n is the least max_n accepted (every other criterion has a case by n = 4)
_CIRCULAR_PAIRS = ((5, 2), (7, 2), (7, 3), (8, 3), (9, 4), (11, 3))
_MIN_MAX_N = min(n for n, _ in _CIRCULAR_PAIRS)


def _cap(default: int, max_n: int | None) -> int:
    """A grid's largest n: default, clamped to max_n when one is given."""
    if max_n is None:
        return default
    if max_n < _MIN_MAX_N:
        raise InvalidParams(f"max-n {max_n} leaves a criterion empty; the least is {_MIN_MAX_N}")
    return min(default, max_n)


def _grid(max_n: int, strict: bool = False, coprime: bool = False):
    for n in range(2, max_n + 1):
        top = (n - 1) // 2 if strict else n // 2
        for k in range(1, top + 1):
            if coprime and gcd(n, k) != 1:
                continue
            yield n, k


def check_chromatic_law(max_n: int | None = None) -> CriterionResult:
    """chi of both set families equals n-2k+2; every single vertex deletion
    of the 2-separated family drops it to n-2k+1.

    The 2-separated graph is decided exhaustively both ways.  The full
    disjointness graph then needs only an exhibited t-coloring, checked by
    `validate_map` as a homomorphism into K_t: it contains the 2-separated
    graph (each label sent to itself, checked by `validate_map` as an
    embedding), so its chromatic number is sandwiched.
    """
    cases = []
    for n, k in _grid(_cap(10, max_n)):
        t = n - 2 * k + 2
        sg = build_schrijver(n, k)
        ok_sg, got_sg = _chi_equals(sg, t)
        cases.append(CaseResult(f"SG({n},{k})", f"chi={got_sg} want {t}", ok_sg))
        kg = build_kneser(n, k)
        coloring = find_proper_coloring(kg, t)
        colored = coloring is not None and not validate_map(
            VertexMap(kg, build_circular(t, 1), dict(enumerate(coloring)), MapKind.HOMOMORPHISM))
        index = {lab: i for i, lab in enumerate(kg.labels)}
        by_label = {u: index[lab] for u, lab in enumerate(sg.labels) if lab in index}
        contained = not validate_map(VertexMap(sg, kg, by_label, MapKind.EMBEDDING))
        ok_kg = colored and contained and ok_sg
        detail = (
            f"chi={t}: {t}-coloring found, lower bound from 2-separated subgraph"
            if ok_kg
            else f"{t}-colorable={colored}, subgraph={contained}, sg pinned={ok_sg}"
        )
        cases.append(CaseResult(f"KG({n},{k})", detail, ok_kg))
        if n <= _cap(8, max_n):
            bad = []
            for v in range(sg.vertex_count):
                ok_v, _ = _chi_equals(delete_vertex(sg, v), t - 1)
                if not ok_v:
                    bad.append(v)
            cases.append(
                CaseResult(
                    f"SG({n},{k}) minus any vertex",
                    f"chi={t - 1} at all {sg.vertex_count} vertices"
                    if not bad
                    else f"chi!={t - 1} at vertices {bad[:5]}",
                    not bad,
                )
            )
    return CriterionResult(1, "chromatic-law", tuple(cases))


def _is_star(labels, vertices) -> bool:
    common = set(labels[vertices[0]].elements)
    for v in vertices[1:]:
        common &= set(labels[v].elements)
        if not common:
            return False
    return True


def check_independence(max_n: int | None = None) -> CriterionResult:
    """alpha formulas for both families, plus the maximum-set structure of
    the 2-separated family: all stars away from n = 2k+2, a non-star at it."""
    cases = []
    max_n_schrijver = _cap(11, max_n)
    for n, k in _grid(_cap(9, max_n)):
        want = comb(n - 1, k - 1)
        got = independence_number(build_kneser(n, k))
        cases.append(CaseResult(f"KG({n},{k})", f"alpha={got} want {want}", got == want))
    for n, k in _grid(max_n_schrijver):
        want = comb(n - k - 1, k - 1)
        sg = build_schrijver(n, k)
        got = independence_number(sg)
        cases.append(CaseResult(f"SG({n},{k})", f"alpha={got} want {want}", got == want))
        if n > 2 * k and n != 2 * k + 2:
            sets = max_independent_sets(sg)
            stars = sum(1 for s in sets if _is_star(sg.labels, s))
            cases.append(
                CaseResult(
                    f"SG({n},{k}) maximum sets",
                    f"{stars}/{len(sets)} are stars",
                    stars == len(sets),
                )
            )
    for k in (2, 3):
        n = 2 * k + 2
        if n > max_n_schrijver:
            continue
        sg = build_schrijver(n, k)
        sets = max_independent_sets(sg)
        nonstars = sum(1 for s in sets if not _is_star(sg.labels, s))
        cases.append(
            CaseResult(
                f"SG({n},{k}) maximum sets",
                f"{nonstars} non-star of {len(sets)}",
                nonstars > 0,
            )
        )
    return CriterionResult(2, "independence-numbers", tuple(cases))


def check_fractional_law(max_n: int | None = None) -> CriterionResult:
    """chi_f equals n/k on all three families."""
    cases = []
    for n, k in _grid(_cap(10, max_n)):
        want = Fraction(n, k)
        for tag, g in (("KG", build_kneser(n, k)), ("SG", build_schrijver(n, k))):
            got = fractional_chromatic_number(g)[0]
            cases.append(
                CaseResult(f"{tag}({n},{k})", f"chi_f={got} want {want}", got == want)
            )
    for n, k in _grid(_cap(20, max_n), coprime=True):
        want = Fraction(n, k)
        got = fractional_chromatic_number(build_q(n, k))[0]
        cases.append(CaseResult(f"Q({n},{k})", f"chi_f={got} want {want}", got == want))
    return CriterionResult(3, "fractional-law", tuple(cases))


def check_vertex_criticality(max_n: int | None = None) -> CriterionResult:
    """LP value after every single vertex deletion of the rotation graph."""
    cases = []
    for n, k in _grid(_cap(14, max_n), strict=True, coprime=True):
        want = critical_params(n, k).as_fraction()
        q = build_q(n, k)
        got = {fractional_chromatic_number(delete_vertex(q, v))[0] for v in range(n)}
        ok = got == {want} and want < Fraction(n, k)
        cases.append(
            CaseResult(
                f"Q({n},{k})",
                f"chi_f minus a vertex = {sorted(map(str, got))} want {want} < {n}/{k}",
                ok,
            )
        )
    return CriterionResult(4, "vertex-criticality", tuple(cases))


def check_edge_classification(max_n: int | None = None) -> CriterionResult:
    """Two-sided edge test: deletion drops chi_f to a/b exactly on
    consecutive-rotation edges and leaves n/k otherwise.

    Every edge-deleted graph is solved here, independently of the
    orbit-reduced sweep in `criticality`."""
    cases = []
    for n, k in _grid(_cap(14, max_n), strict=True, coprime=True):
        want_drop = critical_params(n, k).as_fraction()
        want_keep = Fraction(n, k)
        q = build_q(n, k)
        per_edge = [
            (e, fractional_chromatic_number(delete_edge(q, *e))[0], is_cycle_edge(q, *e))
            for e in q.edges()
        ]
        if k == 1:
            # Q(n,1) is complete: every edge deletion admits a two-vertex
            # color class, so the consecutive-rotation dichotomy degenerates
            # and the drop value a/b = n-1 holds for all edges instead.
            bad = [(e, str(val), flag) for e, val, flag in per_edge
                   if val != want_drop]
            detail = (
                f"complete graph: all {len(per_edge)} deletions -> {want_drop}"
                if not bad else f"mismatches {bad[:3]}"
            )
            cases.append(CaseResult(f"Q({n},{k})", detail, not bad))
            continue
        bad = [
            (e, str(val), flag)
            for e, val, flag in per_edge
            if val != (want_drop if flag else want_keep)
        ]
        ncyc = sum(1 for _, _, flag in per_edge if flag)
        detail = (
            f"{ncyc} cycle-edges -> {want_drop}, {len(per_edge) - ncyc} others -> {want_keep}"
            if not bad
            else f"mismatches {bad[:3]}"
        )
        cases.append(CaseResult(f"Q({n},{k})", detail, not bad))
    return CriterionResult(5, "edge-classification", tuple(cases))


# the prefix of the failure a constructed map reports when validated again here
_REVALIDATED = "map fails validation"


def check_certificates(max_n: int | None = None) -> CriterionResult:
    """Every explicit construction validates, and every certificate coloring
    value matches an independent LP solve on the literally deleted graph."""
    cases = []
    for n, k in _grid(_cap(14, max_n), strict=True, coprime=True):
        q = build_q(n, k)
        problems = []

        def run(label, thunk):
            try:
                thunk()
            except Exception as exc:  # noqa: BLE001 - report, never crash the sweep
                problems.append(f"{label}: {exc}")

        run("circular-isomorphism", lambda: checked_map(circular_isomorphism(n, k), _REVALIDATED))
        run("window-embedding", lambda: checked_map(find_subgraph_qab(n, k), _REVALIDATED))
        for v in range(n):
            run(f"retraction-minus-vertex-{v}",
                lambda v=v: checked_map(vertex_deleted_retraction(n, k, v), _REVALIDATED))
            run(f"coloring-minus-vertex-{v}",
                lambda v=v: _coloring_matches_lp(q, vertex_deleted_coloring(n, k, v)))
        for e in q.edges():
            if not is_cycle_edge(q, *e):
                continue
            run(f"retraction-minus-edge-{e}",
                lambda e=e: checked_map(edge_deleted_retraction(n, k, e), _REVALIDATED))
            run(f"coloring-minus-edge-{e}",
                lambda e=e: _coloring_matches_lp(q, edge_deleted_coloring(n, k, e)))
        cases.append(
            CaseResult(
                f"Q({n},{k})",
                "all certificates validate and match LP" if not problems else "; ".join(problems[:3]),
                not problems,
            )
        )
    for n, k in _grid(_cap(8, max_n)):
        problems = []
        for ell in (2, 3):
            try:
                checked_map(scaling_isomorphism(n, k, ell), _REVALIDATED)
            except Exception as exc:  # noqa: BLE001
                problems.append(f"l={ell}: {exc}")
        cases.append(
            CaseResult(
                f"Q({n},{k}) scaled",
                "blow-up isomorphisms validate" if not problems else "; ".join(problems),
                not problems,
            )
        )
    return CriterionResult(6, "explicit-certificates", tuple(cases))


def _coloring_matches_lp(q, fc) -> None:
    bad = verify_fractional_coloring(q, fc)
    if bad:
        raise AssertionError(bad[0])
    if fc.excluded_vertex is not None:
        h = delete_vertex(q, fc.excluded_vertex)
    else:
        h = delete_edge(q, *fc.excluded_edge)
    lp = fractional_chromatic_number(h)[0]
    if lp != fc.value:
        raise AssertionError(f"certificate value {fc.value} but LP gives {lp}")


def check_rotation_structure(max_n: int | None = None) -> CriterionResult:
    """Vertex count and regular degree, chi = ceil(n/k), the equality
    boundary with the 2-separated family, and independent isomorphism to the
    circular complete graph on reduced parameters."""
    cases = []
    max_n_boundary = _cap(12, max_n)
    for n, k in _grid(_cap(30, max_n), coprime=True):
        q = build_q(n, k)
        degs = {q.degree(v) for v in range(q.vertex_count)}
        ok = q.vertex_count == n and degs == {n - 2 * k + 1}
        cases.append(
            CaseResult(
                f"Q({n},{k})",
                f"|V|={q.vertex_count} want {n}, degrees {sorted(degs)} want {n - 2 * k + 1}",
                ok,
            )
        )
    for n, k in _grid(_cap(14, max_n), coprime=True):
        t = ceil(Fraction(n, k))
        ok, got = _chi_equals(build_q(n, k), t)
        cases.append(CaseResult(f"Q({n},{k})", f"chi={got} want {t}", ok))
    rep = q_equals_schrijver_sweep(max_n_boundary)
    mism = [(e.n, e.k) for e in rep.entries if e.equal != e.predicted]
    cases.append(
        CaseResult(
            f"equality boundary n<={max_n_boundary}",
            f"{len(rep.entries)} pairs match k=1 / n=2k / n=2k+1"
            if not mism
            else f"mismatches at {mism[:5]}",
            not mism,
        )
    )
    for n, k in _grid(_cap(14, max_n)):
        g = gcd(n, k)
        m = find_isomorphism(build_q(n, k), build_circular(n // g, k // g))
        cases.append(
            CaseResult(
                f"Q({n},{k}) vs K_{n // g}/{k // g}",
                "isomorphism found" if m is not None else "no isomorphism",
                m is not None,
            )
        )
    return CriterionResult(7, "rotation-structure", tuple(cases))


def check_well_spread(max_n: int | None = None) -> CriterionResult:
    """Exhaustive agreement of the two balance tests, classification of
    well-spread sets as canonical rotations, and reduction terminal sizes."""
    cases = []
    for n in range(1, _cap(16, max_n) + 1):
        mismatch = 0
        found: dict[int, set] = {}
        for mask in range(1 << n):
            elems = tuple(i for i in range(n) if mask >> i & 1)
            s = CyclicSubset(n, elems)
            w = is_well_spread(s)
            if w != is_well_spread_dual(s):
                mismatch += 1
            if w:
                found.setdefault(len(elems), set()).add(elems)
        cases.append(
            CaseResult(
                f"Z_{n} balance tests",
                f"agree on all {1 << n} subsets" if not mismatch else f"{mismatch} disagreements",
                mismatch == 0,
            )
        )
        bad_k = []
        for k in range(1, n + 1):
            canon = canonical_well_spread(n, k)
            rots = {tuple(sorted(canon.rotate(t).elements)) for t in range(n)}
            if len(rots) != n // gcd(n, k) or found.get(k, set()) != rots:
                bad_k.append(k)
        cases.append(
            CaseResult(
                f"Z_{n} classification",
                "well-spread sets = canonical rotations for every k"
                if not bad_k
                else f"failures at k={bad_k}",
                not bad_k,
            )
        )
        bad_red = 0
        total = 0
        for k in range(1, n // 2 + 1):
            canon = canonical_well_spread(n, k)
            for t in range(n):
                s = canon.rotate(t)
                total += 1
                if len(euclid_reduce(s).terminal) != gcd(n, k):
                    bad_red += 1
        cases.append(
            CaseResult(
                f"Z_{n} reduction",
                f"terminal size = gcd on all {total} well-spread sets"
                if not bad_red
                else f"{bad_red} wrong terminals",
                bad_red == 0,
            )
        )
    return CriterionResult(8, "well-spread-machinery", tuple(cases))


def check_circular_deletion(max_n: int | None = None) -> CriterionResult:
    """Search-based chi_c of the circular complete graph after each edge
    deletion: a/b exactly at circular distance k, n/k otherwise.

    Every edge-deleted graph is solved here, independently of the
    orbit-reduced sweep in `criticality`."""
    cases = []
    for n, k in _CIRCULAR_PAIRS:
        if _cap(n, max_n) < n:
            continue
        want_drop = critical_params(n, k).as_fraction()
        want_keep = Fraction(n, k)
        g = build_circular(n, k)
        per_edge = []
        for e in g.edges():
            d = (e[1] - e[0]) % n
            flag = min(d, n - d) == k
            per_edge.append((e, circular_chromatic_number(delete_edge(g, *e)), flag))
        bad = [
            (e, str(val), flag)
            for e, val, flag in per_edge
            if val != (want_drop if flag else want_keep)
        ]
        tight = sum(1 for _, _, flag in per_edge if flag)
        cases.append(
            CaseResult(
                f"K_{n}/{k}",
                f"{tight} tight edges -> {want_drop}, {len(per_edge) - tight} -> {want_keep}"
                if not bad
                else f"mismatches {bad[:3]}",
                not bad,
            )
        )
    return CriterionResult(9, "circular-deletion", tuple(cases))


def check_interlacing(max_n: int | None = None) -> CriterionResult:
    """The rotation graph's edges interlace, and the interlacing graph's
    chromatic number is ceil(n/k)."""
    cases = []
    for n, k in _grid(_cap(10, max_n)):
        inter = build_interlacing(n, k)
        index = {lab: i for i, lab in enumerate(inter.labels)}
        q = build_q(n, k)
        missing = [
            (u, v)
            for u, v in q.edges()
            if not inter.has_edge(index[q.labels[u]], index[q.labels[v]])
        ]
        cases.append(
            CaseResult(
                f"Q({n},{k}) edges in I({n},{k})",
                f"all {q.edge_count()} edges present" if not missing else f"missing {missing[:3]}",
                not missing,
            )
        )
        t = ceil(Fraction(n, k))
        ok, got = _chi_equals(inter, t)
        cases.append(CaseResult(f"I({n},{k})", f"chi={got} want {t}", ok))
    return CriterionResult(10, "interlacing", tuple(cases))


def run_all(max_n: int | None = None) -> list[CriterionResult]:
    """The full verification grid, optionally clamped to n <= max_n."""
    return [
        check_chromatic_law(max_n),
        check_independence(max_n),
        check_fractional_law(max_n),
        check_vertex_criticality(max_n),
        check_edge_classification(max_n),
        check_certificates(max_n),
        check_rotation_structure(max_n),
        check_well_spread(max_n),
        check_circular_deletion(max_n),
        check_interlacing(max_n),
    ]


def summary_document(results: list[CriterionResult]) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "REPORT",
        "reportType": "verification",
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "cases": len(r.cases),
                "failures": [
                    {"label": c.label, "detail": c.detail} for c in r.cases if not c.ok
                ],
            }
            for r in results
        ],
        "allPassed": all(r.passed for r in results),
    }
