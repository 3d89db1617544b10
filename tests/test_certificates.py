"""Closed-form certificates: colorings, retractions, embeddings, isomorphisms."""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd

import pytest

from wellspread import (
    CyclicSubset,
    InvalidParams,
    MapKind,
    NotAnEdge,
    NotCoprime,
    NotCycleEdge,
    build_q,
    circular_isomorphism,
    critical_params,
    delete_edge,
    delete_vertex,
    edge_deleted_coloring,
    edge_deleted_retraction,
    find_subgraph_qab,
    fractional_chromatic_number,
    scaling_isomorphism,
    validate_map,
    verify_fractional_coloring,
    vertex_deleted_coloring,
    vertex_deleted_retraction,
)
from wellspread import certificates
from wellspread.certificates import (
    _edge_deleted_coloring,
    _frame,
    _light_window_start,
    _anchored_copy,
    _vertex_deleted_coloring,
)
from wellspread.cyclic import canonical_well_spread, rotated_residues
from wellspread.fractional import FractionalColoring


def star_positions(n: int, k: int) -> tuple[int, ...]:
    """Rotation offsets whose set contains residue 0: a maximum independent set."""
    return certificates._star(canonical_well_spread(n, k))


def test_star_positions_examples():
    assert star_positions(7, 2) == (0, 4)
    # stars are the negated canonical set, so always well-spread
    for n, k in [(5, 2), (11, 3), (13, 5)]:
        s = star_positions(n, k)
        assert len(s) == k


def test_vertex_deleted_coloring_worked_example():
    fc = vertex_deleted_coloring(7, 2, 1)
    assert fc.sets == ((0, 4), (3, 6), (2, 5))
    assert fc.weights == (Fraction(1),) * 3
    assert fc.value == 3
    assert fc.excluded_vertex == 1


def test_vertex_deleted_coloring_valid_on_grid():
    for n, k in [(5, 2), (7, 2), (7, 3), (8, 3), (11, 3), (13, 5)]:
        cp = critical_params(n, k)
        for v in range(n):
            fc = vertex_deleted_coloring(n, k, v)
            assert fc.value == cp.as_fraction()
            q = build_q(n, k)
            assert verify_fractional_coloring(q, fc) == []
            assert all(v not in s for s in fc.sets)
            # matches an independent LP solve on the literally deleted graph
            assert fractional_chromatic_number(delete_vertex(q, v))[0] == fc.value


def test_vertex_deleted_coloring_rejects():
    with pytest.raises(InvalidParams):
        vertex_deleted_coloring(7, 2, 7)
    with pytest.raises(NotCoprime):
        vertex_deleted_coloring(6, 2, 0)


def test_edge_deleted_coloring_worked_example():
    fc = edge_deleted_coloring(7, 2, (0, 1))
    assert fc.sets == ((0, 1, 4), (3, 6), (2, 5))
    assert fc.value == 3
    assert fc.excluded_edge == (0, 1)


def test_edge_deleted_coloring_valid_on_cycle_edges():
    for n, k in [(5, 2), (7, 3), (11, 3), (13, 5)]:
        cp = critical_params(n, k)
        q = build_q(n, k)
        for p in range(n):
            e = (p, (p + 1) % n)
            fc = edge_deleted_coloring(n, k, e)
            assert fc.value == cp.as_fraction()
            assert verify_fractional_coloring(q, fc) == []
            assert fractional_chromatic_number(delete_edge(q, *e))[0] == fc.value


def test_edge_deleted_coloring_rejects():
    with pytest.raises(NotCycleEdge):
        edge_deleted_coloring(7, 2, (0, 2))
    with pytest.raises(NotAnEdge):
        edge_deleted_coloring(7, 2, (0, 3))
    with pytest.raises(InvalidParams):
        edge_deleted_coloring(7, 2, (0, 0))
    with pytest.raises(InvalidParams):
        edge_deleted_coloring(7, 2, (0, 9))


def test_public_constructors_check_their_cores(monkeypatch):
    # the cores return unchecked results; each public constructor checks its core's
    def short(core):
        def tampered(f, x):
            fc = core(f, x)
            return FractionalColoring(fc.sets[1:], fc.weights[1:], fc.excluded_vertex,
                                      fc.excluded_edge)
        return tampered

    def bent(core):
        def tampered(f, anchor, **exclusion):
            m = core(f, anchor, **exclusion)
            m.mapping = {u: (t + 1) % m.target.vertex_count for u, t in m.mapping.items()}
            return m
        return tampered

    # both retractions come from the one core `_fold`
    calls = [("_vertex_deleted_coloring", short, lambda: vertex_deleted_coloring(13, 5, 4)),
             ("_edge_deleted_coloring", short, lambda: edge_deleted_coloring(13, 5, (4, 5))),
             ("_fold", bent, lambda: vertex_deleted_retraction(13, 5, 4)),
             ("_fold", bent, lambda: edge_deleted_retraction(13, 5, (4, 5)))]
    for name, tamper, construct in calls:
        with monkeypatch.context() as m:
            m.setattr(certificates, name, tamper(getattr(certificates, name)))
            with pytest.raises(AssertionError, match="constructed"):
                construct()


def test_window_embedding_worked_example():
    m = find_subgraph_qab(7, 2)
    assert m.kind is MapKind.EMBEDDING
    assert m.mapping == {2: 0, 1: 6, 0: 5}
    assert validate_map(m) == []


def test_window_embedding_lands_in_qab():
    for n, k in [(5, 2), (7, 3), (11, 3), (13, 5)]:
        m = find_subgraph_qab(n, k)
        cp = critical_params(n, k)
        assert (m.source.family.n, m.source.family.k) == (cp.a, cp.b)
        assert (m.target.family.n, m.target.family.k) == (n, k)
        assert validate_map(m) == []


def test_retractions_validate_and_carry_sections():
    for n, k in [(5, 2), (7, 2), (11, 3)]:
        for v in range(n):
            m = vertex_deleted_retraction(n, k, v)
            assert m.kind is MapKind.HOMOMORPHISM
            assert m.excluded_vertex == v
            assert m.section is not None
            assert validate_map(m) == []
        for p in range(n):
            m = edge_deleted_retraction(n, k, (p, (p + 1) % n))
            assert m.excluded_edge is not None
            assert validate_map(m) == []
    with pytest.raises(NotCycleEdge):
        edge_deleted_retraction(7, 2, (0, 2))


def test_scaling_isomorphism():
    for n, k, ell in [(5, 2, 2), (5, 2, 3), (7, 3, 2), (6, 2, 2)]:
        m = scaling_isomorphism(n, k, ell)
        assert m.kind is MapKind.ISOMORPHISM
        assert (m.target.family.n, m.target.family.k) == (ell * n, ell * k)
        assert validate_map(m) == []
        g = gcd(n, k)
        assert m.source.vertex_count == n // g
    with pytest.raises(InvalidParams):
        scaling_isomorphism(5, 2, 1)


def test_circular_isomorphism_worked_example():
    m = circular_isomorphism(5, 2)
    assert [m.mapping[u] for u in range(5)] == [0, 2, 4, 1, 3]
    assert m.kind is MapKind.ISOMORPHISM
    assert validate_map(m) == []
    for n, k in [(7, 2), (7, 3), (11, 4), (13, 5)]:
        assert validate_map(circular_isomorphism(n, k)) == []


# The label builders read residues from one shared table; the pins below
# compare them with the direct constructions they replaced.
COPRIME_GRID = [(n, k) for n in range(3, 32) for k in range(1, (n + 1) // 2) if gcd(n, k) == 1]


def test_q_labels_are_the_rotations_of_the_canonical_set():
    for n in range(2, 41):
        for k in range(1, n // 2 + 1):
            q = build_q(n, k)
            canon = canonical_well_spread(n, k)
            assert q.labels == tuple(canon.rotate(u) for u in range(n // gcd(n, k))), (n, k)


def test_deletion_colorings_match_the_direct_rotations():
    for n, k in COPRIME_GRID:
        f = _frame(n, k)
        a, b = f.cp.a, f.cp.b
        for x in range(n):
            delta = (x - f.light) % n
            want = tuple(tuple(r for r in rotated_residues(f.star, n, delta - j) if r != x)
                         for j in range(a))
            assert _vertex_deleted_coloring(f, x).sets == want, (n, k, x)
            delta = (x - (f.light - 1)) % n
            first = sorted(rotated_residues(f.star, n, delta) + ((f.light + delta) % n,))
            want = (tuple(first),) + tuple(rotated_residues(f.star, n, delta - j)
                                           for j in range(1, a))
            assert _edge_deleted_coloring(f, x).sets == want, (n, k, x)
            assert all(w == Fraction(1, b) for w in _edge_deleted_coloring(f, x).weights)


def _window_labels(q, cp, anchor):
    """Positions anchor, anchor-1, ..., anchor-a+1 with their reduced labels.

    Reading each position's set through the shifted deficient window of the
    anchor's own set yields b residues inside a window of length a; re-based
    to Z_a these are the rotation labels of the critical graph.  Each label
    is cut to the window by bisection, one cut per piece of the window left
    after wrapping at n, and the offsets come out sorted.
    """
    n, a = q.vertex_count, cp.a
    light = _light_window_start(n, a, cp.b, frozenset(q.labels[anchor].elements))
    beta = (light + 1) % n
    residues = tuple(range(n))
    offset = residues[n - beta:] + residues[:n - beta]  # offset[r] = r - beta mod n
    end = beta + a
    pieces = ((beta, end),) if end <= n else ((beta, n), (0, end - n))
    out = []
    for i in range(a):
        xi = (anchor - i) % n
        es = q.labels[xi].elements
        caught = ()
        for lo, hi in pieces:
            caught += es[bisect_left(es, lo):bisect_left(es, hi)]
        out.append((xi, CyclicSubset.from_sorted(a, tuple(map(offset.__getitem__, caught)))))
    return out


def _window_labels_by_residue(q, cp, anchor):
    """The window labels as first written: every residue of each label is
    tested against a dict of the window's offsets."""
    n = q.vertex_count
    light = _light_window_start(n, cp.a, cp.b, frozenset(q.labels[anchor].elements))
    beta = (light + 1) % n
    offset_of = {(beta + d) % n: d for d in range(cp.a)}
    out = []
    for i in range(cp.a):
        xi = (anchor - i) % n
        out.append((xi, CyclicSubset(cp.a, (offset_of[r] for r in q.labels[xi] if r in offset_of))))
    return out


def test_anchored_copy_matches_the_window_labels():
    # the copy's ids are arithmetic; the window labels, looked up among
    # Q(a,b)'s labels, are the construction they stand for
    for n, k in COPRIME_GRID:
        f = _frame(n, k)
        index = {lab: t for t, lab in enumerate(f.qab.labels)}
        for anchor in range(n):
            windows = _window_labels(f.q, f.cp, anchor)
            assert windows == _window_labels_by_residue(f.q, f.cp, anchor), (n, k, anchor)
            pairs = _anchored_copy(f, anchor)
            assert [(xi, index.get(w)) for xi, w in windows] == pairs, (n, k, anchor)
            assert len({t for _, t in pairs}) == f.cp.a, (n, k, anchor)
