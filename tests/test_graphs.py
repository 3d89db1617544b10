"""Graph family constructors, deletions, and vertex-map validation."""

from __future__ import annotations

from math import comb, gcd

import pytest

from wellspread import (
    CyclicSubset,
    InvalidParams,
    LabeledGraph,
    MapKind,
    NotAnEdge,
    ResourceCap,
    VertexMap,
    build_circular,
    build_interlacing,
    build_kneser,
    build_q,
    build_schrijver,
    delete_edge,
    delete_vertex,
    is_cycle_edge,
    is_interlacing_edge,
    validate_map,
)
from wellspread.graphs import dihedral_automorphisms, label_rotation


def test_kneser_petersen_shape():
    g = build_kneser(5, 2)
    assert g.vertex_count == 10
    assert all(g.degree(v) == 3 for v in range(10))
    assert g.edge_count() == 15
    # adjacency is exactly disjointness
    for u in range(10):
        for v in range(u + 1, 10):
            disjoint = not set(g.labels[u].elements) & set(g.labels[v].elements)
            assert g.has_edge(u, v) == disjoint


def _disjointness_adjacency(g):
    sets = [frozenset(lbl.elements) for lbl in g.labels]
    return tuple(
        sum(1 << j for j in range(len(sets)) if j != i and not sets[i] & sets[j])
        for i in range(len(sets))
    )


def test_set_families_match_pairwise_disjointness():
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            for builder in (build_kneser, build_schrijver, build_q):
                g = builder(n, k)
                assert g.adj == _disjointness_adjacency(g), (builder.__name__, n, k)


def test_circular_matches_pairwise_distance():
    for n in range(2, 41):
        for k in range(1, n // 2 + 1):
            g = build_circular(n, k)
            want = tuple(
                sum(1 << j for j in range(n) if k <= abs(i - j) <= n - k) for i in range(n)
            )
            assert g.adj == want, (n, k)


def test_kneser_vertex_counts():
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            assert build_kneser(n, k).vertex_count == comb(n, k)


def test_schrijver_is_induced_on_separated_sets():
    g = build_schrijver(7, 2)
    assert g.vertex_count == 14
    kg = build_kneser(7, 2)
    idx = {lbl.elements: i for i, lbl in enumerate(kg.labels)}
    for u, v in g.edges():
        assert kg.has_edge(idx[g.labels[u].elements], idx[g.labels[v].elements])
    # 2-separated count: (n/(n-k)) * C(n-k, k)
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            expect = n * comb(n - k - 1, k - 1) // k
            assert build_schrijver(n, k).vertex_count == expect


def test_q_vertices_are_rotations_in_natural_order():
    q = build_q(13, 5)
    assert q.vertex_count == 13
    assert q.labels[0].elements == (0, 2, 5, 7, 10)
    for v in range(13):
        assert q.labels[v] == q.labels[0].rotate(v)
    # non-coprime pair collapses to n/gcd rotations
    assert build_q(6, 2).vertex_count == 3
    assert build_q(12, 4).vertex_count == 3
    assert build_q(10, 4).vertex_count == 5


def test_q_degree_and_cycle_edges():
    for n, k in [(5, 2), (7, 2), (7, 3), (11, 3), (13, 5)]:
        q = build_q(n, k)
        assert all(q.degree(v) == n - 2 * k + 1 for v in range(n))
        for v in range(n):
            assert q.has_edge(v, (v + 1) % n)
            assert is_cycle_edge(q, v, (v + 1) % n)
        ncyc = sum(1 for u, v in q.edges() if is_cycle_edge(q, u, v))
        assert ncyc == n
    with pytest.raises(NotAnEdge):
        is_cycle_edge(build_q(7, 2), 0, 3)


def test_circular_complete_shape():
    g = build_circular(7, 2)
    assert g.vertex_count == 7
    assert g.labels == tuple(range(7))
    for i in range(7):
        for j in range(i + 1, 7):
            d = min(j - i, 7 - (j - i))
            assert g.has_edge(i, j) == (d >= 2)
    # integer case degenerates to a complete graph
    k5 = build_circular(5, 1)
    assert k5.edge_count() == 10


def test_interlacing_contains_q_and_matches_predicate():
    for n, k in [(7, 2), (9, 2), (10, 3)]:
        ig = build_interlacing(n, k)
        q = build_q(n, k)
        idx = {lbl.elements: i for i, lbl in enumerate(ig.labels)}
        for u, v in q.edges():
            assert ig.has_edge(idx[q.labels[u].elements], idx[q.labels[v].elements])
        for u in range(ig.vertex_count):
            for v in range(u + 1, ig.vertex_count):
                assert ig.has_edge(u, v) == is_interlacing_edge(ig.labels[u], ig.labels[v])


def test_interlacing_edge_predicate_examples():
    a = CyclicSubset(7, [0, 3])
    assert is_interlacing_edge(a, CyclicSubset(7, [1, 4]))
    assert not is_interlacing_edge(a, CyclicSubset(7, [1, 2]))
    assert not is_interlacing_edge(a, a)


def test_family_params_recorded():
    assert build_kneser(5, 2).family.tag == "kneser"
    assert build_schrijver(5, 2).family.tag == "sg"
    assert build_q(5, 2).family.tag == "q"
    assert build_circular(5, 2).family.tag == "circular"
    assert build_interlacing(5, 2).family.tag == "interlacing"


def test_invalid_params_rejected():
    for builder in (build_kneser, build_schrijver, build_q, build_circular, build_interlacing):
        with pytest.raises(InvalidParams):
            builder(3, 2)
        with pytest.raises(InvalidParams):
            builder(5, 0)


def test_vertex_cap_enforced():
    with pytest.raises(ResourceCap):
        build_kneser(30, 10)
    with pytest.raises(ResourceCap):
        build_q(11, 3, vertex_cap=10)
    assert build_q(11, 3, vertex_cap=11).vertex_count == 11


def test_delete_vertex_relabels_consistently():
    q = build_q(7, 2)
    h = delete_vertex(q, 3)
    assert h.vertex_count == 6
    assert q.labels[3] not in h.labels
    idx = {lbl: i for i, lbl in enumerate(q.labels)}
    for u, v in h.edges():
        assert q.has_edge(idx[h.labels[u]], idx[h.labels[v]])
    assert h.edge_count() == q.edge_count() - q.degree(3)
    with pytest.raises(InvalidParams):
        delete_vertex(q, 7)


def test_delete_vertex_is_the_induced_subgraph():
    for g in (build_q(7, 2), build_kneser(6, 2), build_circular(9, 2)):
        V = g.vertex_count
        for v in range(V):
            h = delete_vertex(g, v)
            keep = [u for u in range(V) if u != v]
            assert h.labels == tuple(g.labels[u] for u in keep)
            assert h.adj == tuple(
                sum(1 << j for j, w in enumerate(keep) if g.has_edge(u, w)) for u in keep
            )
            assert h.family is None


def test_delete_edge_removes_exactly_one_pair():
    q = build_q(7, 2)
    h = delete_edge(q, 0, 1)
    assert h.vertex_count == 7
    assert not h.has_edge(0, 1)
    assert h.edge_count() == q.edge_count() - 1
    with pytest.raises(NotAnEdge):
        delete_edge(q, 0, 3)
    with pytest.raises(NotAnEdge):
        delete_edge(q, 0, 0)


def test_validate_map_flags_violations():
    c5 = build_q(5, 2)
    k3 = build_circular(3, 1)
    hom = VertexMap(c5, k3, {0: 0, 1: 1, 2: 0, 3: 1, 4: 2}, MapKind.HOMOMORPHISM)
    assert validate_map(hom) == []
    bad = VertexMap(c5, k3, {0: 0, 1: 0, 2: 1, 3: 0, 4: 1}, MapKind.HOMOMORPHISM)
    assert any("edge" in msg for msg in validate_map(bad))
    partial = VertexMap(c5, k3, {0: 0, 1: 1}, MapKind.HOMOMORPHISM)
    assert validate_map(partial)
    not_injective = VertexMap(c5, c5, {v: 0 for v in range(5)}, MapKind.EMBEDDING)
    assert validate_map(not_injective)
    iso = VertexMap(c5, c5, {v: (v + 1) % 5 for v in range(5)}, MapKind.ISOMORPHISM)
    assert validate_map(iso) == []
    not_onto = VertexMap(c5, build_circular(7, 2), {v: v for v in range(5)}, MapKind.ISOMORPHISM)
    assert validate_map(not_onto)
    # exact messages, in (u, v) order; exclusions are skipped
    assert validate_map(bad) == ["edge {0,1} maps to non-edge {0,0}"]
    assert validate_map(VertexMap(c5, k3, bad.mapping, MapKind.HOMOMORPHISM,
                                  excluded_edge=(1, 0))) == []
    assert validate_map(VertexMap(c5, k3, {0: 0, 2: 1, 3: 0, 4: 1}, MapKind.HOMOMORPHISM,
                                  excluded_vertex=1)) == []
    into_k5 = VertexMap(c5, build_circular(5, 1), {v: v for v in range(5)}, MapKind.EMBEDDING)
    assert validate_map(into_k5) == [
        "non-edge {0,2} maps to edge",
        "non-edge {0,3} maps to edge",
        "non-edge {1,3} maps to edge",
        "non-edge {1,4} maps to edge",
        "non-edge {2,4} maps to edge",
    ]
    minus_edge = VertexMap(c5, c5, {v: v for v in range(5)}, MapKind.ISOMORPHISM,
                           excluded_edge=(0, 1))
    assert validate_map(minus_edge) == ["non-edge {0,1} maps to edge"]


def test_label_rotation_follows_the_labels():
    q = build_q(7, 2)  # base-cycle order: vertex u + 1 is vertex u rotated
    assert label_rotation(q) == [1, 2, 3, 4, 5, 6, 0]
    assert label_rotation(build_circular(5, 2)) == [1, 2, 3, 4, 0]
    kg = build_kneser(5, 2)
    rot = label_rotation(kg)
    assert all(kg.labels[rot[v]] == kg.labels[v].rotate(1) for v in range(10))
    # a missing label, or labels that are not subsets of Z_n, give no rotation
    assert label_rotation(delete_vertex(q, 3)) is None
    assert label_rotation(delete_vertex(build_circular(5, 2), 0)) is None
    assert label_rotation(build_interlacing(7, 2)) is not None
    c5 = build_circular(5, 2)
    assert label_rotation(LabeledGraph(c5.labels, c5.adj)) is None  # no family tag


def test_dihedral_automorphisms_are_certified():
    for g in (build_q(11, 4), build_circular(9, 2), build_kneser(6, 2),
              build_schrijver(8, 3), build_interlacing(8, 3)):
        gens = dihedral_automorphisms(g)
        assert len(gens) == 2
        for perm in gens:
            m = VertexMap(g, g, dict(enumerate(perm)), MapKind.ISOMORPHISM)
            assert validate_map(m) == []
    # after an edge deletion the labels still rotate, but the rotation no
    # longer preserves adjacency; the reflection survives only when it fixes
    # the deleted edge
    q = build_q(7, 2)
    assert dihedral_automorphisms(delete_edge(q, 0, 1)) == []
    assert dihedral_automorphisms(delete_edge(q, 1, 3)) == [[4, 3, 2, 1, 0, 6, 5]]
    assert dihedral_automorphisms(delete_vertex(q, 0)) == []
