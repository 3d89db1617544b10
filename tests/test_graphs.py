"""Graph family constructors, deletions, and vertex-map validation."""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mk, random_graph

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
    is_r_separated,
    validate_map,
)
from wellspread import graphs
from wellspread.certificates import edge_deleted_retraction, vertex_deleted_retraction
from wellspread.cyclic import canonical_well_spread, rotations
from wellspread.graphs import (
    DEFAULT_VERTEX_CAP,
    FamilyParams,
    _disjointness_graph,
    _map_passes,
    _map_violations,
    _residue_permutation,
    _rows_less,
    _separated_labels,
    dihedral_automorphisms,
    label_rotation,
)
from wellspread.serialize import map_from_document, map_to_document


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


def test_q_circulant_matches_the_disjointness_build():
    cases = [(n, k) for n in range(2, 61) for k in range(1, n // 2 + 1)]
    for n, k in cases + [(601, 300), (599, 150), (600, 150), (602, 300)]:
        g = build_q(n, k)
        assert g == _disjointness_graph(g.labels, n, FamilyParams("q", n, k)), (n, k)


def test_rotate_matches_the_residue_definition():
    for n in range(1, 14):
        for k in range(n + 1):
            s = CyclicSubset(n, range(0, 2 * k, 2) if 2 * k <= n else range(k))
            for t in range(-n - 1, 2 * n + 2):
                want = CyclicSubset(n, ((x + t) % n for x in s.elements))
                got = s.rotate(t)
                assert got == want and hash(got) == hash(want), (n, k, t)
                assert type(got.elements) is tuple


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


def _separated_labels_by_filter(n: int, k: int) -> list[tuple[int, ...]]:
    """The reference: every k-subset of Z_n in lex order, kept when 2-separated."""
    return [c for c in combinations(range(n), k) if is_r_separated(CyclicSubset(n, c), 2)]


def test_separated_labels_equal_the_filtered_subsets():
    for n in range(2, 19):
        for k in range(1, n // 2 + 1):
            labels = [lab.elements for lab in _separated_labels(n, k, DEFAULT_VERTEX_CAP)]
            assert labels == _separated_labels_by_filter(n, k), (n, k)
            assert len(labels) == n * comb(n - k - 1, k - 1) // k, (n, k)


def test_separated_families_are_capped_on_their_vertex_count(monkeypatch):
    for build in (build_schrijver, build_interlacing):
        assert build(20, 5, vertex_cap=4004).vertex_count == 4004
        with pytest.raises(ResourceCap, match="2-separated 5-subsets of Z_20 would have 4004"):
            build(20, 5, vertex_cap=4003)
    # SG(30,10) has 277,134 vertices: refused before any subset is listed
    monkeypatch.setattr(graphs, "combinations", None)
    for build in (build_schrijver, build_interlacing):
        with pytest.raises(ResourceCap, match="277134 vertices"):
            build(30, 10)


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


def _walked_permutation(labels, residue_map):
    """The residue map's vertex permutation, by looking each label's image up
    among the labels; None when some image is no label."""
    n = labels[0].modulus
    index = {lab: i for i, lab in enumerate(labels)}
    perm = [index.get(CyclicSubset(n, (residue_map(x, n) for x in lab))) for lab in labels]
    return None if None in perm else perm


RESIDUE_MAPS = [
    lambda x, n: (x + 1) % n,  # the rotation
    lambda x, n: -x % n,  # the reflection
    lambda x, n: (3 * x + 1) % n,
    lambda x, n: 2 * x % n,
    lambda x, n: 1 - x if x < 2 else x,  # the transposition (0 1), not affine
]


def test_q_label_view_equals_the_eager_tuple():
    for n in range(2, 31):
        for k in range(1, n // 2 + 1):
            canon = canonical_well_spread(n, k)
            V = n // gcd(n, k)
            want = tuple(CyclicSubset.from_sorted(n, es)
                         for es in rotations(canon.elements, n, range(V)))
            q = build_q(n, k)
            labels = q.labels
            # single reads first, then slices, then a full iteration
            assert len(labels) == V
            assert [labels[i] for i in range(-V, V)] == list(want * 2), (n, k)
            for i in (V, -V - 1):
                with pytest.raises(IndexError):
                    labels[i]
            for sl in (slice(None), slice(1, None), slice(None, None, -1), slice(-3, V + 5, 2),
                       slice(V, 0, -2), slice(2, 1)):
                assert labels[sl] == want[sl] and type(labels[sl]) is tuple, (n, k, sl)
            assert list(labels) == list(want)
            assert all(a is b for a, b in zip(labels, labels))
            fresh = build_q(n, k).labels
            assert list(fresh) == list(want)  # iteration before any read
            assert labels == want and want == labels and not labels != want
            assert fresh == labels and hash(fresh) == hash(labels) == hash(want)
            assert labels != want[:-1] and want[1:] + want[:1] != labels
            assert labels != list(want) and build_q(n + 1, k).labels != labels
            for v in range(V):
                assert delete_vertex(build_q(n, k), v).labels == want[:v] + want[v + 1:]
            for u, v in q.edges()[:5]:
                assert delete_edge(q, u, v).labels == want
            for u in range(V):
                assert labels.rotation_of(want[u].elements) == u, (n, k, u)
            arc = CyclicSubset(n, range(k))  # a label only when k = 1 or n = 2k
            assert labels.rotation_of(arc.elements) == (want.index(arc) if arc in want else None)
            assert labels.rotation_of(want[0].elements[:-1]) is None
            # the arithmetic permutations equal the label walk, on the view
            # and on the deleted graphs that keep it
            assert label_rotation(q) == _walked_permutation(want, RESIDUE_MAPS[0])
            for m in RESIDUE_MAPS:
                walked = _walked_permutation(want, m)
                assert _residue_permutation(q, m) == walked, (n, k)
                d = delete_edge(q, *q.edges()[0])
                assert _residue_permutation(d, m) == walked, (n, k)
            # tuple labels tagged "q", in another order, take the label walk
            shuffled = want[1::2] + want[::2]
            h = LabeledGraph(shuffled, q.adj, FamilyParams("q", n, k))
            for m in RESIDUE_MAPS:
                assert _residue_permutation(h, m) == _walked_permutation(shuffled, m), (n, k)


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


def is_interlacing_edge(x: CyclicSubset, y: CyclicSubset) -> bool:
    """True when x and y are disjoint, equal-sized, and alternate around Z_n:
    the pairwise oracle for the gap build of `build_interlacing`."""
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


def test_interlacing_contains_q_and_matches_predicate():
    for n, k in [(7, 2), (9, 2), (10, 3)]:
        ig = build_interlacing(n, k)
        q = build_q(n, k)
        idx = {lbl.elements: i for i, lbl in enumerate(ig.labels)}
        for u, v in q.edges():
            assert ig.has_edge(idx[q.labels[u].elements], idx[q.labels[v].elements])
    # the gap build against the pairwise oracle, on every valid (n,k) with n <= 12
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            ig = build_interlacing(n, k)
            assert ig.labels == build_schrijver(n, k).labels, (n, k)
            assert ig.family == FamilyParams("interlacing", n, k)
            for u in range(ig.vertex_count):
                assert not ig.has_edge(u, u)
                for v in range(u + 1, ig.vertex_count):
                    want = is_interlacing_edge(ig.labels[u], ig.labels[v])
                    assert ig.has_edge(u, v) == ig.has_edge(v, u) == want, (n, k, u, v)


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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 12), st.randoms(use_true_random=False))
def test_rows_less_clears_exactly_the_exclusion(V, rng):
    # bit w of row u survives exactly when {u, w} is an edge of g that the
    # exclusion does not remove, built pair by pair; with nothing excluded
    # the rows are g's own tuple
    g = random_graph(rng, V)
    assert _rows_less(g, None) is g.adj

    def literal(gone):
        return tuple(sum(1 << w for w in range(V) if g.has_edge(u, w) and not gone(u, w))
                     for u in range(V))

    for x in range(V):
        assert tuple(_rows_less(g, x)) == literal(lambda u, w: x in (u, w))
    for a, b in g.edges():
        for e in [(a, b), (b, a)]:
            assert tuple(_rows_less(g, e)) == literal(lambda u, w: {u, w} == {a, b})


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
                                  excluded=(1, 0))) == []
    assert validate_map(VertexMap(c5, k3, {0: 0, 2: 1, 3: 0, 4: 1}, MapKind.HOMOMORPHISM,
                                  excluded=1)) == []
    into_k5 = VertexMap(c5, build_circular(5, 1), {v: v for v in range(5)}, MapKind.EMBEDDING)
    assert validate_map(into_k5) == [
        "non-edge {0,2} maps to edge",
        "non-edge {0,3} maps to edge",
        "non-edge {1,3} maps to edge",
        "non-edge {1,4} maps to edge",
        "non-edge {2,4} maps to edge",
    ]
    minus_edge = VertexMap(c5, c5, {v: v for v in range(5)}, MapKind.ISOMORPHISM,
                           excluded=(0, 1))
    assert validate_map(minus_edge) == ["non-edge {0,1} maps to edge"]
    # folding an edgeless graph keeps every edge count equal; only the
    # injectivity test rejects it
    edgeless = mk(3, [])
    folded = VertexMap(edgeless, edgeless, {0: 1, 1: 1, 2: 2}, MapKind.EMBEDDING)
    assert validate_map(folded) == ["mapping not injective"]


def test_validate_map_reports_impossible_exclusions():
    c5 = build_q(5, 2)
    k3 = build_circular(3, 1)
    hom = {0: 0, 1: 1, 2: 0, 3: 1, 4: 2}
    cases = [
        (5, ["excluded vertex 5 out of range 0..4"]),
        (-1, ["excluded vertex -1 out of range 0..4"]),
        ((0, 2), ["excluded edge {0,2} is not an edge"]),
        ((3, 3), ["excluded edge {3,3} is not an edge"]),
        ((0, 9), ["excluded edge {0,9} is not an edge"]),
    ]
    for excluded, want in cases:
        assert validate_map(VertexMap(c5, k3, hom, MapKind.HOMOMORPHISM, excluded)) == want
    # a map holds one exclusion; a document that records two is refused
    doc = {**map_to_document(vertex_deleted_retraction(13, 5, 3)), "excludedEdge": [4, 5]}
    with pytest.raises(InvalidParams, match="excluded vertex and edge"):
        map_from_document(doc)


def test_map_keys_outside_the_domain_are_violations():
    # a retraction of Q(13,5) less vertex 3 with the excluded vertex, a vertex
    # past the source or a negative id mapped too; each such key is named
    m = vertex_deleted_retraction(13, 5, 3)
    assert validate_map(m) == []
    for stray in (3, 40, -1):
        bad = replace(m, mapping={**m.mapping, stray: 0})
        assert not _map_passes(bad)
        assert validate_map(bad) == [f"vertex {stray} mapped but not in the domain"]
    bad = replace(m, mapping={40: 0, 3: 1, **m.mapping, -1: 2})
    assert validate_map(bad) == [f"vertex {u} mapped but not in the domain" for u in (-1, 3, 40)]


def _random_valid_map(kind: MapKind, rng: random.Random) -> VertexMap:
    """A map of the given kind that holds by construction: the source edges
    among the domain are (for a homomorphism, some of) the pairs whose images
    are adjacent, with an optional excluded vertex, an optional excluded edge
    whose images are not adjacent, and a section when the map is onto."""
    n = rng.randint(1, 24)
    exclusion = rng.choice(["none", "vertex", "edge"])
    ev = rng.randrange(n) if exclusion == "vertex" else None
    domain = [u for u in range(n) if u != ev]
    if kind is MapKind.HOMOMORPHISM:
        tgt = random_graph(rng, rng.randint(1, 12))
        images = [rng.randrange(tgt.vertex_count) for _ in domain]
    else:
        size = len(domain) + (rng.randint(0, 6) if kind is MapKind.EMBEDDING else 0)
        tgt = random_graph(rng, size)
        images = rng.sample(range(size), len(domain))
    f = dict(zip(domain, images))
    p = rng.random()
    edges = [(u, v) for u, v in combinations(domain, 2)
             if tgt.has_edge(f[u], f[v]) and (kind is not MapKind.HOMOMORPHISM or rng.random() < p)]
    if ev is not None:
        edges += [(ev, u) for u in domain if rng.random() < p]
    ee = None
    if exclusion == "edge":
        free = [(u, v) for u, v in combinations(domain, 2) if not tgt.has_edge(f[u], f[v])]
        if free:
            ee = rng.choice(free)
            edges.append(ee)
            if rng.random() < 0.5:
                ee = ee[::-1]
    section = None
    if set(images) == set(range(tgt.vertex_count)) and rng.random() < 0.7:
        section = {t: u for u, t in f.items() if u != ev}
    return VertexMap(mk(n, edges), tgt, f, kind, ev if ee is None else ee, section=section)


def _tamperings(m: VertexMap, rng: random.Random) -> list[VertexMap]:
    """m with one defect each, any of which may happen to be harmless."""
    sv, tv = m.source.vertex_count, m.target.vertex_count
    ev = m.excluded if isinstance(m.excluded, int) else None
    domain = [u for u in range(sv) if u != ev]
    out = []
    if domain:
        u = rng.choice(domain)
        out.append(replace(m, mapping={**m.mapping, u: rng.randrange(-1, tv + 1)}))
        out.append(replace(m, mapping={w: t for w, t in m.mapping.items() if w != u}))
        if len(domain) > 1:
            w = rng.choice([x for x in domain if x != u])
            out.append(replace(m, mapping={**m.mapping, u: m.mapping[w]}))  # not injective
    # a key outside the domain: the excluded vertex, or no source vertex at all
    stray = rng.choice([v for v in (ev, -1, sv) if v is not None])
    out.append(replace(m, mapping={**m.mapping, stray: rng.randrange(-1, tv + 1)}))
    pairs = [(m.mapping[u], m.mapping[w]) for u, w in combinations(domain, 2)
             if m.mapping[u] != m.mapping[w] and not m.target.has_edge(m.mapping[u], m.mapping[w])]
    if pairs:  # one more target edge on the image
        extra = rng.choice(pairs)
        adj = list(m.target.adj)
        adj[extra[0]] |= 1 << extra[1]
        adj[extra[1]] |= 1 << extra[0]
        out.append(replace(m, target=LabeledGraph(m.target.labels, tuple(adj))))
    if m.section:
        t = rng.randrange(tv)
        broken = dict(m.section)
        if rng.random() < 0.5:
            del broken[t]
        else:
            broken[t] = rng.randrange(sv)
        out.append(replace(m, section=broken))
    u = rng.randrange(-1, sv + 1)
    out.append(replace(m, excluded=rng.choice([None, u])))
    out.append(replace(m, excluded=rng.choice([(u, u), (u, rng.randrange(-1, sv + 2))])))
    out.append(replace(m, excluded=rng.randrange(sv)))
    return out


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(list(MapKind)), st.randoms(use_true_random=False))
def test_quick_pass_agrees_with_the_edge_walk(kind, rng):
    # the whole-row pass must accept exactly the maps in which the pair walk
    # finds no fault, and every rejection is the walk's list, message for message
    m = _random_valid_map(kind, rng)
    assert validate_map(m) == _map_violations(m) == [], m
    for variant in _tamperings(m, rng):
        assert validate_map(variant) == _map_violations(variant), variant


def test_quick_pass_takes_both_row_paths():
    # dense rows of 40 vertices go through `compress`, sparse ones are walked
    # bit by bit; both must reject a moved image
    rng = random.Random(5)
    for p in (0.05, 0.9):
        g = random_graph(rng, 40, p)
        perm = list(range(40))
        rng.shuffle(perm)
        adj = [0] * 40
        for u, v in g.edges():
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        h = LabeledGraph(tuple(range(40)), tuple(adj))
        iso = VertexMap(g, h, dict(enumerate(perm)), MapKind.ISOMORPHISM)
        assert validate_map(iso) == []
        u = max(range(40), key=g.degree)
        moved = replace(iso, mapping={**iso.mapping, u: perm[(u + 1) % 40]})
        assert validate_map(moved) == _map_violations(moved) != []


def _runs(m: VertexMap) -> int:
    """The number of maximal id intervals of m's source whose images step by +1."""
    img = [m.mapping.get(u) for u in range(m.source.vertex_count)]
    return 1 + sum(1 for a, b in zip(img, img[1:]) if a is None or b != a + 1)


def _windowed_map(kind: MapKind, rng: random.Random) -> VertexMap:
    """A valid map whose images are a few windows of consecutive target ids,
    each wrapping at the target size, so that the quick pass reads it by
    runs.  A homomorphism has one or two windows, which may overlap and wrap
    twice; an embedding or isomorphism takes one to three pieces of one
    rotation of the target ids, shuffled.  An excluded vertex lies inside a
    run (its two neighbours' images differ by 2), and an injective map gives
    its image to one more vertex at the end.  Edges, an excluded edge and a
    section are drawn as in `_random_valid_map`."""
    if kind is MapKind.HOMOMORPHISM:
        size, tv = rng.randint(90, 110), rng.randint(55, 90)
        cuts = sorted(rng.sample(range(1, size), rng.randint(0, 1)))
        images = []
        for s, e in zip([0, *cuts], [*cuts, size]):
            t0 = rng.randrange(tv)
            images += [(t0 + i) % tv for i in range(e - s)]
    else:
        tv = rng.randint(80, 100)
        t0 = rng.randrange(tv)
        cuts = sorted(rng.sample(range(1, tv), rng.randint(0, 2)))
        pieces = [range(t0 + s, t0 + e) for s, e in zip([0, *cuts], [*cuts, tv])]
        rng.shuffle(pieces)
        images = [t % tv for piece in pieces for t in piece]
        if kind is MapKind.EMBEDDING:
            images = images[:rng.randint(80, tv)]
    tgt = random_graph(rng, tv, rng.uniform(0.02, 0.3))
    inner = [i for i in range(1, len(images) - 1)
             if images[i - 1] + 1 == images[i] == images[i + 1] - 1]
    ev = rng.choice(inner) if inner and rng.random() < 0.4 else None
    if ev is not None and kind is not MapKind.HOMOMORPHISM:
        images.append(images[ev])
    f = {u: t for u, t in enumerate(images) if u != ev}
    domain = sorted(f)
    p = rng.random()
    edges = [(u, v) for u, v in combinations(domain, 2)
             if tgt.has_edge(f[u], f[v]) and (kind is not MapKind.HOMOMORPHISM or rng.random() < p)]
    if ev is not None:
        edges += [(ev, u) for u in domain if rng.random() < p]
    ee = None
    if ev is None and rng.random() < 0.5:
        free = [(u, v) for u, v in combinations(domain, 2) if not tgt.has_edge(f[u], f[v])]
        ee = rng.choice(free)
        edges.append(ee)
        if rng.random() < 0.5:
            ee = ee[::-1]
    section = None
    if {f[u] for u in domain} == set(range(tv)) and rng.random() < 0.7:
        section = {f[u]: u for u in domain}
    return VertexMap(mk(len(images), edges), tgt, f, kind, ev if ee is None else ee,
                     section=section)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(list(MapKind)), st.integers(0, 2**32))
def test_quick_pass_by_runs_agrees_with_the_edge_walk(kind, seed):
    # maps made of a few shifted windows take the run path; every defect,
    # including one image moved inside a run or set to the target size, gets
    # the walk's list, message for message.  The maps draw thousands of
    # edges, so hypothesis draws a seed rather than each choice
    rng = random.Random(seed)
    m = _windowed_map(kind, rng)
    assert 8 * _runs(m) < m.source.vertex_count, m
    assert _map_passes(m) and validate_map(m) == _map_violations(m) == [], m
    ev = m.excluded if isinstance(m.excluded, int) else None
    u = rng.choice([w for w in range(1, m.source.vertex_count)
                    if ev not in (w - 1, w) and m.mapping[w] == m.mapping[w - 1] + 1])
    tv = m.target.vertex_count
    variants = [replace(m, mapping={**m.mapping, u: t}) for t in (m.mapping[u] - 1, m.mapping[u] + 1, tv)]
    for variant in variants + _tamperings(m, rng):
        bad = _map_violations(variant)
        assert _map_passes(variant) == (not bad) and validate_map(variant) == bad, variant


def test_quick_pass_by_runs_on_a_large_retraction():
    # the Q(599,150) - {71,72} retraction folds 599 positions onto Q(a,b) in
    # three runs; one image moved in the middle of a run is rejected with the
    # walk's messages, the section's last
    m = edge_deleted_retraction(599, 150, (71, 72))
    assert _runs(m) == 3 and _map_passes(m) and validate_map(m) == []
    u = 300
    assert m.mapping[u - 1] + 1 == m.mapping[u] == m.mapping[u + 1] - 1
    moved = replace(m, mapping={**m.mapping, u: m.mapping[u] + 1})
    bad = validate_map(moved)
    assert bad == _map_violations(moved) != []
    assert bad[-1] == f"section vertex {u} not fixed onto {m.mapping[u]}"


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
