"""JSON documents and DOT output: round-trips, tamper detection, stability."""

from __future__ import annotations

import contextlib
import json
import tracemalloc
from enum import IntEnum
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wellspread import cli, serialize

from wellspread import (
    FamilyParams,
    InvalidParams,
    LabeledGraph,
    NotAnEdge,
    boundary_from_document,
    boundary_to_document,
    build_circular,
    build_family,
    build_q,
    canonical_well_spread,
    circular_isomorphism,
    coloring_from_document,
    coloring_to_document,
    delete_edge,
    delete_vertex,
    dumps,
    edge_criticality,
    edge_deleted_coloring,
    edge_deleted_retraction,
    euclid_reduce,
    fraction_from_str,
    fraction_to_str,
    graph_from_document,
    graph_to_document,
    graph_to_dot,
    map_from_document,
    map_to_document,
    q_equals_schrijver_sweep,
    report_from_document,
    report_to_document,
    trace_from_document,
    trace_to_document,
    vertex_criticality,
    vertex_deleted_coloring,
    vertex_deleted_retraction,
)
from wellspread.criticality import Invariant, SweepSummary


def test_fraction_strings():
    assert fraction_to_str(Fraction(7, 2)) == "7/2"
    assert fraction_to_str(Fraction(3)) == "3/1"
    assert fraction_from_str("7/2") == Fraction(7, 2)
    assert fraction_from_str("3") == 3
    with pytest.raises(InvalidParams):
        fraction_from_str("7/0")
    with pytest.raises(InvalidParams):
        fraction_from_str("a/b")


def test_graph_documents_round_trip_every_family():
    for tag in ("kneser", "sg", "q", "circular", "interlacing"):
        fp = FamilyParams(tag, 7, 2)
        g = build_family(fp)
        doc = graph_to_document(g)
        back = graph_from_document(json.loads(dumps(doc)))
        assert back.labels == g.labels
        assert back.edges() == g.edges()


def test_graph_documents_record_deletions():
    q = build_q(7, 2)
    doc = graph_to_document(q, 3)
    assert doc["deletedVertex"] == 3
    assert graph_from_document(doc).vertex_count == 6
    doc = graph_to_document(q, (1, 0))
    assert doc["deletedEdge"] == [0, 1]
    assert graph_from_document(doc).edge_count() == q.edge_count() - 1
    doc["deletedEdge"] = [99, 0]
    with pytest.raises(InvalidParams):
        graph_from_document(doc)


def _dot_lines(h: LabeledGraph, name: str) -> list[str]:
    """The DOT lines of h, written label by label and edge by edge."""
    def text(lab):
        return str(lab) if isinstance(lab, int) else "{" + ",".join(map(str, lab.elements)) + "}"

    labels = [f'  {v} [label="{text(lab)}"];' for v, lab in enumerate(h.labels)]
    return [f"graph {name} {{", *labels, *(f"  {u} -- {v};" for u, v in h.edges()), "}"]


@pytest.mark.parametrize("tag", ["kneser", "sg", "q", "circular", "interlacing"])
def test_deleted_graph_documents_match_the_compacted_copy(tag):
    # written from the family graph and one deletion, the JSON document loads
    # back as the copy delete_vertex or delete_edge makes, and the DOT text
    # holds that copy's labels and edges; an edge reads the same either way round
    g = build_family(FamilyParams(tag, 7, 2))
    for deleted in [*range(g.vertex_count), *g.edges(), *((v, u) for u, v in g.edges())]:
        if isinstance(deleted, int):
            h, record = delete_vertex(g, deleted), {"deletedVertex": deleted}
        else:
            h, record = delete_edge(g, *deleted), {"deletedEdge": sorted(deleted)}
        doc = json.loads(dumps(graph_to_document(g, deleted)))
        assert {key: doc[key] for key in record} == record
        assert "deletedVertex" not in doc or "deletedEdge" not in doc
        back = graph_from_document(doc)
        assert (back.labels, back.adj, back.family) == (h.labels, h.adj, None), deleted
        assert graph_to_dot(g, deleted).splitlines() == _dot_lines(h, f"{tag}_7_2"), deleted


def test_graph_writers_check_the_graph_and_the_deletion_first():
    q = build_q(7, 2)
    non_edge = next((u, v) for u in range(7) for v in range(u + 1, 7) if not q.has_edge(u, v))
    for deleted, error in [(7, InvalidParams), (-1, InvalidParams), ((0, 9), InvalidParams),
                           (non_edge, NotAnEdge), ((3, 3), NotAnEdge)]:
        with pytest.raises(error):
            graph_to_document(q, deleted)
        chunks = []
        with pytest.raises(error):
            serialize.dump_dot(q, chunks.append, deleted)
        assert chunks == []
    # a compacted copy has no family, so only its parent and the deletion are written
    for h in (delete_vertex(q, 3), delete_edge(q, 0, 1)):
        with pytest.raises(InvalidParams, match="family-built"):
            graph_to_document(h)
        with pytest.raises(InvalidParams, match="family-built"):
            graph_to_dot(h)


def test_graph_documents_with_two_deletions_are_refused():
    doc = json.loads(dumps(graph_to_document(build_q(7, 2), 3)))
    graph_from_document(doc)
    doc["deletedEdge"] = [0, 1]
    with pytest.raises(InvalidParams, match="a deleted vertex and a deleted edge"):
        graph_from_document(doc)


def test_in_memory_documents_refer_to_label_and_set_tuples():
    kg = build_family(FamilyParams("kneser", 7, 3))
    doc = graph_to_document(kg)
    assert all(row is label.elements for row, label in zip(doc["vertices"], kg.labels))
    assert graph_from_document(doc).labels == kg.labels
    # Q(n,k)'s label rows are made as they are read, so they compare by value;
    # tampering works on a list copy of the rows
    q = build_q(13, 5)
    doc = graph_to_document(q)
    assert list(doc["vertices"]) == [label.elements for label in q.labels]
    assert graph_from_document(doc).labels == q.labels
    doc["vertices"] = list(doc["vertices"])
    doc["vertices"][2] = list(doc["vertices"][2])  # lists and tuples compare alike
    graph_from_document(doc)
    doc["vertices"] = tuple(doc["vertices"])
    graph_from_document(doc)
    doc = graph_to_document(q)
    doc["vertices"] = list(doc["vertices"])
    doc["vertices"][4] = q.labels[5].elements
    with pytest.raises(InvalidParams):
        graph_from_document(doc)
    doc = graph_to_document(q)
    doc["vertices"] = list(doc["vertices"])
    doc["vertices"][4] = q.labels[4].elements[:-1] + (12,)
    with pytest.raises(InvalidParams):
        graph_from_document(doc)
    doc = graph_to_document(q)
    doc["edges"] = list(doc["edges"])
    doc["edges"][1] = list(doc["edges"][1])
    graph_from_document(doc)
    doc["edges"][0] = (doc["edges"][0][0], doc["edges"][0][1] + 1)
    with pytest.raises(InvalidParams):
        graph_from_document(doc)
    fc = vertex_deleted_coloring(13, 5, 2)
    doc = coloring_to_document(fc, q.family)
    assert len(doc["sets"]) == len(fc.sets)
    assert all(row is s for row, s in zip(doc["sets"], fc.sets))
    assert coloring_from_document(doc) == fc


def test_dumps_peak_memory_is_near_the_output_size():
    # the pieces are joined once, so the peak is about the rows' text plus
    # the output itself
    g = build_q(601, 300)
    g.labels[:]  # labels are made on first read; make them before measuring
    tracemalloc.start()
    try:
        text = dumps(graph_to_document(g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text), peak / len(text)


def test_graph_document_tampering_is_caught():
    doc = graph_to_document(build_q(7, 2))
    doc["edges"] = list(doc["edges"])[:-1]
    with pytest.raises(InvalidParams):
        graph_from_document(doc)
    doc = graph_to_document(build_q(7, 2))
    doc["vertices"] = list(doc["vertices"])
    doc["vertices"][0] = [0, 2]
    with pytest.raises(InvalidParams):
        graph_from_document(doc)
    with pytest.raises(InvalidParams):
        graph_from_document({"schemaVersion": "999"})


def test_dot_output_is_byte_stable_and_complete():
    q = build_q(5, 2)
    a = graph_to_dot(q)
    assert a == graph_to_dot(build_q(5, 2))
    assert a.startswith("graph q_5_2 {\n")
    assert '0 [label="{0,2}"];' in a
    assert a.count(" -- ") == q.edge_count()
    assert a.endswith("}\n")


@pytest.mark.parametrize("n, k", [(13, 5), (29, 9), (12, 4), (30, 12), (7, 1), (401, 200)])
def test_q_dot_equals_the_dot_of_its_labels_as_a_tuple(n, k):
    # Q(n,k)'s labels are written from rotation rows without label objects;
    # the same graph with a plain tuple of labels takes the generic path
    q = build_q(n, k)
    dot = graph_to_dot(q)
    assert q.labels._missing == len(q.labels)  # no label was made
    plain = LabeledGraph(tuple(q.labels), q.adj, q.family)
    assert dot == graph_to_dot(plain)


def test_coloring_documents_round_trip_and_recheck():
    fc = edge_deleted_coloring(7, 2, (0, 1))
    fp = FamilyParams("q", 7, 2)
    doc = coloring_to_document(fc, fp)
    assert doc["value"] == "3/1"
    back = coloring_from_document(json.loads(dumps(doc)))
    assert back.sets == fc.sets and back.weights == fc.weights
    doc = coloring_to_document(fc, fp)
    doc["weights"][0] = "1/9"
    with pytest.raises(InvalidParams):
        coloring_from_document(doc)


def test_map_documents_round_trip_with_section():
    m = vertex_deleted_retraction(7, 2, 3)
    doc = map_to_document(m)
    assert doc["mapKind"] == "HOMOMORPHISM"
    assert doc["excludedVertex"] == 3
    back = map_from_document(json.loads(dumps(doc)))
    assert back.mapping == m.mapping
    assert back.section == m.section
    doc = map_to_document(m)
    doc["mapping"][0][1] = (doc["mapping"][0][1] + 1) % 7
    with pytest.raises(InvalidParams):
        map_from_document(doc)


@pytest.mark.parametrize("stray", [3, 40, -1])
def test_map_documents_with_keys_outside_the_domain_are_refused(stray):
    # the excluded vertex, a vertex past the 13-vertex source, or a negative
    # id, each mapped onto 0 in a retraction that is otherwise valid
    doc = json.loads(dumps(map_to_document(vertex_deleted_retraction(13, 5, 3))))
    map_from_document(doc)
    doc["mapping"].append([stray, 0])
    with pytest.raises(InvalidParams, match=f"vertex {stray} mapped but not in the domain"):
        map_from_document(doc)


def test_documents_with_impossible_exclusions_are_refused():
    # an excluded vertex outside the graph, an excluded pair that is no edge,
    # or both exclusions at once
    bad = [{"excludedVertex": 5000}, {"excludedEdge": [0, 9]}, {"excludedEdge": [3, 3]},
           {"excludedEdge": [0, 3]}, {"excludedVertex": 3, "excludedEdge": [0, 1]}]
    for extra in bad:
        doc = {**map_to_document(circular_isomorphism(7, 2)), **extra}
        with pytest.raises(InvalidParams):
            map_from_document(json.loads(dumps(doc)))
    fp = FamilyParams("q", 7, 2)
    for extra in bad[:3] + [{"excludedEdge": [0, 1]}]:
        doc = {**coloring_to_document(vertex_deleted_coloring(7, 2, 3), fp), **extra}
        with pytest.raises(InvalidParams):
            coloring_from_document(json.loads(dumps(doc)))


def test_certificate_documents_record_one_exclusion():
    fp = FamilyParams("q", 13, 5)

    def reread(load, doc):
        return load(json.loads(dumps(doc)))

    # each vertex and cycle-edge certificate of Q(13,5) reads back with the
    # exclusion its constructor set, the edge in the order it was held
    for p in range(13):
        e = (p, (p + 1) % 13)
        for fc, want in [(vertex_deleted_coloring(13, 5, p), p),
                         (edge_deleted_coloring(13, 5, e[::-1]), e)]:
            assert fc.excluded == want
            assert reread(coloring_from_document, coloring_to_document(fc, fp)) == fc
        for m, want in [(vertex_deleted_retraction(13, 5, p), p),
                        (edge_deleted_retraction(13, 5, e[::-1]), e)]:
            back = reread(map_from_document, map_to_document(m))
            assert m.excluded == back.excluded == want
            assert (back.mapping, back.section) == (m.mapping, m.section)
    # a null key reads as absent, so a null vertex next to an edge is that edge
    fc = edge_deleted_coloring(13, 5, (12, 0))
    m = edge_deleted_retraction(13, 5, (0, 12))
    null = {"excludedVertex": None}
    assert reread(coloring_from_document, {**coloring_to_document(fc, fp), **null}) == fc
    assert reread(map_from_document, {**map_to_document(m), **null}).excluded == (12, 0)
    # both keys set: refused by either loader
    both = {"excludedVertex": 3, "excludedEdge": [3, 4]}
    for load, doc in [(coloring_from_document, coloring_to_document(fc, fp)),
                      (map_from_document, map_to_document(m))]:
        with pytest.raises(InvalidParams, match="excluded vertex and edge"):
            reread(load, {**doc, **both})


def test_trace_documents_round_trip():
    s = canonical_well_spread(11, 4)
    trace = euclid_reduce(s)
    doc = trace_to_document(s, trace)
    back = trace_from_document(json.loads(dumps(doc)))
    assert back.terminal == trace.terminal
    assert len(back.steps) == len(trace.steps)
    doc = trace_to_document(s, trace)
    doc["steps"][0]["quotient"] = 99
    with pytest.raises(InvalidParams):
        trace_from_document(doc)


def test_report_documents_round_trip():
    rep = edge_criticality(build_q(7, 2))
    doc = report_to_document(rep)
    assert doc["reportType"] == "criticality"
    back = report_from_document(json.loads(dumps(doc)))
    assert back.summary == rep.summary
    assert back.per_edge == rep.per_edge
    rep = vertex_criticality(build_q(5, 2), Invariant.CHI_F)
    back = report_from_document(report_to_document(rep))
    assert back.per_vertex == rep.per_vertex


def test_boundary_documents_round_trip():
    rep = q_equals_schrijver_sweep(7)
    doc = boundary_to_document(rep)
    back = boundary_from_document(json.loads(dumps(doc)))
    assert back.entries == rep.entries
    assert back.all_match == rep.all_match


def _q7_reports():
    """Q(7,2)'s chi_f vertex report (VERTEX_CRITICAL) and edge report
    (EDGE_CLASSIFICATION), read back through JSON."""
    return [json.loads(dumps(report_to_document(rep)))
            for rep in (vertex_criticality(build_q(7, 2), Invariant.CHI_F),
                        edge_criticality(build_q(7, 2)))]


def test_report_loader_takes_only_the_summary_the_rows_give():
    for doc in _q7_reports():
        assert report_from_document(doc).summary.name == doc["summary"]
        for wrong in SweepSummary:
            if wrong.name != doc["summary"]:
                with pytest.raises(InvalidParams, match="disagrees with the rows"):
                    report_from_document({**doc, "summary": wrong.name})
    # one flag flipped: the drops no longer follow the flags, so the rows say MIXED
    edges = _q7_reports()[1]
    edges["perEdge"][0][2] = not edges["perEdge"][0][2]
    with pytest.raises(InvalidParams, match="disagrees with the rows"):
        report_from_document(edges)
    assert report_from_document({**edges, "summary": "MIXED"}).summary is SweepSummary.MIXED


def test_report_loader_takes_only_bool_or_null_edge_flags():
    edges = _q7_reports()[1]
    for flag in ("yes", 1, 0, 1.0):
        bad = json.loads(json.dumps(edges))
        bad["perEdge"][0][2] = flag
        bad["summary"] = "MIXED"  # so that only the flag's type can refuse it
        with pytest.raises(InvalidParams, match="malformed document"):
            report_from_document(bad)
    edges["perEdge"][0][2] = None  # no flag: the edge row is not classified
    assert report_from_document({**edges, "summary": "MIXED"}).per_edge[0][2] is None


def test_report_loader_refuses_both_row_kinds():
    vertices, edges = _q7_reports()
    with pytest.raises(InvalidParams, match="both vertex and edge rows"):
        report_from_document({**vertices, "perEdge": edges["perEdge"]})


def test_boundary_loader_checks_the_predicted_column():
    doc = json.loads(dumps(boundary_to_document(q_equals_schrijver_sweep(7))))
    assert [pr for *_, pr in doc["entries"]] == [
        k == 1 or n == 2 * k or n == 2 * k + 1 for n, k, *_ in doc["entries"]]
    for i in range(len(doc["entries"])):
        bad = json.loads(json.dumps(doc))
        bad["entries"][i][3] = not bad["entries"][i][3]
        bad["allMatch"] = False
        with pytest.raises(InvalidParams, match="against the rule"):
            boundary_from_document(bad)
    # the flags must be JSON bools, where bool() would have coerced them
    for column in (2, 3):
        for flag in ("no", 1, 0, None, 1.0):
            bad = json.loads(json.dumps(doc))
            bad["entries"][0][column] = flag
            with pytest.raises(InvalidParams, match="malformed document"):
                boundary_from_document(bad)
    for flag in ("no", 1, 0, None, 1.0):
        with pytest.raises(InvalidParams, match="malformed document"):
            boundary_from_document({**doc, "allMatch": flag})


def _malformed(to_document, **changes):
    """A document made by to_document(), read back through JSON, with each
    key of changes set to its value, or dropped where the value is None."""
    doc = json.loads(dumps(to_document()))
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


def _reduction_document():
    s = canonical_well_spread(11, 4)
    return trace_to_document(s, euclid_reduce(s))


@pytest.mark.parametrize("load,make", [
    (report_from_document,
     lambda: _malformed(lambda: report_to_document(edge_criticality(build_q(7, 2))),
                        baseline=None)),
    (trace_from_document, lambda: _malformed(_reduction_document, modulus=None)),
    (coloring_from_document,
     lambda: _malformed(lambda: coloring_to_document(vertex_deleted_coloring(7, 2, 3),
                                                     FamilyParams("q", 7, 2)), sets=[["a"]])),
    (coloring_from_document,
     lambda: _malformed(lambda: coloring_to_document(vertex_deleted_coloring(7, 2, 3),
                                                     FamilyParams("q", 7, 2)), weights=[1, 1, 1])),
    (map_from_document,
     lambda: _malformed(lambda: map_to_document(circular_isomorphism(7, 2)), mapping=[[0]])),
    (coloring_from_document,
     lambda: _malformed(lambda: coloring_to_document(edge_deleted_coloring(7, 2, (3, 4)),
                                                     FamilyParams("q", 7, 2)),
                        excludedEdge=[3, 4, 99])),
    (map_from_document,
     lambda: _malformed(lambda: map_to_document(edge_deleted_retraction(7, 2, (3, 4))),
                        excludedEdge=[3])),
    (boundary_from_document,
     lambda: _malformed(lambda: boundary_to_document(q_equals_schrijver_sweep(5)),
                        entries=[[5, 2]])),
    (graph_from_document,
     lambda: _malformed(lambda: graph_to_document(build_q(7, 2)), deletedVertex="a")),
    (map_from_document, lambda: ["not", "a", "document"]),
], ids=["report-without-baseline", "trace-without-modulus", "coloring-set-of-a-letter",
        "coloring-int-weight", "map-one-item-pair", "coloring-three-item-edge",
        "map-one-item-edge", "boundary-two-item-entry",
        "graph-letter-vertex", "map-not-a-dict"])
def test_malformed_documents_raise_invalid_params(load, make):
    with pytest.raises(InvalidParams, match="malformed document"):
        load(make())


def _changed(to_document, *path, change):
    """The document to_document() makes, read back through JSON, with the
    value at path replaced by change(value)."""
    doc = json.loads(dumps(to_document()))
    *inner, last = path
    holder = doc
    for key in inner:
        holder = holder[key]
    holder[last] = change(holder[last])
    return doc


def _q72_deleted_graph():
    return graph_to_document(build_q(7, 2), 3)


def _iso72():
    return map_to_document(circular_isomorphism(7, 2))


def _retraction72():
    return map_to_document(vertex_deleted_retraction(7, 2, 3))


@pytest.mark.parametrize("load,to_document,path,change", [
    (map_from_document, _iso72, ("mapping", 4, 1), lambda x: x + 0.9),  # the image 1
    (map_from_document, _iso72, ("mapping", 4, 1), str),
    (map_from_document, _iso72, ("mapping", 4, 1), bool),
    (map_from_document, _iso72, ("source", "n"), float),
    (map_from_document, _retraction72, ("excludedVertex",), float),
    (map_from_document, _retraction72, ("section", 1, 1), float),
    (coloring_from_document,
     lambda: coloring_to_document(vertex_deleted_coloring(7, 2, 3), FamilyParams("q", 7, 2)),
     ("sets", 0, 0), lambda x: x + 0.5),
    (coloring_from_document,
     lambda: coloring_to_document(vertex_deleted_coloring(7, 2, 0), FamilyParams("q", 7, 2)),
     ("excludedVertex",), lambda x: x + 0.7),  # the vertex 0
    (coloring_from_document,
     lambda: coloring_to_document(edge_deleted_coloring(7, 2, (0, 1)), FamilyParams("q", 7, 2)),
     ("excludedEdge", 1), float),
    (graph_from_document, _q72_deleted_graph, ("deletedVertex",), float),
    (graph_from_document, _q72_deleted_graph, ("family", "k"), float),
    # the rows are compared with the rebuilt graph's, where 0.0 == 0 and True == 1:
    # the label [0, 3] read as [0.0, 3.0], and the edge [0, 1] as [0.0, true]
    (graph_from_document, lambda: graph_to_document(build_q(7, 2)), ("vertices", 0),
     lambda row: [float(x) for x in row]),
    (graph_from_document, lambda: graph_to_document(build_q(7, 2)), ("edges", 0),
     lambda edge: [float(edge[0]), bool(edge[1])]),
    (graph_from_document, lambda: graph_to_document(build_circular(7, 2)), ("vertices", 0),
     float),
    (trace_from_document, _reduction_document, ("modulus",), float),
    (trace_from_document, _reduction_document, ("elements", 0), bool),  # the residue 0
    (report_from_document,
     lambda: report_to_document(vertex_criticality(build_q(5, 2), Invariant.CHI_F)),
     ("perVertex", 0, 0), float),
    (report_from_document, lambda: report_to_document(edge_criticality(build_q(7, 2))),
     ("perEdge", 0, 0, 1), float),
    (boundary_from_document, lambda: boundary_to_document(q_equals_schrijver_sweep(5)),
     ("entries", 0, 0), float),
], ids=["map-image-1.9", "map-image-string", "map-image-true", "map-source-n-float",
        "map-excluded-vertex-float", "map-section-float", "coloring-member-3.5",
        "coloring-excluded-vertex-0.7", "coloring-excluded-edge-float",
        "graph-deleted-vertex-float", "graph-family-k-float", "graph-label-floats",
        "graph-edge-float-true", "graph-circular-label-float", "trace-modulus-float",
        "trace-residue-false", "report-vertex-float", "report-edge-float",
        "boundary-n-float"])
def test_loaders_take_only_int_ids(load, to_document, path, change):
    # each writer's own document loads; the same document with one id, residue,
    # n or k changed to a float, a string or a bool is refused, where int()
    # would have truncated or coerced it
    load(json.loads(dumps(to_document())))
    with pytest.raises(InvalidParams, match="not an integer|bad family record"):
        load(_changed(to_document, *path, change=change))


def test_dumps_is_deterministic():
    doc = graph_to_document(build_q(5, 2))
    text = dumps(doc)
    assert text == dumps(json.loads(text))
    assert text.endswith("\n")
    assert json.loads(text)["schemaVersion"] == "1"


class _Colour(IntEnum):
    RED = 1
    BLUE = 12


# lists of int rows that an id table could misprint, each with whether every
# id's size is below the number of ids, as vertex ids are (None: not all plain
# ints).  The plain writer prints each as json does, and an `_IdRows` of them
# with any bound up to just past the number of ids either prints them so too
# or, when some id lies outside range(bound), raises
_ROW_TRAPS = [
    ([[0, 1, 2, 3], [-1, 2]], True),  # -1 reads a list's last entry
    ([[0, 1, 2, 3, 4, 5], [-6, 0]], True),  # below -bound for every bound up to 5
    ([[5], [-5], [0, 1, 2, 3]], True),  # a negative one-element row
    ([[3, 0], [1]], False),  # an id equal to the number of ids
    ([[7, 0], [1]], False),  # an id above it
    ([[2**80, 0, 1]], False),
    ([[-2**80, 0, 1], [2]], False),
    ([[True, 0, 1], [False], [1, True]], None),
    ([[_Colour.BLUE, 0], [_Colour.RED], [2, 3]], None),
    ([[12], [10], list(range(13))], True),  # one index gives the text itself
    ([[], [0, 1], [], (2,)], True),
    ([[], []], False),
]


@pytest.mark.parametrize("rows, small", _ROW_TRAPS)
def test_dumps_int_rows_match_json_on_the_table_traps(rows, small):
    for doc in (rows, tuple(rows), {"sets": rows, "v": [rows]}):
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if small is None:
        return
    ids = list(chain.from_iterable(rows))
    assert (max(map(abs, ids), default=0) < len(ids)) == small
    for bound in range(len(ids) + 2):
        doc = {"sets": serialize._IdRows(rows, bound), "v": [rows]}
        if all(0 <= x < bound for x in ids):
            assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        else:
            with pytest.raises(KeyError):
                dumps(doc)


def test_id_rows_refuse_ids_outside_their_bound():
    # an id at the bound, at -1, and at -7, which a list of 5 texts padded
    # with 5 Nones would read as "3"; one-element rows read alone
    for rows in ([[0, 5]], [[5]], [[-1, 0]], [[-1]], [[0, 1], [-7, 2]]):
        with pytest.raises(KeyError):
            dumps({"edges": serialize._IdRows(rows, 5)})
    assert dumps(serialize._IdRows([[4], [], [0, 3]], 5)) == json.dumps(
        [[4], [], [0, 3]], indent=2) + "\n"


def test_lazy_id_rows_refuse_ids_at_their_bound():
    # rows made as they are written read their texts from a tuple, which
    # refuses an id at or past the bound; no maker of theirs yields a negative id
    for rows in ([[0, 5]], [[5]], [[0, 1], [7, 2]]):
        with pytest.raises(IndexError):
            dumps({"edges": serialize._LazyIdRows(lambda rows=rows: rows, 5)})
    assert dumps(serialize._LazyIdRows(lambda: iter([[4], [], (0, 3)]), 5)) == json.dumps(
        [[4], [], [0, 3]], indent=2) + "\n"


def test_family_vertex_counts_match_the_builders():
    for tag in ("kneser", "sg", "q", "circular", "interlacing"):
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                fp = FamilyParams(tag, n, k)
                assert serialize._vertex_count(fp) == build_family(fp).vertex_count, fp
    with pytest.raises(InvalidParams):
        serialize._vertex_count(FamilyParams("petersen", 5, 2))


# one document of every kind the command line prints
CLI_DOCUMENTS = [
    "build --family q --n 13 --k 5",
    "build --family q --n 601 --k 300",
    "build --family kneser --n 6 --k 2 --delete-vertex 3",
    "build --family circular --n 9 --k 2 --delete-edge 2,0",
    "invariants --family q --n 12 --k 4",
    "criticality --family q --n 13 --k 5",
    "criticality --family q --n 11 --k 4 --edges",
    "criticality --family circular --n 11 --k 3 --edges",
    "criticality --boundary --max-n 8",
    "certify coloring --n 13 --k 5 --delete-vertex 2",
    "certify coloring --n 599 --k 150 --delete-edge 42,43",
    "certify retraction --n 13 --k 5 --delete-vertex 3",
    "certify retraction --n 13 --k 5 --delete-edge 4,5",
    "certify subgraph-qab --n 13 --k 5",
    "certify iso-circular --n 13 --k 5",
    "certify iso-scaling --n 7 --k 3 --l 2",
    "certify reduce --n 13 --k 5",
    "verify-paper --max-n 5",
]


def _recording(docs):
    """`serialize.dump`, keeping each document it writes in docs."""
    def recording(doc, write):
        docs.append(doc)
        serialize.dump(doc, write)

    return recording


@pytest.mark.parametrize("cmd", CLI_DOCUMENTS)
def test_dumps_matches_json_on_every_cli_document(cmd, monkeypatch, capsys):
    docs = []
    monkeypatch.setattr(cli, "dump", _recording(docs))
    assert cli.main(cmd.split()) == 0
    (doc,) = docs
    # json reads rows made as they are written through default=list
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True,
                                                 default=list) + "\n"


class _Writes(list):
    """A standard output that keeps each text written to it."""

    def write(self, text):
        self.append(text)


@pytest.mark.parametrize("cmd", CLI_DOCUMENTS)
def test_cli_documents_stream_the_bytes_of_dumps_row_by_row(cmd, monkeypatch):
    # with the chunk a few characters, each id row after a list's first one
    # hands the pieces held so far to write, so rows split across writes
    monkeypatch.setattr(serialize, "_CHUNK", 8)
    docs = []
    monkeypatch.setattr(cli, "dump", _recording(docs))
    with contextlib.redirect_stdout(_Writes()) as writes:
        assert cli.main(cmd.split()) == 0
    (doc,) = docs
    assert "".join(writes) == dumps(doc)
    rows = [sum(1 for _ in id_rows) for id_rows in _id_rows_in(doc)]
    assert len(writes) == 1 + sum(max(r - 1, 0) for r in rows)


@pytest.mark.parametrize("cmd", [
    "build --family q --n 13 --k 5 --format dot",
    "build --family kneser --n 6 --k 2 --delete-vertex 3 --format dot",
    "build --family circular --n 9 --k 2 --delete-edge 2,0 --format dot",
])
def test_cli_dot_streams_the_bytes_of_one_write_line_by_line(cmd, monkeypatch):
    with contextlib.redirect_stdout(_Writes()) as whole:
        assert cli.main(cmd.split()) == 0
    assert len(whole) == 1  # a small graph goes out in one write
    monkeypatch.setattr(serialize, "_CHUNK", 8)
    with contextlib.redirect_stdout(_Writes()) as writes:
        assert cli.main(cmd.split()) == 0
    (text,) = whole
    assert "".join(writes) == text
    # each label and edge line is handed over as it is written, the closing
    # brace with the rest
    assert len(writes) == text.count("\n") - 1


def test_q_document_streams_without_label_objects(monkeypatch):
    # Q(601,300)'s label rows come from `rotations` as they are written, so
    # no label is made, and the writer holds about one chunk at a time
    g = build_q(601, 300)
    monkeypatch.setattr(serialize, "_CHUNK", 1 << 16)
    sizes = []
    tracemalloc.start()
    try:
        serialize.dump(graph_to_document(g), lambda text: sizes.append(len(text)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.labels._missing == len(g.labels)
    assert len(sizes) > 20 and peak < sum(sizes) / 4, (len(sizes), peak, sum(sizes))


def _id_rows_in(o):
    """Every `_IdRows` or `_LazyIdRows` in a document tree."""
    if type(o) is serialize._IdRows or type(o) is serialize._LazyIdRows:
        yield o
    elif type(o) is dict:
        for x in o.values():
            yield from _id_rows_in(x)
    elif type(o) is list or type(o) is tuple:
        for x in o:
            yield from _id_rows_in(x)


@pytest.mark.parametrize("cmd", CLI_DOCUMENTS)
def test_cli_id_rows_hold_plain_ints_below_their_bound(cmd, monkeypatch, capsys):
    # the writer trusts an `_IdRows` to hold plain ints (True or 2.0 would
    # read the texts of 1 and 2), and only `_IdRows` are written from a table
    docs = []
    tables = []
    id_texts = serialize._id_texts

    def counted(bound):
        tables.append(bound)
        return id_texts(bound)

    monkeypatch.setattr(cli, "dump", _recording(docs))
    monkeypatch.setattr(serialize, "_id_texts", counted)
    assert cli.main(cmd.split()) == 0
    (doc,) = docs
    id_rows = list(_id_rows_in(doc))
    for rows in id_rows:
        assert type(rows.bound) is int
        for row in rows:
            assert type(row) is list or type(row) is tuple
            assert all(type(x) is int and 0 <= x < rows.bound for x in row)
    # `_LazyIdRows` read their texts from a tuple, not from `_id_texts`
    assert sorted(tables) == sorted(rows.bound for rows in id_rows
                                    if type(rows) is serialize._IdRows and rows)


_TEXT = st.text() | st.text(st.characters(max_codepoint=0x2F)) | st.sampled_from(
    ["", "\u00e9t\u00e9", "\u2603\U0001f600", "a\"b\\c", "\x00\x1f\x7f\n\t\u2028"])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
            | st.floats() | _TEXT)
_INT_LISTS = st.lists(st.integers(0, 40)) | st.lists(st.integers(-3, 3) | st.booleans())


@given(st.recursive(
    _SCALARS | _INT_LISTS | st.lists(_INT_LISTS) | st.lists(_INT_LISTS.map(tuple)),
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(_TEXT, kids) | st.dictionaries(st.integers(), kids)),
    max_leaves=25,
))
def test_dumps_matches_json_on_arbitrary_trees(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
