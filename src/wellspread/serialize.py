"""JSON and DOT document formats.

Graphs round-trip losslessly: a graph document names its family and at most
one deletion; the loader refuses it if its vertex or edge lists differ from
the writer's for the rebuilt graph.  Certificates self-validate
on load through the same checkers used at construction time.  Rationals
travel as "p/q" strings, never floats.  Every loader raises InvalidParams on a
malformed document: a missing key, or a value of the wrong type or shape.
Ids, residues, n and k must be JSON ints, a boundary entry's flags and
`allMatch` JSON bools, and a sweep report's edge flags JSON bools or null;
anything else is refused, not truncated or coerced.  A sweep report's
summary and a boundary entry's prediction are derived from the rows and from
(n, k), so a document that claims other values is refused.

`dump(doc, write)` writes exactly the bytes of `json.dumps(doc, indent=2,
sort_keys=True)` plus a newline through write, without going through json's
pure-Python indenting encoder, and `dumps(doc)` is that writer joined into
one string.  A small recursive writer appends the document's pieces to one
list, so no subtree is copied into its parent's text.  It handles dicts with
string keys, lists, tuples, strings (through json's own
`encode_basestring_ascii`), ints, bools and None; a flat list of ints is one
piece.  The package's own rows of ids (subset labels, edges, colour classes,
map pairs) travel as `_IdRows`, a list that carries the bound its ids lie
below, or as `_LazyIdRows`, which make their rows afresh each time they are
read: edge rows come from adjacency rows less a deletion, and Q(n,k)'s label
rows from `cyclic.rotations` as they are written, so no label object is made
and no row is kept.  Id rows are written one piece per row, each row's ints
read by one `itemgetter` from one table of texts, with no pass over the ints
beforehand.  For `_IdRows` that table is `_id_texts(bound)`, keyed by the
ids in range(bound), so any other int raises KeyError instead of being
misprinted; `_LazyIdRows` hold no negative id, so theirs is a tuple, where
an id at or past bound raises IndexError.  Every other list is
written by the recursive writer.  Anything else (floats, other subclasses,
non-string keys) is handed to `json.dumps` and re-indented.

Output goes out in chunks: once the id rows appended since the last write
hold `_CHUNK` characters (about 1 MB), the id-row writer hands the list,
joined, to write and empties it, checking once per row.  `dump_dot` writes
its label and edge lines the same way, and `graph_to_dot` joins them.  A
document under `_CHUNK` characters goes out in one write.  Since the bytes
reach write before the document is finished, callers make every check that
can fail (bad input, a resource cap, a failed validation) before the first
write: the command line builds and validates each object first, and the
document of a failing request is never begun.
Documents refer to the label and colour-class tuples they are built from
instead of copying them, so loaders compare rows as tuples, whether a
document holds lists, tuples or rows made as they are read.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import partial, wraps
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from math import comb, gcd
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional

from .criticality import BoundaryEntry, BoundaryReport, CriticalityReport, Invariant, SweepSummary
from .cyclic import CanonicalRotations, CyclicSubset, ReductionTrace, euclid_reduce, rotations
from .errors import InvalidParams
from .fractional import FractionalColoring, verify_fractional_coloring
from .graphs import (
    FamilyParams,
    LabeledGraph,
    MapKind,
    VertexMap,
    _deleted_rows,
    _row_edges,
    build_circular,
    build_interlacing,
    build_kneser,
    build_q,
    build_schrijver,
    delete_edge,
    delete_vertex,
    validate_map,
)

SCHEMA_VERSION = "1"

# characters the writers hold before handing them to `write`, so a document
# under this size goes out in one write
_CHUNK = 1 << 20

_BUILDERS = {
    "kneser": build_kneser,
    "sg": build_schrijver,
    "q": build_q,
    "circular": build_circular,
    "interlacing": build_interlacing,
}


def fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def fraction_from_str(s: str) -> Fraction:
    try:
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParams(f"bad rational literal {s!r}") from exc


class _IdRows(list):
    """Rows of plain ints in range(bound), such as vertex ids or the residues
    of subset labels, that `dump` writes from one table of id texts.  Only
    plain ints belong in them: True or 2.0 would read the texts of 1 and 2."""

    __slots__ = ("bound",)

    def __init__(self, rows, bound: int):
        super().__init__(rows)
        self.bound = bound

    def texts(self) -> dict[int, str]:
        """The table the rows' ids are read from: `_id_texts(bound)`."""
        return _id_texts(self.bound)


class _LazyIdRows:
    """Id rows like `_IdRows`, but made afresh by make() each time they are
    read, so that they are made as they are written and never held: a
    graph's edge rows, which are bit positions of its adjacency rows, and
    Q(n,k)'s label rows, which `rotations` reads from a table of residues.
    No id of theirs is negative, so their texts are read from a tuple, which
    costs less than a dict lookup and still raises IndexError on an id at or
    past bound."""

    __slots__ = ("make", "bound")

    def __init__(self, make: Callable[[], Iterable], bound: int):
        self.make, self.bound = make, bound

    def __iter__(self):
        return iter(self.make())

    def texts(self) -> tuple[str, ...]:
        """The table the rows' ids are read from: the text of each id in
        range(bound), by position."""
        return tuple(map(str, range(self.bound)))


def _id_texts(bound: int) -> dict[int, str]:
    """The text of each id in range(bound), keyed by the id: any other int
    raises KeyError, where a list would read a negative id from its end."""
    return dict(enumerate(map(str, range(bound))))


def _row_texts(row, table: dict[int, str] | tuple[str, ...]):
    """The texts of a row's ids, read from table by one `itemgetter`."""
    if len(row) > 1:
        return itemgetter(*row)(table)
    # itemgetter of one index gives the text itself, not a tuple
    return (table[row[0]],) if row else ()


def _same_rows(got, want: list) -> bool:
    """got, a document's list of labels or rows, equals want, whose rows are
    tuples; list and tuple rows compare alike, since they print alike.  Each
    id is read by `_int`, so a float or a bool equal to it is refused."""
    if type(got) not in (list, tuple, _IdRows, _LazyIdRows):
        return False
    return [tuple(map(_int, x)) if type(x) is list or type(x) is tuple else _int(x)
            for x in got] == want


def _loader(load):
    """load, with the KeyError, TypeError, ValueError, AttributeError or
    IndexError of a malformed document raised as InvalidParams."""
    @wraps(load)
    def checked(doc):
        try:
            return load(doc)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
            raise InvalidParams(f"malformed document: {exc!r}") from exc

    return checked


def _int(x) -> int:
    """x, a document's id, residue, n or k, which must be a JSON int: a
    float, a string or a bool raises TypeError, which the loaders report
    as a malformed document, rather than being truncated or coerced."""
    if type(x) is not int:
        raise TypeError(f"not an integer: {x!r}")
    return x


def _bool(x) -> bool:
    """x, a document's flag, which must be a JSON bool: anything else raises
    TypeError, which the loaders report as a malformed document, rather than
    being read through bool()."""
    if type(x) is not bool:
        raise TypeError(f"not a JSON bool: {x!r}")
    return x


def _family_json(fp: FamilyParams) -> dict:
    return {"tag": fp.tag, "n": fp.n, "k": fp.k}


def _vertex_count(fp: FamilyParams) -> int:
    """The number of vertices of the family's graph, without building it."""
    n, k = fp.n, fp.k
    if fp.tag == "q":
        return n // gcd(n, k)
    if fp.tag == "circular":
        return n
    if fp.tag == "kneser":
        return comb(n, k)
    if fp.tag in ("sg", "interlacing"):
        # the k-subsets of Z_n with no two members cyclically adjacent
        return n * comb(n - k - 1, k - 1) // k
    raise InvalidParams(f"unknown family tag {fp.tag!r}")


def _family_from_json(d: dict) -> FamilyParams:
    try:
        return FamilyParams(str(d["tag"]), _int(d["n"]), _int(d["k"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParams(f"bad family record {d!r}") from exc


def build_family(fp: FamilyParams, vertex_cap: Optional[int] = None) -> LabeledGraph:
    builder = _BUILDERS.get(fp.tag)
    if builder is None:
        raise InvalidParams(f"unknown family tag {fp.tag!r}")
    if vertex_cap is None:
        return builder(fp.n, fp.k)
    return builder(fp.n, fp.k, vertex_cap=vertex_cap)


def graph_to_document(g: LabeledGraph, deleted: int | tuple[int, int] | None = None) -> dict:
    """Graph document of g, a family-built graph, less deleted (None, a
    vertex id or an edge pair, checked first): g's family, the deletion, and
    the labels and sorted edges of the graph `delete_vertex` or `delete_edge`
    makes.  Its edge rows, and Q(n,k)'s label rows, are made from g as read."""
    if g.family is None:
        raise InvalidParams("graph documents need a family-built graph")
    _deleted_rows(g, deleted)  # raises on a bad deletion, before anything is written
    labels, V = g.labels, g.vertex_count
    kept = [*range(deleted), *range(deleted + 1, V)] if isinstance(deleted, int) else range(V)
    if isinstance(labels, CanonicalRotations):  # no label object is made
        es, n = labels.canon.elements, labels.canon.modulus
        vertices = _LazyIdRows(partial(rotations, es, n, kept), n)
    elif labels and isinstance(labels[0], CyclicSubset):
        vertices = _IdRows((labels[u].elements for u in kept), labels[0].modulus)
    else:
        vertices = [int(labels[u]) for u in kept]
    doc: dict[str, Any] = {
        "schemaVersion": SCHEMA_VERSION,
        "family": _family_json(g.family),
        "vertices": vertices,
        "edges": _LazyIdRows(lambda: _row_edges(_deleted_rows(g, deleted)), len(kept)),
    }
    if isinstance(deleted, int):
        doc["deletedVertex"] = deleted
    elif deleted is not None:
        doc["deletedEdge"] = [min(deleted), max(deleted)]
    return doc


@_loader
def graph_from_document(doc: dict) -> LabeledGraph:
    """Rebuild from the named family, check the vertex and edge lists against
    those `graph_to_document` writes for the recorded deletion, and return
    the graph it leaves; a document records at most one deletion."""
    if not isinstance(doc, dict) or doc.get("schemaVersion") != SCHEMA_VERSION:
        raise InvalidParams("unsupported or missing schemaVersion")
    g = build_family(_family_from_json(doc.get("family", {})))
    if "deletedVertex" in doc and "deletedEdge" in doc:
        raise InvalidParams("a graph document records a deleted vertex and a deleted edge")
    deleted = _int(doc["deletedVertex"]) if "deletedVertex" in doc else None
    if "deletedEdge" in doc:
        deleted = tuple(map(_int, doc["deletedEdge"]))
    want = graph_to_document(g, deleted)
    if not _same_rows(doc.get("vertices"), list(want["vertices"])):
        raise InvalidParams("vertex list disagrees with the rebuilt family")
    if not _same_rows(doc.get("edges"), list(want["edges"])):
        raise InvalidParams("edge list disagrees with the rebuilt family")
    if deleted is None:
        return g
    return delete_vertex(g, deleted) if isinstance(deleted, int) else delete_edge(g, *deleted)


def graph_to_dot(g: LabeledGraph, deleted: int | tuple[int, int] | None = None) -> str:
    """Undirected DOT text with set-literal labels of g less deleted, the
    graph `graph_to_document` describes; byte-stable."""
    chunks: list[str] = []
    dump_dot(g, chunks.append, deleted)
    return "".join(chunks)


def dump_dot(g: LabeledGraph, write: Callable[[str], Any],
             deleted: int | tuple[int, int] | None = None) -> None:
    """Write `graph_to_dot(g, deleted)` through write, its lines handed over
    about `_CHUNK` characters at a time: the labels and edges of
    `graph_to_document(g, deleted)`, made as they are written."""
    doc = graph_to_document(g, deleted)
    rows, fp = doc["vertices"], g.family
    if type(rows) is list:  # int labels
        labels = (f'  {v} [label="{x}"];\n' for v, x in enumerate(rows))
    else:  # residue rows, written as set literals
        residues = rows.texts()  # made once for every label
        labels = (f'  {v} [label="{{{",".join(_row_texts(es, residues))}}}"];\n'
                  for v, es in enumerate(rows))
    out = [f"graph {fp.tag}_{fp.n}_{fp.k} {{\n"]
    _write_pieces(labels, out, write)
    _write_pieces((f"  {u} -- {v};\n" for u, v in doc["edges"]), out, write)
    out.append("}\n")
    write("".join(out))


def coloring_to_document(
    fc: FractionalColoring, family: FamilyParams
) -> dict:
    doc: dict[str, Any] = {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "FRACTIONAL_COLORING",
        "family": _family_json(family),
        "sets": _IdRows(fc.sets, _vertex_count(family)),
        "weights": [fraction_to_str(w) for w in fc.weights],
        "value": fraction_to_str(fc.value),
    }
    if fc.excluded_vertex is not None:
        doc["excludedVertex"] = fc.excluded_vertex
    if fc.excluded_edge is not None:
        doc["excludedEdge"] = list(fc.excluded_edge)
    return doc


@_loader
def coloring_from_document(doc: dict) -> FractionalColoring:
    if doc.get("kind") != "FRACTIONAL_COLORING":
        raise InvalidParams("not a fractional-coloring document")
    fp = _family_from_json(doc.get("family", {}))
    ev = doc.get("excludedVertex")
    ee = doc.get("excludedEdge")
    fc = FractionalColoring(
        tuple(tuple(map(_int, s)) for s in doc.get("sets", ())),
        tuple(fraction_from_str(w) for w in doc.get("weights", ())),
        excluded_vertex=None if ev is None else _int(ev),
        excluded_edge=None if ee is None else (_int(ee[0]), _int(ee[1])),
    )
    if fraction_from_str(doc.get("value", "0/1")) != fc.value:
        raise InvalidParams("declared value disagrees with the weights")
    bad = verify_fractional_coloring(build_family(fp), fc)
    if bad:
        raise InvalidParams(f"coloring fails validation: {bad[0]}")
    return fc


def map_to_document(m: VertexMap) -> dict:
    if m.source.family is None or m.target.family is None:
        raise InvalidParams("map documents need family-built endpoints")
    bound = max(m.source.vertex_count, m.target.vertex_count)
    doc: dict[str, Any] = {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "VERTEX_MAP",
        "mapKind": m.kind.name,
        "source": _family_json(m.source.family),
        "target": _family_json(m.target.family),
        "mapping": _IdRows([[u, m.mapping[u]] for u in sorted(m.mapping)], bound),
    }
    if m.excluded_vertex is not None:
        doc["excludedVertex"] = m.excluded_vertex
    if m.excluded_edge is not None:
        doc["excludedEdge"] = list(m.excluded_edge)
    if m.section is not None:
        doc["section"] = _IdRows([[t, s] for t, s in sorted(m.section.items())], bound)
    return doc


@_loader
def map_from_document(doc: dict) -> VertexMap:
    if doc.get("kind") != "VERTEX_MAP":
        raise InvalidParams("not a vertex-map document")
    try:
        kind = MapKind[doc.get("mapKind", "")]
    except KeyError as exc:
        raise InvalidParams(f"unknown map kind {doc.get('mapKind')!r}") from exc
    src = build_family(_family_from_json(doc.get("source", {})))
    tgt = build_family(_family_from_json(doc.get("target", {})))
    ev = doc.get("excludedVertex")
    ee = doc.get("excludedEdge")
    sec = doc.get("section")
    m = VertexMap(
        src,
        tgt,
        {_int(u): _int(x) for u, x in doc.get("mapping", ())},
        kind,
        excluded_vertex=None if ev is None else _int(ev),
        excluded_edge=None if ee is None else (_int(ee[0]), _int(ee[1])),
        section=None if sec is None else {_int(t): _int(s) for t, s in sec},
    )
    bad = validate_map(m)
    if bad:
        raise InvalidParams(f"map fails validation: {bad[0]}")
    return m


def trace_to_document(s: CyclicSubset, trace: ReductionTrace) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "REDUCTION_TRACE",
        "modulus": s.modulus,
        "elements": list(s.elements),
        "steps": [
            {
                "cycleLength": st.cycle_length,
                "setSize": st.set_size,
                "quotient": st.quotient,
                "remainder": st.remainder,
                "surviving": list(st.surviving.elements),
            }
            for st in trace.steps
        ],
        "terminal": {
            "modulus": trace.terminal.modulus,
            "elements": list(trace.terminal.elements),
        },
    }


@_loader
def trace_from_document(doc: dict) -> ReductionTrace:
    """Re-run the reduction on the recorded set; the document must agree."""
    if doc.get("kind") != "REDUCTION_TRACE":
        raise InvalidParams("not a reduction-trace document")
    s = CyclicSubset(_int(doc["modulus"]), map(_int, doc["elements"]))
    trace = euclid_reduce(s)
    if trace_to_document(s, trace) != _normalized(doc):
        raise InvalidParams("trace disagrees with recomputation")
    return trace


def _normalized(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def report_to_document(r: CriticalityReport) -> dict:
    doc: dict[str, Any] = {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "REPORT",
        "reportType": "criticality",
        "family": None if r.family is None else _family_json(r.family),
        "invariant": r.invariant.name,
        "baseline": fraction_to_str(r.baseline),
        "perVertex": [[v, fraction_to_str(x)] for v, x in r.per_vertex],
        "perEdge": [
            [[u, v], fraction_to_str(x), flag] for (u, v), x, flag in r.per_edge
        ],
        "summary": r.summary.name,
    }
    if r.metadata:
        doc["metadata"] = {
            key: fraction_to_str(val) if isinstance(val, Fraction) else list(val)
            for key, val in r.metadata.items()
        }
    return doc


@_loader
def report_from_document(doc: dict) -> CriticalityReport:
    """Structural re-validation: one kind of rows, monotonicity against the
    baseline, and the summary the rows give."""
    if doc.get("kind") != "REPORT" or doc.get("reportType") != "criticality":
        raise InvalidParams("not a criticality report document")
    fam = doc.get("family")
    baseline = fraction_from_str(doc["baseline"])
    per_vertex = tuple((_int(v), fraction_from_str(x)) for v, x in doc.get("perVertex", ()))
    per_edge = tuple(
        ((_int(e[0]), _int(e[1])), fraction_from_str(x), None if flag is None else _bool(flag))
        for e, x, flag in doc.get("perEdge", ())
    )
    if per_vertex and per_edge:
        raise InvalidParams("a report holds both vertex and edge rows")
    if any(x > baseline for _, x in per_vertex) or any(x > baseline for _, x, _ in per_edge):
        raise InvalidParams("a recorded deletion value exceeds the baseline")
    r = CriticalityReport(
        None if fam is None else _family_from_json(fam),
        Invariant[doc["invariant"]],
        baseline,
        per_vertex,
        per_edge,
        dict(doc.get("metadata", {})),
    )
    if SweepSummary[doc["summary"]] is not r.summary:
        raise InvalidParams(f"summary {doc['summary']} disagrees with the rows: {r.summary.name}")
    return r


def boundary_to_document(b: BoundaryReport) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "REPORT",
        "reportType": "boundary",
        "entries": [[e.n, e.k, e.equal, e.predicted] for e in b.entries],
        "allMatch": b.all_match,
    }


@_loader
def boundary_from_document(doc: dict) -> BoundaryReport:
    if doc.get("kind") != "REPORT" or doc.get("reportType") != "boundary":
        raise InvalidParams("not a boundary report document")
    entries = []
    for n, k, eq, pr in doc.get("entries", ()):
        entries.append(BoundaryEntry(_int(n), _int(k), _bool(eq)))
        if _bool(pr) != entries[-1].predicted:
            raise InvalidParams(f"Q({n},{k}) = SG({n},{k}) predicted {pr} against the rule")
    b = BoundaryReport(tuple(entries))
    if _bool(doc.get("allMatch")) != b.all_match:
        raise InvalidParams("allMatch flag disagrees with the entries")
    return b


def dumps(doc: dict) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)` plus a newline, byte for byte."""
    chunks: list[str] = []
    dump(doc, chunks.append)
    return "".join(chunks)


def dump(doc: dict, write: Callable[[str], Any]) -> None:
    """Write `dumps(doc)` through write: in one call for a document under
    `_CHUNK` characters, else about `_CHUNK` characters a call."""
    out: list[str] = []
    _write(doc, "\n", out, write)
    out.append("\n")
    write("".join(out))


def _write_pieces(pieces: Iterator[str], out: list[str], write: Callable[[str], Any]) -> None:
    """Append pieces to out, and hand out joined to write, emptied, each
    time it holds `_CHUNK` characters or more.  Pieces are taken in batches
    of as many as would fill the chunk at the mean size of the last batch,
    so this loop turns about once a write, not once a piece."""
    held, batch = 0, 1
    while True:
        start = len(out)
        out.extend(islice(pieces, batch))
        count = len(out) - start
        if not count:
            return
        size = sum(map(len, islice(out, start, None)))
        held += size
        if held >= _CHUNK:
            write("".join(out))
            out.clear()
            held = 0
        batch = (_CHUNK - held) * count // max(size, 1) + 1


def _write(o, nl: str, out: list[str], write: Callable[[str], Any]) -> None:
    """Append to out the pieces of o as json's indent=2, sort_keys=True
    encoder writes it; nl is a newline followed by the indent of the line o
    starts on.  The id-row writer hands out to write as it fills."""
    t = type(o)
    if t is str:
        out.append(encode_basestring_ascii(o))
    elif t is int:
        out.append(str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if set(map(type, o)) == {int}:
            out.append(f"[{inner}{sep.join(map(str, o))}{nl}]")
            return
        lead = "[" + inner
        for x in o:
            out.append(lead)
            _write(x, inner, out, write)
            lead = sep
        out.append(nl + "]")
    elif t is _IdRows or t is _LazyIdRows:
        _write_id_rows(o, nl, out, write)
    elif t is dict and all(type(key) is str for key in o):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for key in sorted(o):
            out.append(f"{lead}{encode_basestring_ascii(key)}: ")
            _write(o[key], inner, out, write)
            lead = "," + inner
        out.append(nl + "}")
    else:
        # floats, subclasses and non-string keys: json itself, re-indented
        out.append(json.dumps(o, indent=2, sort_keys=True).replace("\n", nl))


def _write_id_rows(rows: _IdRows | _LazyIdRows, nl: str, out: list[str],
                   write: Callable[[str], Any]) -> None:
    """Append the pieces of id rows that start on nl, one piece a row,
    through `_write_pieces`.  Each row's ints are read from the rows' one
    table of texts, made only once a first row is there, so that an id
    outside range(rows.bound) raises KeyError or IndexError."""
    it = iter(rows)
    first = next(it, None)
    if first is None:
        out.append("[]")
        return
    table = rows.texts()
    inner = nl + "    "
    sep = "," + inner
    close = nl + "  ]"
    lead = "," + nl + "  "
    pieces = (f"{lead}[{inner}{sep.join(_row_texts(row, table))}{close}" if row else lead + "[]"
              for row in chain((first,), it))
    out.append("[" + next(pieces)[1:])  # the first row opens the list, not a comma
    _write_pieces(pieces, out, write)
    out.append(nl + "]")
