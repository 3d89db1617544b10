"""Independent checks of the documents `wellspread` prints.

Nothing here imports or calls the program: every expected value comes from a
closed form of the paper, computed with the standard library only.

* (a, b) is the least positive solution of a*k = b*n - 1, by direct search.
* chi(SG(n,k)) = n-2k+2, and n-2k+1 after any vertex deletion.
* chi_f(Q(n,k)) = n/k; a/b after any vertex deletion or consecutive-rotation
  edge deletion (ids u, u+-1 mod n); any other edge deletion leaves n/k.
* chi_c(K_{n/k} - e) = a/b at circular distance k and n/k otherwise.
* alpha(Q(n,k)) = k, alpha(KG(n,k)) = C(n-1,k-1); chi(Q) = chi(K_{n/k}) = ceil(n/k).
* chi(I(n,k)) = ceil(n/k), only where the paper's grid verifies it (n <= 10).

Q(n,k) for coprime n, k has the rotations S+u (u in Z_n) of the well-spread
set S = {floor(i*n/k)} as vertices; positions u, v are adjacent exactly when
the offset v-u is one of the rotations that move S off itself.  Every
well-spread k-set is a rotation of S, so these offsets do not depend on which
one the program starts from.

Each check returns a list of problems; an empty list means the document is
correct.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, gcd


def critical_pair(n: int, k: int) -> tuple[int, int]:
    """Least positive (a, b) with a*k = b*n - 1."""
    if gcd(n, k) != 1:
        raise ValueError(f"critical pair needs gcd(n,k) = 1, got n={n} k={k}")
    b = 1
    while (b * n - 1) % k:
        b += 1
    return (b * n - 1) // k, b


@lru_cache(maxsize=None)
def q_offsets(n: int, k: int) -> frozenset[int]:
    """Offsets t in 1..n-1 with S and S+t disjoint, S = {floor(i*n/k)}."""
    s = {i * n // k for i in range(k)}
    return frozenset(t for t in range(1, n) if not any((x + t) % n in s for x in s))


@lru_cache(maxsize=None)
def _q_neighbor_mask(n: int, k: int) -> int:
    """Bit t set for every offset t that joins position 0 to position t."""
    mask = 0
    for t in q_offsets(n, k):
        mask |= 1 << t
    return mask


def _rotated(mask: int, u: int, n: int) -> int:
    full = (1 << n) - 1
    return ((mask << u) | (mask >> (n - u))) & full


def _fraction(text) -> Fraction:
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _edge_count(n: int, k: int) -> int:
    """Edges of Q(n,k) = K_{n/k} for coprime n, k: n-regular of degree n-2k+1."""
    return n * (n - 2 * k + 1) // 2


def _family(doc: dict, tag: str, n: int, k: int, key: str = "family") -> list[str]:
    want = {"tag": tag, "n": n, "k": k}
    return [] if doc.get(key) == want else [f"{key} is {doc.get(key)!r}, want {want!r}"]


def _report(doc: dict, invariant: str, baseline: Fraction, summary: str) -> list[str]:
    out = []
    if doc.get("kind") != "REPORT" or doc.get("reportType") != "criticality":
        out.append("not a criticality report")
    if doc.get("invariant") != invariant:
        out.append(f"invariant {doc.get('invariant')!r}, want {invariant}")
    if _fraction(doc.get("baseline", "0")) != baseline:
        out.append(f"baseline {doc.get('baseline')}, want {baseline}")
    if doc.get("summary") != summary:
        out.append(f"summary {doc.get('summary')!r}, want {summary}")
    return out


def check_q_edge_sweep(doc: dict, n: int, k: int) -> list[str]:
    a, b = critical_pair(n, k)
    out = _report(doc, "CHI_F", Fraction(n, k), "EDGE_CLASSIFICATION")
    out += _family(doc, "q", n, k)
    rows = doc.get("perEdge", [])
    offsets = q_offsets(n, k)
    seen = set()
    for (u, v), value, flag in rows:
        if not (0 <= u < v < n) or (v - u) % n not in offsets or (u, v) in seen:
            out.append(f"row {u},{v} is not a distinct edge of Q({n},{k})")
            continue
        seen.add((u, v))
        consecutive = (v - u) % n in (1, n - 1)
        want = Fraction(a, b) if consecutive else Fraction(n, k)
        if _fraction(value) != want or flag is not consecutive:
            out.append(f"edge {u},{v}: value {value} flag {flag}, want {want} {consecutive}")
    if len(seen) != _edge_count(n, k):
        out.append(f"{len(seen)} edges swept, want {_edge_count(n, k)}")
    return out


def _vertex_rows(doc: dict, count: int, want: Fraction) -> list[str]:
    rows = doc.get("perVertex", [])
    out = []
    if [v for v, _ in rows] != list(range(count)):
        out.append(f"perVertex covers {len(rows)} ids, want 0..{count - 1}")
    out += [f"vertex {v}: {x}, want {want}" for v, x in rows if _fraction(x) != want]
    return out


def check_q_vertex_sweep(doc: dict, n: int, k: int) -> list[str]:
    a, b = critical_pair(n, k)
    out = _report(doc, "CHI_F", Fraction(n, k), "VERTEX_CRITICAL")
    return out + _family(doc, "q", n, k) + _vertex_rows(doc, n, Fraction(a, b))


def schrijver_order(n: int, k: int) -> int:
    """Number of 2-separated k-subsets of Z_n."""
    return n * comb(n - k, k) // (n - k)


def check_sg_chi_sweep(doc: dict, n: int, k: int) -> list[str]:
    chi = n - 2 * k + 2
    out = _report(doc, "CHI", Fraction(chi), "VERTEX_CRITICAL")
    return out + _family(doc, "sg", n, k) + _vertex_rows(doc, schrijver_order(n, k), Fraction(chi - 1))


def check_circular_edge_sweep(doc: dict, n: int, k: int) -> list[str]:
    a, b = critical_pair(n, k)
    out = _report(doc, "CHI_C", Fraction(n, k), "EDGE_CLASSIFICATION")
    out += _family(doc, "circular", n, k)
    seen = set()
    for (i, j), value, flag in doc.get("perEdge", []):
        d = (j - i) % n
        if not (0 <= i < j < n) or not (k <= d <= n - k) or (i, j) in seen:
            out.append(f"row {i},{j} is not a distinct edge of K_{n}/{k}")
            continue
        seen.add((i, j))
        at_k = min(d, n - d) == k
        want = Fraction(a, b) if at_k else Fraction(n, k)
        if _fraction(value) != want or flag is not at_k:
            out.append(f"edge {i},{j}: value {value} flag {flag}, want {want} {at_k}")
    if len(seen) != _edge_count(n, k):
        out.append(f"{len(seen)} edges swept, want {_edge_count(n, k)}")
    return out


def expected_invariants(family: str, n: int, k: int) -> dict[str, Fraction]:
    """Closed-form invariants this benchmark asks for, keyed as in the report."""
    if family == "sg":
        return {"chi": Fraction(n - 2 * k + 2)}
    if family == "kneser":
        return {"alpha": Fraction(comb(n - 1, k - 1)), "chiF": Fraction(n, k)}
    if family == "interlacing":
        if n > 10:
            raise ValueError("chi(I(n,k)) is verified only for n <= 10")
        return {"chi": Fraction(ceil(Fraction(n, k)))}
    if family in ("q", "circular") and gcd(n, k) == 1:
        return {
            "alpha": Fraction(k),
            "chi": Fraction(ceil(Fraction(n, k))),
            "chiF": Fraction(n, k),
            "chiC": Fraction(n, k),
        }
    raise ValueError(f"no closed form for {family}({n},{k})")


_FLAG_KEYS = {"--alpha": "alpha", "--chi": "chi", "--chi-f": "chiF", "--chi-c": "chiC"}


def check_invariants(doc: dict, argv: tuple[str, ...], family: str, n: int, k: int) -> list[str]:
    # with no invariant flag the report carries all four
    asked = [_FLAG_KEYS[a] for a in argv if a in _FLAG_KEYS] or list(_FLAG_KEYS.values())
    expect = expected_invariants(family, n, k)
    out = _family(doc, family, n, k)
    for key in asked:
        if key not in doc:
            out.append(f"{key} missing")
        elif _fraction(doc[key]) != expect[key]:
            out.append(f"{key} = {doc[key]}, want {expect[key]}")
    extra = set(doc) - set(asked) - {"schemaVersion", "family"}
    if extra:
        out.append(f"unrequested keys {sorted(extra)}")
    return out


def _graph_edges(labels: list, edges: list, n: int, k: int) -> list[str]:
    out = []
    if len(labels) != n:
        out.append(f"{len(labels)} vertices, want {n}")
    sets = []
    for lab in labels:
        s = frozenset(lab)
        if len(s) != k or not all(0 <= x < n for x in s):
            out.append(f"label {lab} is not a {k}-subset of Z_{n}")
        sets.append(s)
    if len(set(sets)) != len(sets):
        out.append("vertex labels repeat")
    seen = set()
    for u, v in edges:
        if not (0 <= u < v < len(sets)) or (u, v) in seen:
            out.append(f"edge {u},{v} out of range or repeated")
        elif sets[u] & sets[v]:
            out.append(f"edge {u},{v} joins intersecting labels")
        seen.add((u, v))
    if len(edges) != _edge_count(n, k):
        out.append(f"{len(edges)} edges, want {_edge_count(n, k)}")
    return out


def check_graph_json(doc: dict, n: int, k: int) -> list[str]:
    out = _family(doc, "q", n, k)
    return out + _graph_edges(doc.get("vertices", []), doc.get("edges", []), n, k)


_DOT_VERTEX = re.compile(r'^\s*(\d+) \[label="\{([\d,]*)\}"\];$')
_DOT_EDGE = re.compile(r"^\s*(\d+) -- (\d+);$")


def check_graph_dot(text: str, n: int, k: int) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != f"graph q_{n}_{k} {{" or lines[-1] != "}":
        return ["DOT header or footer malformed"]
    labels, edges = [], []
    for line in lines[1:-1]:
        if m := _DOT_VERTEX.match(line):
            if int(m.group(1)) != len(labels):
                return [f"vertex line out of order: {line!r}"]
            labels.append([int(x) for x in m.group(2).split(",") if x])
        elif m := _DOT_EDGE.match(line):
            edges.append((int(m.group(1)), int(m.group(2))))
        else:
            return [f"unparsed DOT line {line!r}"]
    return _graph_edges(labels, edges, n, k)


def check_coloring(doc: dict, n: int, k: int, vertex: int | None = None,
                   edge: tuple[int, int] | None = None) -> list[str]:
    """Fractional colouring of Q(n,k) minus one vertex or one edge."""
    a, b = critical_pair(n, k)
    out = _family(doc, "q", n, k)
    if doc.get("kind") != "FRACTIONAL_COLORING":
        return out + ["not a fractional-coloring document"]
    out += _exclusions(doc, vertex, edge)
    sets, weights = doc.get("sets", []), [_fraction(w) for w in doc.get("weights", [])]
    if len(sets) != len(weights) or any(w < 0 for w in weights):
        return out + ["sets and weights disagree or a weight is negative"]
    nbr = _q_neighbor_mask(n, k)
    allowed = set() if edge is None else {(edge[0], edge[1]), (edge[1], edge[0])}
    denom = 1
    for w in weights:
        denom = denom * w.denominator // gcd(denom, w.denominator)
    cover = [0] * n
    for idx, (members, w) in enumerate(zip(sets, weights)):
        if len(set(members)) != len(members) or vertex in members \
                or not all(0 <= u < n for u in members):
            out.append(f"set {idx} repeats, leaves range or uses the deleted vertex")
            continue
        mask = 0
        for u in members:
            mask |= 1 << u
        for u in members:
            clash = _rotated(nbr, u, n) & mask
            while clash:
                v = (clash & -clash).bit_length() - 1
                clash &= clash - 1
                if (u, v) not in allowed:
                    out.append(f"set {idx} is not independent: {u},{v} adjacent")
            cover[u] += int(w * denom)
    uncovered = [v for v in range(n) if v != vertex and cover[v] < denom]
    if uncovered:
        out.append(f"vertices {uncovered[:5]} covered less than once")
    total = sum(weights, Fraction(0))
    if total != Fraction(a, b) or _fraction(doc.get("value", "0")) != Fraction(a, b):
        out.append(f"weight {total}, value {doc.get('value')}, want {a}/{b}")
    return out


def _exclusions(doc: dict, vertex: int | None, edge: tuple[int, int] | None) -> list[str]:
    """The deleted vertex or edge the document declares must be the one asked for."""
    out = []
    if doc.get("excludedVertex") != vertex:
        out.append(f"excludedVertex {doc.get('excludedVertex')}, want {vertex}")
    got = doc.get("excludedEdge")
    if (None if got is None else sorted(got)) != (None if edge is None else sorted(edge)):
        out.append(f"excludedEdge {got}, want {edge}")
    return out


def _map_header(doc: dict, kind: str) -> list[str]:
    if doc.get("kind") != "VERTEX_MAP" or doc.get("mapKind") != kind:
        return [f"not a {kind} vertex map"]
    return []


def check_retraction(doc: dict, n: int, k: int, vertex: int | None = None,
                     edge: tuple[int, int] | None = None) -> list[str]:
    """Homomorphism of Q(n,k) minus a deletion onto a copy of Q(a,b)."""
    a, b = critical_pair(n, k)
    out = _map_header(doc, "HOMOMORPHISM")
    out += _family(doc, "q", n, k, "source") + _family(doc, "q", a, b, "target")
    out += _exclusions(doc, vertex, edge)
    if out:
        return out
    mapping = {u: x for u, x in doc.get("mapping", [])}
    domain = [u for u in range(n) if u != vertex]
    if sorted(mapping) != domain or not all(0 <= x < a for x in mapping.values()):
        return out + ["mapping domain or range wrong"]
    skip = set() if edge is None else {(edge[0], edge[1]), (edge[1], edge[0])}
    src, tgt = q_offsets(n, k), q_offsets(a, b)
    for u in domain:
        for t in src:
            v = (u + t) % n
            if v < u or v == vertex or (u, v) in skip:
                continue
            if (mapping[v] - mapping[u]) % a not in tgt:
                out.append(f"edge {u},{v} maps to a non-edge")
    section = doc.get("section")
    if section is not None:
        if [t for t, _ in section] != list(range(a)):
            out.append("section does not cover the target")
        out += [f"section {s} not fixed onto {t}" for t, s in section if mapping.get(s) != t]
    return out


def check_iso_circular(doc: dict, n: int, k: int) -> list[str]:
    """Bijection Q(n,k) -> K_{n/k} carrying edges to edges; with equal edge
    counts that makes it an isomorphism."""
    out = _map_header(doc, "ISOMORPHISM")
    out += _family(doc, "q", n, k, "source") + _family(doc, "circular", n, k, "target")
    if out:
        return out
    mapping = {u: x for u, x in doc.get("mapping", [])}
    if sorted(mapping) != list(range(n)) or sorted(mapping.values()) != list(range(n)):
        return out + ["mapping is not a bijection of Z_n"]
    for u in range(n):
        for t in q_offsets(n, k):
            d = (mapping[(u + t) % n] - mapping[u]) % n
            if not (k <= d <= n - k):
                out.append(f"edge {u},{(u + t) % n} maps to a non-edge")
    return out


def check_document(check: str, params: dict, argv: tuple[str, ...], stdout: str) -> list[str]:
    """Dispatch one request's output to its check; a document of the wrong
    shape is a problem, not a crash."""
    try:
        if check == "graph_dot":
            return check_graph_dot(stdout, **params)
        doc = json.loads(stdout)
        if check == "invariants":
            return check_invariants(doc, argv, **params)
        return _CHECKS[check](doc, **params)
    except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


_CHECKS = {
    "q_edge_sweep": check_q_edge_sweep,
    "q_vertex_sweep": check_q_vertex_sweep,
    "sg_chi_sweep": check_sg_chi_sweep,
    "circular_edge_sweep": check_circular_edge_sweep,
    "graph_json": check_graph_json,
    "coloring": check_coloring,
    "retraction": check_retraction,
    "iso_circular": check_iso_circular,
}
