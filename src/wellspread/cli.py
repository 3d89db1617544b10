"""Command-line front end.

Documents go to standard output; diagnostics and progress go to standard
error.  Exit codes: 0 success, 1 verification or certificate failure,
2 invalid input, 3 resource cap exceeded.  Each document is streamed by
`serialize.dump` or `serialize.dump_dot` in chunks of about 1 MB, with its
large rows made as they are written (a graph's from the family graph and
the one deletion asked for), once every check that can end in exit 1, 2 or
3 has passed, so a failing request prints nothing on standard output.
Only `verify-paper` prints a report with exit 1: it names what failed.

The argument parser is built on the first call of `main` and reused by every
later call in the process; nothing else is kept between calls.  The
verification harness is imported only by `verify-paper`.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional

from .certificates import (
    circular_isomorphism,
    edge_deleted_coloring,
    edge_deleted_retraction,
    find_subgraph_qab,
    scaling_isomorphism,
    vertex_deleted_coloring,
    vertex_deleted_retraction,
)
from .coloring import chromatic_number
from .criticality import (
    Invariant,
    circular_edge_corollary,
    edge_criticality,
    q_equals_schrijver_sweep,
    vertex_criticality,
)
from .cyclic import canonical_well_spread, euclid_reduce
from .errors import (
    InvalidParams,
    NotAnEdge,
    NotCoprime,
    NotCycleEdge,
    NotWellSpread,
    ResourceCap,
)
from .fractional import fractional_chromatic_number
from .graphs import FamilyParams
from .homomorphism import circular_chromatic_number
from .independence import independence_number
from .serialize import (
    SCHEMA_VERSION,
    _BUILDERS,
    _family_json,
    boundary_to_document,
    build_family,
    coloring_to_document,
    dump,
    dump_dot,
    fraction_to_str,
    graph_to_document,
    map_to_document,
    report_to_document,
    trace_to_document,
)

_INVARIANTS = {"chi": Invariant.CHI, "chi-f": Invariant.CHI_F, "chi-c": Invariant.CHI_C}


def _edge_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected U,V got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellspread",
        description="Exact constructions and verified invariants for cyclic set graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = list(_BUILDERS)

    p = sub.add_parser("build", help="construct a graph and print it")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--delete-vertex", type=int, metavar="ID")
    p.add_argument("--delete-edge", type=_edge_pair, metavar="U,V")
    p.add_argument("--vertex-cap", type=int, metavar="N")

    p = sub.add_parser("invariants", help="exact invariants as a JSON report")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--chi", action="store_true")
    p.add_argument("--chi-f", action="store_true")
    p.add_argument("--chi-c", action="store_true")
    p.add_argument("--vertex-cap", type=int, metavar="N")

    p = sub.add_parser("criticality", help="deletion sweeps and the equality boundary")
    p.add_argument("--family", choices=families)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--invariant", choices=sorted(_INVARIANTS), default="chi-f",
                   help="invariant for the vertex sweep")
    p.add_argument("--edges", action="store_true",
                   help="edge sweep instead (family q or circular)")
    p.add_argument("--boundary", action="store_true",
                   help="compare rotation and 2-separated families up to --max-n")
    p.add_argument("--max-n", type=int, metavar="N")
    p.add_argument("--vertex-cap", type=int, metavar="N")

    p = sub.add_parser("certify", help="emit a validated certificate document")
    p.add_argument("kind", choices=["coloring", "retraction", "subgraph-qab",
                                    "iso-circular", "iso-scaling", "reduce"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delete-vertex", type=int, metavar="ID")
    p.add_argument("--delete-edge", type=_edge_pair, metavar="U,V")
    p.add_argument("--l", type=int, default=2, metavar="L",
                   help="scale factor for iso-scaling")

    p = sub.add_parser("verify-paper", help="run the full verification grid")
    p.add_argument("--max-n", type=int, metavar="N",
                   help="clamp every sweep to n <= N")
    return parser


def _cmd_build(args) -> int:
    if args.delete_vertex is not None and args.delete_edge is not None:
        raise InvalidParams("choose one of --delete-vertex / --delete-edge")
    g = build_family(FamilyParams(args.family, args.n, args.k), args.vertex_cap)
    deleted = args.delete_edge if args.delete_vertex is None else args.delete_vertex
    if args.format == "dot":
        dump_dot(g, sys.stdout.write, deleted)
    else:
        dump(graph_to_document(g, deleted), sys.stdout.write)
    return 0


def _cmd_invariants(args) -> int:
    fp = FamilyParams(args.family, args.n, args.k)
    g = build_family(fp, args.vertex_cap)
    which = {
        "alpha": args.alpha,
        "chi": args.chi,
        "chiF": args.chi_f,
        "chiC": args.chi_c,
    }
    if not any(which.values()):
        which = dict.fromkeys(which, True)
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "family": _family_json(fp),
    }
    if which["alpha"]:
        doc["alpha"] = independence_number(g)
    if which["chi"]:
        doc["chi"] = chromatic_number(g)
    if which["chiF"]:
        doc["chiF"] = fraction_to_str(fractional_chromatic_number(g)[0])
    if which["chiC"]:
        doc["chiC"] = fraction_to_str(circular_chromatic_number(g))
    dump(doc, sys.stdout.write)
    return 0


def _cmd_criticality(args) -> int:
    if args.boundary:
        if args.max_n is None:
            raise InvalidParams("--boundary needs --max-n")
        dump(boundary_to_document(q_equals_schrijver_sweep(args.max_n)), sys.stdout.write)
        return 0
    if args.family is None or args.n is None or args.k is None:
        raise InvalidParams("sweeps need --family, --n, and --k")
    fp = FamilyParams(args.family, args.n, args.k)
    if args.edges and fp.tag not in ("q", "circular"):
        raise InvalidParams("edge sweeps cover the q and circular families")
    g = build_family(fp, args.vertex_cap)
    if not args.edges:
        rep = vertex_criticality(g, _INVARIANTS[args.invariant])
    elif fp.tag == "q":
        rep = edge_criticality(g)
    else:
        rep = circular_edge_corollary(g)
    dump(report_to_document(rep), sys.stdout.write)
    return 0


def _pick_deletion(args) -> tuple[Optional[int], Optional[tuple[int, int]]]:
    if (args.delete_vertex is None) == (args.delete_edge is None):
        raise InvalidParams("choose exactly one of --delete-vertex / --delete-edge")
    return args.delete_vertex, args.delete_edge


def _cmd_certify(args) -> int:
    n, k = args.n, args.k
    fp = FamilyParams("q", n, k)
    if args.kind in ("coloring", "retraction"):
        dv, de = _pick_deletion(args)
    elif args.delete_vertex is not None or args.delete_edge is not None:
        raise InvalidParams(f"certify {args.kind} takes no --delete-vertex / --delete-edge")
    if args.kind == "coloring":
        fc = vertex_deleted_coloring(n, k, dv) if dv is not None else edge_deleted_coloring(n, k, de)
        dump(coloring_to_document(fc, fp), sys.stdout.write)
    elif args.kind == "retraction":
        m = vertex_deleted_retraction(n, k, dv) if dv is not None else edge_deleted_retraction(n, k, de)
        dump(map_to_document(m), sys.stdout.write)
    elif args.kind == "subgraph-qab":
        dump(map_to_document(find_subgraph_qab(n, k)), sys.stdout.write)
    elif args.kind == "iso-circular":
        dump(map_to_document(circular_isomorphism(n, k)), sys.stdout.write)
    elif args.kind == "iso-scaling":
        dump(map_to_document(scaling_isomorphism(n, k, args.l)), sys.stdout.write)
    else:
        s = canonical_well_spread(n, k)
        dump(trace_to_document(s, euclid_reduce(s)), sys.stdout.write)
    return 0


def _cmd_verify(args) -> int:
    # imported here: no other command needs the verification harness
    from .verify import run_all, summary_document

    results = run_all(args.max_n)
    for r in results:
        for line in r.lines():
            print(line, file=sys.stderr)
    dump(summary_document(results), sys.stdout.write)
    return 0 if all(r.passed for r in results) else 1


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:  # built on the first call, reused by every later one
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "invariants": _cmd_invariants,
        "criticality": _cmd_criticality,
        "certify": _cmd_certify,
        "verify-paper": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (InvalidParams, NotCoprime, NotAnEdge, NotCycleEdge, NotWellSpread) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCap as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal validation failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
