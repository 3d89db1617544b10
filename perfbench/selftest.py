"""Self-test of the benchmark's independent checks.

    python3 perfbench/selftest.py

For one small instance of every document kind the benchmark checks, the
program's genuine output must pass, and each tampered copy must be rejected.
Exits 0 when every case behaves, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from wellspread.cli import main as wellspread_main  # noqa: E402

import checks  # noqa: E402


def _output(cmd: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = wellspread_main(cmd.split())
    if rc != 0:
        raise SystemExit(f"{cmd!r} exited {rc}")
    return out.getvalue()


def _set(path, value):
    """Tamper: replace the item at a key path."""
    def apply(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return apply


def _drop(path):
    """Tamper: delete the item at a key path."""
    def apply(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return apply


def _swap_mapping(doc):
    m = doc["mapping"]
    m[0][1], m[1][1] = m[1][1], m[0][1]


def _grow_first_set(doc):
    doc["sets"][0] = sorted(set(doc["sets"][0]) | {v for s in doc["sets"][1:] for v in s})


# (command, check, params, [(what the tamper does, tamper)])
CASES = [
    ("build --family q --n 13 --k 5", "graph_json", {"n": 13, "k": 5}, [
        ("one edge dropped", _drop(["edges", 0])),
        ("edge joining intersecting labels", _set(["edges", 0], [0, 2])),
        ("label changed", _set(["vertices", 0], [0, 1, 2, 3, 4])),
    ]),
    ("criticality --family q --n 7 --k 2 --edges", "q_edge_sweep", {"n": 7, "k": 2}, [
        ("consecutive edge reported at n/k", _set(["perEdge", 0, 1], "7/2")),
        ("flag flipped", _set(["perEdge", 0, 2], False)),
        ("row dropped", _drop(["perEdge", -1])),
    ]),
    ("criticality --family q --n 7 --k 2", "q_vertex_sweep", {"n": 7, "k": 2}, [
        ("deletion left at n/k", _set(["perVertex", 3, 1], "7/2")),
        ("baseline changed", _set(["baseline"], "3/1")),
    ]),
    ("criticality --family sg --n 7 --k 2 --invariant chi", "sg_chi_sweep", {"n": 7, "k": 2}, [
        ("deletion left at chi", _set(["perVertex", 0, 1], "5/1")),
        ("summary changed", _set(["summary"], "MIXED")),
    ]),
    ("criticality --family circular --n 7 --k 2 --edges", "circular_edge_sweep",
     {"n": 7, "k": 2}, [
        ("value swapped", _set(["perEdge", 0, 1], "7/2")),
        ("invariant renamed", _set(["invariant"], "CHI_F")),
    ]),
    ("invariants --family q --n 13 --k 5", "invariants", {"family": "q", "n": 13, "k": 5}, [
        ("chi_f changed", _set(["chiF"], "5/2")),
        ("alpha dropped", _drop(["alpha"])),
    ]),
    ("invariants --family kneser --n 7 --k 2 --alpha --chi-f", "invariants",
     {"family": "kneser", "n": 7, "k": 2}, [
        ("alpha changed", _set(["alpha"], 5)),
    ]),
    ("certify coloring --n 13 --k 5 --delete-vertex 3", "coloring",
     {"n": 13, "k": 5, "vertex": 3}, [
        ("weight lowered", _set(["weights", 0], "0/1")),
        ("set made dependent", _grow_first_set),
        ("deleted vertex used", _set(["sets", 0], [3])),
    ]),
    ("certify coloring --n 13 --k 5 --delete-edge 4,5", "coloring",
     {"n": 13, "k": 5, "edge": (4, 5)}, [
        ("value misdeclared", _set(["value"], "13/5")),
        ("another edge excluded", _set(["excludedEdge"], [5, 6])),
    ]),
    ("certify retraction --n 13 --k 5 --delete-vertex 2", "retraction",
     {"n": 13, "k": 5, "vertex": 2}, [
        ("images swapped", _swap_mapping),
        ("section broken", _set(["section", 0, 1], 2)),
        ("deletion dropped", _drop(["excludedVertex"])),
        ("garbled mapping", _set(["mapping"], 7)),
    ]),
    ("certify iso-circular --n 13 --k 5", "iso_circular", {"n": 13, "k": 5}, [
        ("image changed", _set(["mapping", 0, 1], 1)),
        ("target changed", _set(["target", "k"], 4)),
    ]),
]


def main() -> int:
    bad = 0
    for cmd, check, params, tampers in CASES:
        argv = tuple(cmd.split())
        text = _output(cmd)
        got = checks.check_document(check, params, argv, text)
        print(f"{'ok ' if not got else 'BAD'} genuine  {cmd}" + (f": {got[0]}" if got else ""))
        bad += bool(got)
        for what, tamper in tampers:
            doc = json.loads(text)
            tamper(doc)
            got = checks.check_document(check, params, argv, json.dumps(doc))
            print(f"{'ok ' if got else 'BAD'} rejected {what}" + (f": {got[0]}" if got else ""))
            bad += not got
    dot = _output("build --family q --n 13 --k 5 --format dot")
    for what, text in (("genuine", dot),
                       ("edge line dropped", "\n".join(l for i, l in enumerate(dot.splitlines())
                                                       if i != 20) + "\n"),
                       ("label altered", dot.replace('label="{', 'label="{12,', 1))):
        got = checks.check_document("graph_dot", {"n": 13, "k": 5}, (), text)
        fine = not got if what == "genuine" else bool(got)
        print(f"{'ok ' if fine else 'BAD'} {'genuine ' if what == 'genuine' else 'rejected'} "
              f"DOT {what}" + (f": {got[0]}" if got else ""))
        bad += not fine
    print(f"{bad} unexpected outcome(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
