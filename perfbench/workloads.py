"""The benchmark's workloads: fixed request lists, ordered and targeted by a seed.

A request is a `wellspread` command line plus the name and parameters of the
independent check that judges its output (see checks.py).  A seed only
shuffles the order of the list and picks deletion targets on vertex-transitive
graphs, so every seed asks for the same amount of work.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: str  # name of the checks.py check for its output
    params: dict  # keyword arguments of that check

    def label(self) -> str:
        return " ".join(self.argv)


def _req(cmd: str, check: str, **params) -> Request:
    return Request(tuple(cmd.split()), check, params)


def _chif_sweeps(rng: random.Random) -> list[Request]:
    # The paper's main theorems on coprime Q(n,k): every vertex deletion and
    # every consecutive-rotation edge deletion lowers chi_f to a/b.
    return [
        _req("criticality --family q --n 23 --k 7 --edges", "q_edge_sweep", n=23, k=7),
        _req("criticality --family q --n 27 --k 8 --edges", "q_edge_sweep", n=27, k=8),
        _req("criticality --family q --n 19 --k 7 --edges", "q_edge_sweep", n=19, k=7),
        _req("criticality --family q --n 29 --k 9", "q_vertex_sweep", n=29, k=9),
        _req("criticality --family q --n 23 --k 7", "q_vertex_sweep", n=23, k=7),
    ]


def _schrijver_chi(rng: random.Random) -> list[Request]:
    # chi(SG(n,k)) = n-2k+2 and vertex-criticality: the paper's starting fact.
    # SG(10,3) is the 5-colour refutation that class branching wins.
    return [
        _req("invariants --family sg --n 10 --k 3 --chi", "invariants", family="sg", n=10, k=3),
        _req("criticality --family sg --n 10 --k 2 --invariant chi", "sg_chi_sweep", n=10, k=2),
        _req("criticality --family sg --n 9 --k 3 --invariant chi", "sg_chi_sweep", n=9, k=3),
    ]


def _circular_targets(rng: random.Random) -> list[Request]:
    # Requests decided by a map into a small circular or complete target:
    # homomorphism search per chi_c candidate, and colouring refutations.
    # I(10,3) refutes 3 colours by class branching, which vertex-at-a-time
    # search does at once.
    return [
        _req("criticality --family circular --n 17 --k 5 --edges", "circular_edge_sweep", n=17, k=5),
        _req("invariants --family q --n 23 --k 11 --chi-c", "invariants", family="q", n=23, k=11),
        _req("invariants --family q --n 29 --k 9 --chi-c", "invariants", family="q", n=29, k=9),
        _req("invariants --family interlacing --n 10 --k 3 --chi", "invariants",
             family="interlacing", n=10, k=3),
    ]


def _large_cyclic(rng: random.Random) -> list[Request]:
    # Hundreds of vertices: graph build, serialization, certificate
    # construction and validation, and the O(V^3) exact PSD ratio bound.
    v = rng.randrange(599)
    p = rng.randrange(599)
    edge = (p, (p + 1) % 599) if rng.random() < 0.5 else ((p + 1) % 599, p)
    return [
        _req("build --family q --n 601 --k 300", "graph_json", n=601, k=300),
        _req("build --family q --n 401 --k 200 --format dot", "graph_dot", n=401, k=200),
        _req(f"certify coloring --n 599 --k 150 --delete-vertex {v}", "coloring",
             n=599, k=150, vertex=v),
        _req(f"certify retraction --n 599 --k 150 --delete-edge {edge[0]},{edge[1]}",
             "retraction", n=599, k=150, edge=edge),
        _req("certify iso-circular --n 401 --k 200", "iso_circular", n=401, k=200),
        _req("invariants --family q --n 101 --k 50 --chi-f", "invariants", family="q", n=101, k=50),
        _req("invariants --family q --n 401 --k 200 --chi", "invariants", family="q", n=401, k=200),
        # The recursive colouring search raises RecursionError at depth ~V
        # on this graph, so this request fails every time; its correct answer is 3.
        _req("invariants --family circular --n 1001 --k 500 --chi", "invariants",
             family="circular", n=1001, k=500),
    ]


WORKLOADS = {
    "chif-sweeps": _chif_sweeps,
    "schrijver-chi": _schrijver_chi,
    "circular-targets": _circular_targets,
    "large-cyclic": _large_cyclic,
}


# Rounds a run makes per 25 s of --seconds, with a round's raw time on the
# reference host in the comment (median and range over 20 runs).  The count
# depends on --seconds and the workload only, never on how fast the host is
# during the run, so every run takes its medians over the same rounds (round 1
# also pays lazy imports).
ROUNDS_PER_25_S = {
    "chif-sweeps": 3,  # 5.8 s (4.5-7.9)
    "schrijver-chi": 2,  # 8.1 s (6.1-10.1)
    "circular-targets": 1,  # 22.8 s (14.7-27.4)
    "large-cyclic": 3,  # 8.2 s (5.4-10.3)
}


def rounds(workload: str, seconds: float, traced: bool = False) -> int:
    """Rounds of the request list one run makes; a traced run makes at least
    two, one untraced and one traced."""
    n = max(1, round(ROUNDS_PER_25_S[workload] * seconds / 25))
    return max(n, 2) if traced else n


def generate(workload: str, seed: int) -> list[Request]:
    """The workload's request list for this seed: targets picked, order shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    requests = WORKLOADS[workload](rng)
    rng.shuffle(requests)
    return requests
