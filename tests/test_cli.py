"""Command-line interface: output formats and the exit-code contract."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wellspread.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_json_document(capsys):
    code, out, _ = run(capsys, "build", "--family", "q", "--n", "13", "--k", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == {"tag": "q", "n": 13, "k": 5}
    assert len(doc["vertices"]) == 13
    assert doc["vertices"][0] == [0, 2, 5, 7, 10]
    assert all(u < v for u, v in doc["edges"])


def test_build_dot_is_stable(capsys):
    code, out1, _ = run(capsys, "build", "--family", "q", "--n", "13", "--k", "5",
                        "--format", "dot")
    assert code == 0
    code, out2, _ = run(capsys, "build", "--family", "q", "--n", "13", "--k", "5",
                        "--format", "dot")
    assert out1 == out2
    assert out1.count("label=") == 13


def test_build_rejects_bad_family_params(capsys):
    code, _, err = run(capsys, "build", "--family", "kneser", "--n", "3", "--k", "2")
    assert code == 2
    assert "error" in err


def test_build_deletions(capsys):
    code, out, _ = run(capsys, "build", "--family", "q", "--n", "7", "--k", "2",
                       "--delete-vertex", "0")
    assert code == 0
    assert json.loads(out)["deletedVertex"] == 0
    code, out, _ = run(capsys, "build", "--family", "q", "--n", "7", "--k", "2",
                       "--delete-edge", "0,1")
    assert code == 0
    assert json.loads(out)["deletedEdge"] == [0, 1]
    code, _, _ = run(capsys, "build", "--family", "q", "--n", "7", "--k", "2",
                     "--delete-edge", "0,3")
    assert code == 2


def test_malformed_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--family", "q", "--n", "abc", "--k", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["build", "--family", "nope", "--n", "7", "--k", "2"])
    assert exc.value.code == 2


def test_vertex_cap_exit_3(capsys):
    code, _, err = run(capsys, "build", "--family", "kneser", "--n", "40", "--k", "10")
    assert code == 3
    assert "cap" in err
    # the circular edge sweep is a corollary, but its graph is still capped
    code, _, err = run(capsys, "criticality", "--family", "circular", "--n", "9", "--k", "2",
                       "--edges", "--vertex-cap", "2")
    assert code == 3
    assert "cap" in err


def test_q_modulus_cap_exit_3(capsys):
    # Q(n,k) has n/gcd(n,k) vertices but is built on Z_n, so n is capped too
    code, _, err = run(capsys, "certify", "iso-scaling", "--n", "7", "--k", "2",
                       "--l", "100000000000")
    assert code == 3 and "cap" in err
    code, _, err = run(capsys, "build", "--family", "q", "--n", "20000", "--k", "10000")
    assert code == 3 and "cap" in err
    code, out, _ = run(capsys, "build", "--family", "q", "--n", "20000", "--k", "10000",
                       "--vertex-cap", "20000")
    assert code == 0 and len(json.loads(out)["vertices"]) == 2


@pytest.mark.parametrize("argv, code", [
    ("certify coloring --n 13 --k 5 --delete-vertex 99", 2),
    ("build --family q --n 9999 --k 4999 --vertex-cap 100", 3),
    ("build --family q --n 4999 --k 2499 --delete-vertex 99999", 2),
    ("build --family q --n 7 --k 2 --format dot --delete-edge 0,3", 2),
    ("build --family q --n 7 --k 2 --delete-vertex 0 --delete-edge 0,1", 2),
    # the kinds that certify no deleted graph refuse a deletion
    ("certify subgraph-qab --n 7 --k 2 --delete-vertex 3", 2),
    ("certify iso-circular --n 7 --k 2 --delete-vertex 3 --delete-edge 0,1", 2),
    ("certify iso-scaling --n 7 --k 2 --l 3 --delete-edge 0,1", 2),
    ("certify reduce --n 7 --k 2 --delete-vertex 99", 2),
])
def test_failing_requests_write_nothing_to_stdout(capsys, argv, code):
    # documents are written only once every check has passed
    got, out, err = run(capsys, *argv.split())
    assert (got, out) == (code, "")
    assert err


def test_node_budget_exit_3(capsys, monkeypatch):
    # DSATUR refutes 3 colours on I(10,3) in 9 nodes, one past the budget
    monkeypatch.setattr("wellspread.graphs.NODE_BUDGET", 8)
    code, out, err = run(capsys, "invariants", "--family", "interlacing", "--n", "10",
                         "--k", "3", "--chi")
    assert code == 3
    assert out == ""
    assert err == ("resource cap: colorability search exceeded 8 nodes "
                   "(DSATUR 9, class branching 0)\n")


def test_invariants_selected_and_full(capsys):
    code, out, _ = run(capsys, "invariants", "--family", "sg", "--n", "7", "--k", "2",
                       "--chi-f")
    assert code == 0
    assert json.loads(out)["chiF"] == "7/2"
    code, out, _ = run(capsys, "invariants", "--family", "q", "--n", "13", "--k", "5")
    doc = json.loads(out)
    assert doc["alpha"] == 5
    assert doc["chi"] == 3
    assert doc["chiF"] == "13/5"
    assert doc["chiC"] == "13/5"


def test_invariants_chi_of_a_long_odd_cycle(capsys):
    # circular(1001,500) is a 1001-cycle; its coloring search runs ~V deep
    code, out, _ = run(capsys, "invariants", "--family", "circular", "--n", "1001",
                       "--k", "500", "--chi")
    assert code == 0
    assert json.loads(out)["chi"] == 3


def test_invariants_chi_f_of_a_long_odd_cycle(capsys):
    # circular(31,15) is a 31-cycle; chi_f comes from the rotation orbit
    code, out, _ = run(capsys, "invariants", "--family", "circular", "--n", "31",
                       "--k", "15", "--chi-f")
    assert code == 0
    assert json.loads(out)["chiF"] == "31/15"


@pytest.mark.parametrize("family", ["q", "circular"])
def test_invariants_chi_c_of_a_long_odd_cycle(capsys, family):
    # a 101-cycle: the certified rotation's map v -> 50*x(v) mod 101 admits
    # K_{101/50} without a homomorphism search
    code, out, _ = run(capsys, "invariants", "--family", family, "--n", "101", "--k", "50",
                       "--chi-c")
    assert code == 0
    assert json.loads(out)["chiC"] == "101/50"


def test_invariants_alpha_of_a_long_odd_cycle(capsys):
    # Q(401,200) is a 401-cycle: alpha comes from branch-and-bound; the
    # ratio bound is not tried at maximum degree 2
    code, out, _ = run(capsys, "invariants", "--family", "q", "--n", "401", "--k", "200",
                       "--alpha")
    assert code == 0
    assert json.loads(out)["alpha"] == 200


REFUSE_NUMPY = """
import sys
from importlib.abc import MetaPathFinder


class RefuseNumpy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseNumpy())
from wellspread.cli import main

sys.exit(main(sys.argv[1:]))
"""


def test_kneser_invariants_need_no_numpy():
    # alpha(KG(10,4)) is certified by the Katona circle, and chi_f pins from it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE_NUMPY, "invariants", "--family", "kneser", "--n", "10",
         "--k", "4", "--alpha", "--chi-f"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["alpha"] == 84
    assert doc["chiF"] == "5/2"


def test_criticality_vertex_sweep(capsys):
    code, out, _ = run(capsys, "criticality", "--family", "q", "--n", "7", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == "VERTEX_CRITICAL"
    assert doc["baseline"] == "7/2"


def test_criticality_edge_sweeps(capsys):
    code, out, _ = run(capsys, "criticality", "--family", "q", "--n", "7", "--k", "2",
                       "--edges")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == "EDGE_CLASSIFICATION"
    assert len(doc["perEdge"]) == 14
    code, out, _ = run(capsys, "criticality", "--family", "circular", "--n", "7",
                       "--k", "2", "--edges")
    assert code == 0
    code, _, _ = run(capsys, "criticality", "--family", "kneser", "--n", "7",
                     "--k", "2", "--edges")
    assert code == 2


def test_criticality_boundary(capsys):
    code, out, _ = run(capsys, "criticality", "--boundary", "--max-n", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["allMatch"] is True
    assert len(doc["entries"]) == 16


def test_certify_coloring_vertex(capsys):
    code, out, _ = run(capsys, "certify", "coloring", "--n", "7", "--k", "2",
                       "--delete-vertex", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["sets"] == [[0, 4], [3, 6], [2, 5]]
    assert doc["weights"] == ["1/1", "1/1", "1/1"]
    assert doc["value"] == "3/1"


def test_certify_coloring_chord_rejected(capsys):
    code, _, err = run(capsys, "certify", "coloring", "--n", "7", "--k", "2",
                       "--delete-edge", "0,2")
    assert code == 2
    assert "consecutive" in err


def test_certify_requires_exactly_one_deletion(capsys):
    code, _, _ = run(capsys, "certify", "coloring", "--n", "7", "--k", "2")
    assert code == 2
    code, _, _ = run(capsys, "certify", "coloring", "--n", "7", "--k", "2",
                     "--delete-vertex", "1", "--delete-edge", "0,1")
    assert code == 2


def test_certify_retraction_and_embedding(capsys):
    code, out, _ = run(capsys, "certify", "retraction", "--n", "7", "--k", "2",
                       "--delete-vertex", "3")
    assert code == 0
    assert json.loads(out)["mapKind"] == "HOMOMORPHISM"
    code, out, _ = run(capsys, "certify", "subgraph-qab", "--n", "7", "--k", "2")
    assert code == 0
    assert json.loads(out)["mapKind"] == "EMBEDDING"


def test_certify_isomorphisms_and_reduce(capsys):
    code, out, _ = run(capsys, "certify", "iso-circular", "--n", "5", "--k", "2")
    assert code == 0
    assert json.loads(out)["mapping"] == [[0, 0], [1, 2], [2, 4], [3, 1], [4, 3]]
    code, out, _ = run(capsys, "certify", "iso-scaling", "--n", "5", "--k", "2",
                       "--l", "3")
    assert code == 0
    assert json.loads(out)["target"] == {"tag": "q", "n": 15, "k": 6}
    code, out, _ = run(capsys, "certify", "reduce", "--n", "13", "--k", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "REDUCTION_TRACE"
    assert len(doc["terminal"]["elements"]) == 1


def test_verify_paper_small_run(capsys):
    code, out, err = run(capsys, "verify-paper", "--max-n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["allPassed"] is True
    assert len(doc["criteria"]) == 10
    assert "OK" in err


def test_verify_paper_refuses_a_max_n_that_checks_nothing(capsys):
    code, out, err = run(capsys, "verify-paper", "--max-n", "4")
    assert (code, out) == (2, "")
    assert "the least is 5" in err


def test_verify_paper_takes_no_mis_cap(capsys):
    # the maximal-set cap is a module constant, `independence._MIS_CAP`
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--mis-cap", "5"])
    assert exc.value.code == 2


def test_verify_paper_output_at_max_n_7(capsys):
    # sha256 of the report and of the per-case lines on stderr
    code, out, err = run(capsys, "verify-paper", "--max-n", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9d50c1eb972e2fd25e60b37a2ba01f9409f665f34d2b56909b7ee38a2c9068bc")
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "ef8a72ddbc7582f80d1ab6ead87b578b10ea740c7882b633437eb4d24736c94c")


def run_fresh(*argv):
    """Exit code, stdout and stderr of the command in a new interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "wellspread.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


# the failing requests use the valid one's subcommand, so any option value
# leaking from one call into the next changes its answer
VALID = ("criticality", "--family", "circular", "--n", "11", "--k", "3", "--edges")
FAILING = {
    "argparse": ("criticality", "--family", "circular", "--n", "11", "--k", "x", "--edges",
                 "--vertex-cap", "2"),
    "exit 2": ("criticality", "--family", "kneser", "--n", "7", "--k", "2", "--edges",
               "--invariant", "chi"),
    "exit 3": ("criticality", "--family", "circular", "--n", "9", "--k", "2", "--edges",
               "--vertex-cap", "2"),
}


@pytest.mark.parametrize("before", sorted(FAILING))
def test_reused_parser_answers_as_a_fresh_process(capsys, before):
    # the parser is built once per process; a failed call leaves nothing behind
    try:
        code = main(list(FAILING[before]))
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code == (2 if before != "exit 3" else 3)
    assert run(capsys, *VALID) == run_fresh(*VALID)


def test_cli_import_leaves_out_the_verification_harness():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wellspread.cli; sys.exit('wellspread.verify' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0
    code, out, err = run_fresh("verify-paper", "--max-n", "5")
    assert code == 0, err
    assert json.loads(out)["allPassed"] is True
    assert "OK" in err


# sha256 of stdout and the exit code, pinned from the output of the straight
# (disjointness build, json.dumps, member-by-member check) implementation.
# The first eight are the benchmark's large-cyclic request shapes.
GOLDEN = [
    ("build --family q --n 601 --k 300", 0,
     "459b6ed19b7c9a292cbbdc312c1446273ddf82285b3f367f5066ccd1d1141cd2"),
    ("build --family q --n 401 --k 200 --format dot", 0,
     "6f23e09610dca9841be43ee0d07a05d5ef1fb939b88c276fef5faf28144fbf52"),
    ("certify coloring --n 599 --k 150 --delete-vertex 17", 0,
     "21634187f67bd2ec45813e5cd8270797f389502649fdd10cc5740dc1a799b160"),
    ("certify retraction --n 599 --k 150 --delete-edge 43,42", 0,
     "b375bc66416008deb222802de8c1d3904e138cb379c9214d17a76448b82197e2"),
    ("certify iso-circular --n 401 --k 200", 0,
     "18f839b9c43c4879258b9de9bbc87e590ac180943ca858b7893b5a558c7f3486"),
    ("invariants --family q --n 101 --k 50 --chi-f", 0,
     "3b3dab56aac062775a86e6ee815635ea1e28333da506b0f553452d8415196d58"),
    ("invariants --family q --n 401 --k 200 --chi", 0,
     "ee15730243a4d898d850e469716dd5aeb5b3fe10574cdc31de843f7bf38cc43c"),
    ("invariants --family circular --n 1001 --k 500 --chi", 0,
     "be8be2f1b2bf9bf9ef33b25537da509c78bb5d6a18d6e24855d60b70babdfa83"),
    ("certify coloring --n 599 --k 150 --delete-edge 42,43", 0,
     "d623bb5206da95200177c0c2c72fc8265655fba44d16c4cf3a266fe361785a5c"),
    ("certify coloring --n 13 --k 5 --delete-edge 3,4", 0,
     "99b62d5870e5cd001aa06b4a9239f4caaa593e9e968fa39bbc16ccc047342717"),
    ("certify retraction --n 13 --k 5 --delete-vertex 3", 0,
     "b2df0cadb1cf5a5c5a58f8792fcb0535f645d4be08cd15b334580cfa2d50c3ff"),
    ("certify retraction --n 13 --k 5 --delete-edge 4,5", 0,
     "f79735595f13ab83c2740678358fc0fa2ad945f90a4bd3832fdb5c3910bfde1f"),
    ("certify subgraph-qab --n 13 --k 5", 0,
     "d80b45799343e3112fd74fb3b73738d94df906e06b90aeb2fdee4f0deb0c8aeb"),
    ("certify iso-scaling --n 7 --k 3 --l 2", 0,
     "135c0e754435895556f31cce4a297945df1936fd378924c244712ed9cf552a68"),
    ("certify reduce --n 13 --k 5", 0,
     "1acfdce62ee2deb3515a36d069792a0a2640284eb9d9137850fd618bdf884e7a"),
    ("criticality --family q --n 13 --k 5", 0,
     "e2a60a6bcf6e115086e2200c4e678d50ddb58b896bbd91d01473aad4a3607be6"),
    ("criticality --family q --n 11 --k 4 --edges", 0,
     "a70ac7d0869c86316c8396125d5db48368a60b4cede666e742b551af242504c6"),
    ("criticality --family circular --n 11 --k 3 --edges", 0,
     "0e29f36aef26dfc152dab5b6ca36a4b098d93a7960526082748a524b94ca212c"),
    ("criticality --family q --n 12 --k 5 --invariant chi-c", 0,
     "4245079f5d602d90d8b2d375ba24fe03fe23367a3ae512a316aeb3f1cd83c375"),
    ("criticality --boundary --max-n 9", 0,
     "1a563349d55a57d7c0a531ed98efaa053709993da58b628d6c2027d6d0f310c9"),
    ("invariants --family q --n 12 --k 4", 0,
     "a57ea13093ce1104d14d2c489ceb55f85e649df291892398c6dfc861d1e06e7c"),
    ("build --family q --n 12 --k 4 --delete-vertex 2", 0,
     "95bda9548681089cdfc107ddac9a5179c02a3a082d59de94156d1994849d72ba"),
    # Deleted graphs of every family, pinned from writers handed a compacted
    # copy of the deleted graph; the edge is given high-low
    ("build --family q --n 12 --k 4 --delete-edge 2,1", 0,
     "6a67af7c831df385a78930132eccff63769bd804715119a5965f641bcce5a948"),
    ("build --family q --n 12 --k 4 --delete-edge 2,1 --format dot", 0,
     "6000d3bfe73c283e2f0252cb8417b899f868f6eb5948fb403c13cd0cbddff822"),
    ("build --family q --n 12 --k 4 --format dot --delete-vertex 2", 0,
     "edf3063b4ab944ebed0daab1e55d3bf91ffb2061330a2edbdbeb942f7ce5b27a"),
    ("build --family kneser --n 7 --k 2 --delete-vertex 5", 0,
     "40a63e59b0c72058847a5a4daa80de4d97bf6ee7fdb06580e829323bad503227"),
    ("build --family sg --n 9 --k 3 --delete-vertex 4", 0,
     "d35be2217e2fdf9d33c5fdb0b24dc3c6a8385d0c14bf7b62f7067dcbe4c6d544"),
    ("build --family circular --n 11 --k 3 --delete-vertex 6", 0,
     "6d9df59aa0f16c2518fdd5f14dc9da1c9bddcad08d12b57e9a102ed969fefc3e"),
    ("build --family interlacing --n 9 --k 2 --delete-vertex 3", 0,
     "2ec0e3003742ae34813c0d3d6093ff2ad57fbfeaa7daab91f81716cab24b4c68"),
    ("certify coloring --n 13 --k 5 --delete-edge 0,5", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # Deletion sweeps, pinned from sweeps that solved every orbit with the
    # LP or the map search.  The first five are the benchmark's chif-sweeps
    # requests; the last two reduce to Q(4,1) and Q(7,1), complete graphs
    # whose non-cycle edges still go to the solver.
    ("criticality --family q --n 23 --k 7 --edges", 0,
     "0fee30eeafc4fad43ddc6eac490d113c4e1a6c40dcb9d61dd09eab061d3592d0"),
    ("criticality --family q --n 27 --k 8 --edges", 0,
     "3087f93e21b5ca5885b0c0756705bcbac620103f900e7a65a47b1b0a85e07abc"),
    ("criticality --family q --n 19 --k 7 --edges", 0,
     "0691383e6b938c67d33f770ebe1ef1e63f25972ba6acbe3b3ae3202894a2daef"),
    ("criticality --family q --n 29 --k 9", 0,
     "2e7c8e388b679fbac3c119ee6630da6dd9233d007cbf7bf04bbb3445dd026e95"),
    ("criticality --family q --n 23 --k 7", 0,
     "7c3310e6f0edfce15bb4a010f3216963b8adcee144535888d9ff436c040c043a"),
    ("criticality --family q --n 41 --k 13 --invariant chi-c", 0,
     "bd347f1b1aeade1c574b1bd6ddbe5108192d4a9ea91af89dc0b03ddd9d06a974"),
    ("criticality --family q --n 12 --k 3 --edges", 0,
     "91060c46fa81038474a713914b39874ab05c0a7705392ea5f79f8d53b3d77e18"),
    ("criticality --family q --n 7 --k 1 --edges", 0,
     "30abe9030c034c7993be4a4d3ef356abb2447cf25e99aa39caba959d2379671d"),
    # Colouring requests of the schrijver-chi and circular-targets workloads,
    # decided by DSATUR and class branching taking turns or by a homomorphism
    # search per chi_c candidate.
    ("invariants --family sg --n 10 --k 3 --chi", 0,
     "800fdc15aba37705342ef76311034dcd0ee66ff92db6b1cac0098842b0f0ba09"),
    ("criticality --family sg --n 10 --k 2 --invariant chi", 0,
     "ca2c06363ef43ffe95472a18fab3781e49dfa6805c613a4f09394b79359ee9bc"),
    ("criticality --family sg --n 9 --k 3 --invariant chi", 0,
     "a0890669c13c4ba80fa4ad88d083e36919e6cfb4a1f0c67d03dc64954c9fe3d6"),
    ("invariants --family interlacing --n 10 --k 3 --chi", 0,
     "546a5b403eead4080ab2aa7fca87396c91f969ba9f8bdb0036af9670918cb971"),
    ("invariants --family q --n 23 --k 11 --chi-c", 0,
     "2e3c64895c41a73867be5104b368041bedb0d66116c83d39b2ae92773c2cc4d1"),
    ("invariants --family q --n 29 --k 9 --chi-c", 0,
     "61bb0aa54a1b15116a6449c7c467816f9d3e06051cc1e1d42d22d9207e4ba3b8"),
    ("criticality --family circular --n 17 --k 5 --edges", 0,
     "98b021bfbaedca6687b20da1826a69e9ba186af75979f291bdc2ce35d55ca8ba"),
]


@pytest.mark.parametrize("cmd,code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_output(capsys, cmd, code, digest):
    got, out, _ = run(capsys, *cmd.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


FUZZ_FAMILIES = ["kneser", "sg", "q", "circular", "interlacing"]
FUZZ_PARAMS = [(-1, 1), (0, 0), (3, 0), (3, 2), (4, 1), (4, 2), (5, 2), (6, 2), (6, 3),
               (7, 2), (8, 3), (40, 10)]
FUZZ_FAMILY_KINDS = [
    ["build"], ["build", "--format", "dot"], ["build", "--delete-vertex", "0"],
    ["build", "--delete-edge", "0,1"], ["build", "--delete-vertex", "99"],
    ["build", "--delete-edge", "99,0"], ["build", "--delete-edge", "2,-1"],
    ["invariants"], ["criticality"], ["criticality", "--invariant", "chi"],
    ["criticality", "--invariant", "chi-c"], ["criticality", "--edges"],
    ["criticality", "--edges", "--vertex-cap", "2"],
]
FUZZ_CERTIFY = [
    ["coloring", "--delete-vertex", "1"], ["coloring", "--delete-edge", "0,1"], ["coloring"],
    ["retraction", "--delete-vertex", "0"], ["retraction", "--delete-edge", "1,0"],
    ["retraction", "--delete-edge", "0,2"], ["subgraph-qab"], ["iso-circular"],
    ["iso-scaling"], ["reduce"],
]
# Kneser and Schrijver graphs whose chi_c took from 1.9 s to past 10 s: their
# `invariants` (which computes chi_c) and chi_c sweeps are left out, and so is
# the chi_f sweep of KG(8,3), which ran past 60 s.  Each of their other
# requests, the chi sweeps included, ended in under 0.05 s in-process, and
# every other request of the grid in under 0.6 s.
FUZZ_SLOW = {("kneser", 7, 2), ("kneser", 8, 3), ("sg", 7, 2), ("sg", 8, 3)}
FUZZ_SLOW_KINDS = [["invariants"], ["criticality", "--invariant", "chi-c"]]


def fuzz_grid():
    for fam in FUZZ_FAMILIES:
        for n, k in FUZZ_PARAMS:
            for kind in FUZZ_FAMILY_KINDS:
                if (fam, n, k) in FUZZ_SLOW and kind in FUZZ_SLOW_KINDS:
                    continue
                if (fam, n, k) == ("kneser", 8, 3) and kind == ["criticality"]:
                    continue
                yield [kind[0], "--family", fam, "--n", str(n), "--k", str(k), *kind[1:]]
    for n, k in FUZZ_PARAMS:
        for kind in FUZZ_CERTIFY:
            yield ["certify", kind[0], "--n", str(n), "--k", str(k), *kind[1:]]


def test_every_request_of_a_small_grid_exits_with_a_documented_code(capsys):
    # an uncaught exception here is a traceback at the command line
    codes = set()
    for argv in fuzz_grid():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), argv
        assert code == 0 or out == "", argv  # a failing request writes nothing on stdout
        codes.add(code)
    assert codes == {0, 2, 3}
