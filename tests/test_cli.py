"""Command-line interface: output formats and the exit-code contract."""

from __future__ import annotations

import hashlib
import json

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
    # Q(401,200) is a 401-cycle: alpha comes from branch-and-bound, not the
    # O(V^3) exact PSD ratio bound
    code, out, _ = run(capsys, "invariants", "--family", "q", "--n", "401", "--k", "200",
                       "--alpha")
    assert code == 0
    assert json.loads(out)["alpha"] == 200


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
    ["invariants"], ["criticality"], ["criticality", "--invariant", "chi"],
    ["criticality", "--invariant", "chi-c"], ["criticality", "--edges"],
]
FUZZ_CERTIFY = [
    ["coloring", "--delete-vertex", "1"], ["coloring", "--delete-edge", "0,1"], ["coloring"],
    ["retraction", "--delete-vertex", "0"], ["retraction", "--delete-edge", "1,0"],
    ["retraction", "--delete-edge", "0,2"], ["subgraph-qab"], ["iso-circular"],
    ["iso-scaling"], ["reduce"],
]
# Kneser and Schrijver graphs whose chi_c (and, for KG(8,3), chi_f sweep)
# took from 1.9 s to past 10 s; they are only built.  Every other request of
# the grid ended in under 0.6 s.
FUZZ_SLOW = {("kneser", 7, 2), ("kneser", 8, 3), ("sg", 7, 2), ("sg", 8, 3)}


def fuzz_grid():
    for fam in FUZZ_FAMILIES:
        for n, k in FUZZ_PARAMS:
            for kind in FUZZ_FAMILY_KINDS:
                if kind[0] != "build" and (fam, n, k) in FUZZ_SLOW:
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
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        codes.add(code)
    assert codes == {0, 2, 3}
