"""Command-line interface: output formats and the exit-code contract."""

from __future__ import annotations

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
