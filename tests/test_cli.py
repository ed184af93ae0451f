"""Command-line contract: reports, determinism, exit codes."""

import io
import json

import pytest

from primflat import cli
from primflat.cli import (INTERNAL_ERROR, USAGE_ERROR, CHECK_FAILED,
                         load_connection, run)
from primflat.errors import InternalInvariantError


@pytest.fixture
def flat_file(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "n": 2, "rank": 2,
        "A": [["(x1)*dy1 + (x2)*dy2", "0"], ["0", "0"]],
    }))
    return str(path)


@pytest.fixture
def nonflat_file(tmp_path):
    path = tmp_path / "nonflat.json"
    path.write_text(json.dumps({"n": 2, "rank": 1, "A": [["(x1)*dx2"]]}))
    return str(path)


def run_json(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, json.loads(buf.getvalue())


def test_load_connection_validates(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "rank": 2, "A": [["dx1"]]}))
    with pytest.raises(ValueError):
        load_connection(str(path))
    path.write_text(json.dumps({"n": 2, "rank": 1, "A": [["dx1/\\dy1"]]}))
    with pytest.raises(ValueError):
        load_connection(str(path))


def test_flatness_report(flat_file):
    code, report = run_json(["flatness", "--connection", flat_file])
    assert code == 0
    assert report["is_symplectically_flat"] is True
    assert report["Phi"][0][0] == "1"
    assert report["F0"] == [["0", "0"], ["0", "0"]]


def test_decompose_report():
    code, report = run_json(["decompose", "--n", "2", "--form", r"dx1/\dy1"])
    assert code == 0
    assert report["components"] == [
        {"r": 0, "form": r"(1/2)*dx1/\dy1 + (-1/2)*dx2/\dy2"},
        {"r": 1, "form": "1/2"},
    ]


def test_ainfty_check_passes():
    code, report = run_json(["ainfty-check", "--n", "1", "--trials", "8",
                             "--seed", "5", "--rank", "2"])
    assert code == 0
    assert report["all_passed"] is True
    assert [rel["k"] for rel in report["relations"]] == [1, 2, 3, 4]
    assert all(rel["failures"] == 0 for rel in report["relations"])


def test_twist_square_exit_codes(flat_file, nonflat_file):
    code, report = run_json(["twist-square", "--connection", flat_file,
                             "--trials", "10", "--seed", "1"])
    assert code == 0
    assert report["flat"] is True and report["residual_failures"] == 0

    code, report = run_json(["twist-square", "--connection", nonflat_file,
                             "--trials", "25", "--seed", "1"])
    assert code == CHECK_FAILED
    assert report["flat"] is False
    assert report["residual_failures"] > 0
    assert report["witness"] is not None


def test_cohomology_report(flat_file):
    code, report = run_json(["cohomology", "--connection", flat_file,
                             "--complex", "prim", "--truncation", "3",
                             "--margins", "2,3"])
    assert code == 0
    dims = {pos["position"]: pos["dim"] for pos in report["positions"]}
    assert dims == {"P0+": 1, "P1+": 1, "P2+": 0, "P2-": 0, "P1-": 0, "P0-": 0}
    assert report["all_stabilized"] is True
    witness_positions = {pos["position"]: pos["witnesses"]
                         for pos in report["positions"]}
    assert len(witness_positions["P1+"]) == 1


def test_cohomology_cone_complex_report(flat_file):
    code, report = run_json(["cohomology", "--connection", flat_file,
                             "--complex", "cone", "--truncation", "3",
                             "--margins", "2,3"])
    assert code == 0
    dims = {pos["position"]: pos["dim"] for pos in report["positions"]}
    assert dims == {"C0": 1, "C1": 1, "C2": 0, "C3": 0, "C4": 0, "C5": 0}
    witness = next(pos["witnesses"] for pos in report["positions"]
                   if pos["position"] == "C1")
    assert witness and {"grading", "eta", "theta"} <= set(witness[0])


def test_cone_verify_report(flat_file):
    code, report = run_json(["cone-verify", "--connection", flat_file,
                             "--trials", "10", "--seed", "4"])
    assert code == 0
    names = [item["name"] for item in report["identities"]]
    assert names == ["f_chain_map", "g_chain_map", "fg_identity",
                     "homotopy", "phi_exactness"]
    assert report["all_passed"] is True


def test_deterministic_output(flat_file):
    first, second = io.StringIO(), io.StringIO()
    argv = ["twist-square", "--connection", flat_file, "--trials", "10",
            "--seed", "42"]
    assert run(argv, stdout=first) == run(argv, stdout=second)
    assert first.getvalue() == second.getvalue()


def test_usage_and_parse_errors_exit_one(tmp_path):
    assert run(["no-such-command"], stdout=io.StringIO()) == USAGE_ERROR
    assert run(["decompose", "--n", "2", "--form", "dx9"],
               stdout=io.StringIO()) == USAGE_ERROR
    missing = str(tmp_path / "missing.json")
    assert run(["flatness", "--connection", missing],
               stdout=io.StringIO()) == USAGE_ERROR
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["flatness", "--connection", str(bad)],
               stdout=io.StringIO()) == USAGE_ERROR


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    def broken(args):
        raise InternalInvariantError("fiber system is singular")

    monkeypatch.setattr(cli, "_cmd_decompose", broken)
    buf = io.StringIO()
    code = run(["decompose", "--n", "1", "--form", "dx1"], stdout=buf)
    assert code == INTERNAL_ERROR == 3
    assert buf.getvalue() == ""
    err = capsys.readouterr().err
    assert err == "primflat: internal error: fiber system is singular\n"
