"""Command-line contract: reports, determinism, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from primflat import cli, cone
from primflat.cli import (INTERNAL_ERROR, MAX_N, MAX_RANK, USAGE_ERROR, CHECK_FAILED,
                         load_connection, run)
from primflat.cohomology import MAX_BASIS
from primflat.dsl import print_form
from primflat.errors import InternalInvariantError

from oracle import dense_gauge_rank4


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


def test_load_connection_validates(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "rank": 2, "A": [["dx1"]]}))
    with pytest.raises(ValueError):
        load_connection(str(path))
    path.write_text(json.dumps({"n": 2, "rank": 1, "A": [["dx1/\\dy1"]]}))
    with pytest.raises(ValueError):
        load_connection(str(path))
    for rows in (5, [[5]]):
        path.write_text(json.dumps({"n": 1, "rank": 1, "A": rows}))
        with pytest.raises(ValueError, match="bad.json"):
            load_connection(str(path))
    buf = io.StringIO()
    assert run(["flatness", "--connection", str(path)], stdout=buf) == USAGE_ERROR
    assert buf.getvalue() == ""
    assert capsys.readouterr().err.startswith("primflat: error: connection file ")
    # sizes are JSON integers >= 1, never truncated or read from bools or text
    for field, value in (("n", 1.5), ("n", True), ("n", "1"), ("rank", 1.9), ("rank", 0)):
        path.write_text(json.dumps({"n": 1, "rank": 1, "A": [["x1*dy1"]], field: value}))
        with pytest.raises(ValueError, match=f"^connection file .*bad.json: {field} must be "
                                             f"an integer >= 1, got {json.dumps(value)}$"):
            load_connection(str(path))
        buf = io.StringIO()
        assert run(["flatness", "--connection", str(path)], stdout=buf) == USAGE_ERROR
        assert buf.getvalue() == ""
        assert capsys.readouterr().err.startswith("primflat: error: connection file ")
    # every table builds all C(2n, s) index tuples, so n is bounded; matrix
    # products cost about rank^3, so rank is bounded too
    for field, high in (("n", MAX_N), ("rank", MAX_RANK)):
        path.write_text(json.dumps({"n": 1, "rank": 1, "A": [["x1*dy1"]], field: high + 1}))
        with pytest.raises(ValueError, match=f"^connection file .*bad.json: {field} must be "
                                             f"<= {high}, got {high + 1}$"):
            load_connection(str(path))
        buf = io.StringIO()
        assert run(["twist-square", "--connection", str(path), "--trials", "1"],
                   stdout=buf) == USAGE_ERROR
        assert buf.getvalue() == ""
        assert capsys.readouterr().err.startswith("primflat: error: connection file ")


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


@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "2", "--form", r"(x1)*dx1/\dy1 + dx2/\dy2"],
    ["flatness", "--connection", "{conn}"],
    ["ainfty-check", "--n", "1", "--trials", "3", "--seed", "42", "--rank", "2"],
    ["twist-square", "--connection", "{conn}", "--trials", "10", "--seed", "42"],
    ["cone-verify", "--connection", "{conn}", "--trials", "3", "--seed", "42"],
    ["cohomology", "--connection", "{conn}", "--complex", "prim", "--truncation", "2"],
    ["cohomology", "--connection", "{conn}", "--complex", "cone", "--truncation", "2"],
], ids=["decompose", "flatness", "ainfty-check", "twist-square", "cone-verify",
        "cohomology-prim", "cohomology-cone"])
def test_deterministic_output(flat_file, argv):
    argv = [flat_file if a == "{conn}" else a for a in argv]
    first, second = io.StringIO(), io.StringIO()
    assert run(argv, stdout=first) == run(argv, stdout=second)
    assert first.getvalue() == second.getvalue()


def test_usage_and_parse_errors_exit_one(tmp_path, flat_file, capsys):
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
    capsys.readouterr()
    for argv, flag in [
        (["ainfty-check", "--n", "1", "--trials", "-3"], "--trials"),
        (["ainfty-check", "--n", "1", "--rank", "-2"], "--rank"),
        (["ainfty-check", "--n", "0"], "--n"),
        (["ainfty-check", "--n", "1", "--max-deg", "-1"], "--max-deg"),
        (["decompose", "--n", "0", "--form", "dx1"], "--n"),
        # every table builds all C(2n, s) index tuples, so n is bounded
        (["ainfty-check", "--n", str(MAX_N + 1), "--trials", "1"], "--n"),
        (["decompose", "--n", str(MAX_N + 1), "--form", "dx1"], "--n"),
        (["ainfty-check", "--n", "1", "--trials", "1", "--rank", str(MAX_RANK + 1)], "--rank"),
        (["twist-square", "--connection", flat_file, "--trials", "0"], "--trials"),
        (["twist-square", "--connection", flat_file, "--max-deg", "-1"], "--max-deg"),
        # sampling draws once per unit of degree, so a huge bound is refused
        (["ainfty-check", "--n", "1", "--trials", "4", "--max-deg", "10000000"], "--max-deg"),
        (["twist-square", "--connection", flat_file, "--max-deg", "10000000"], "--max-deg"),
        (["cone-verify", "--connection", flat_file, "--trials", "0"], "--trials"),
    ]:
        buf = io.StringIO()
        assert run(argv, stdout=buf) == USAGE_ERROR
        assert buf.getvalue() == ""
        assert capsys.readouterr().err.startswith(f"primflat: error: argument {flag}: ")


@pytest.mark.parametrize("form,message", [
    ("1/0", "division by zero (column 3)"),
    ("(" * 3000 + "x1" + ")" * 3000, "parentheses nested deeper than 100 (column 101)"),
    ("x1^" + "9" * 4301, "number of 4301 digits is too long (column 4)"),
], ids=["zero-denominator", "deep-nesting", "long-exponent"])
def test_bad_form_text_exits_one_naming_the_column(tmp_path, capsys, form, message):
    path = tmp_path / "conn.json"
    path.write_text(json.dumps({"n": 1, "rank": 1, "A": [[f"{form}*dx1"]]}))
    for argv in (["decompose", "--n", "1", "--form", form],
                 ["flatness", "--connection", str(path)]):
        buf = io.StringIO()
        assert run(argv, stdout=buf) == USAGE_ERROR
        assert buf.getvalue() == ""
        assert capsys.readouterr().err == f"primflat: error: {message}\n"


def test_negated_form_goes_after_an_equals_sign(capsys):
    code, report = run_json(["decompose", "--n", "1", "--form=-x1"])
    assert (code, report["components"]) == (0, [{"r": 0, "form": "-x1"}])
    # argparse reads a separate "-x1" as an option, and refuses it as a usage error
    buf = io.StringIO()
    assert run(["decompose", "--n", "1", "--form", "-x1"], stdout=buf) == USAGE_ERROR
    err = capsys.readouterr().err
    assert buf.getvalue() == "" and "Traceback" not in err
    assert err.startswith("primflat: error: argument --form: ") and err.count("\n") == 1


def test_deeply_nested_connection_file_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    buf = io.StringIO()
    assert run(["flatness", "--connection", str(path)], stdout=buf) == USAGE_ERROR
    assert buf.getvalue() == ""
    assert capsys.readouterr().err == (f"primflat: error: connection file {path}: "
                                       "JSON nested too deeply\n")


def test_non_ascii_digit_in_a_connection_exits_one(tmp_path, capsys):
    path = tmp_path / "conn.json"
    path.write_text(json.dumps({"n": 1, "rank": 1, "A": [["x\u0661*dy1"]]}))
    buf = io.StringIO()
    assert run(["flatness", "--connection", str(path)], stdout=buf) == USAGE_ERROR
    assert buf.getvalue() == ""
    assert capsys.readouterr().err == ("primflat: error: unrecognized input "
                                       "'x\u0661*dy1' (column 1)\n")


def test_coefficient_past_the_int_string_limit_exits_one(tmp_path, capsys, int_digit_limit):
    # the curvature of x1^(10^2500) dy1 has a coefficient of about 5,000 digits
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 1, "rank": 1, "A": [["x1^1" + "0" * 2500 + "*dy1"]]}))
    buf = io.StringIO()
    assert run(["flatness", "--connection", str(path)], stdout=buf) == USAGE_ERROR
    assert buf.getvalue() == ""
    err = capsys.readouterr().err
    assert err == "primflat: error: coefficient or exponent too long to print\n"
    assert "set_int_max_str_digits" not in err


def test_long_entry_that_is_not_a_one_form_exits_one_with_a_short_error(tmp_path, capsys):
    # a 300-term 2-form: the error names the entry and quotes only its start
    path = tmp_path / "two_form.json"
    entry = "(" + " + ".join(["x1"] * 300) + ")*dx1/\\dy1"
    path.write_text(json.dumps({"n": 1, "rank": 2, "A": [["0", "0"], ["0", entry]]}))
    buf = io.StringIO()
    assert run(["flatness", "--connection", str(path)], stdout=buf) == USAGE_ERROR
    assert buf.getvalue() == ""
    assert capsys.readouterr().err == (
        "primflat: error: connection entry A[1][1] '(x1 + x1' is not a 1-form\n")


def test_closed_stdout_exits_one_without_a_traceback(flat_file):
    # the read end is closed before the CLI starts, so every write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    try:
        proc = subprocess.run([sys.executable, "-m", "primflat.cli", "flatness",
                               "--connection", flat_file],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == USAGE_ERROR
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.count("primflat: error:") <= 1


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


def test_negative_truncation_exits_one(flat_file, capsys):
    buf = io.StringIO()
    code = run(["cohomology", "--connection", flat_file, "--truncation", "-1"], stdout=buf)
    assert code == USAGE_ERROR
    assert buf.getvalue() == ""
    assert "truncation must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--connection", "{n4}", "--truncation", "6"],
    ["--connection", "{flat}", "--truncation", "1", "--margins", "0,100000"],
], ids=["truncation", "margin"])
def test_oversized_truncation_exits_one(tmp_path, flat_file, capsys, argv):
    # the basis is counted, not listed, so the refusal comes at once
    n4 = tmp_path / "n4.json"
    n4.write_text(json.dumps({"n": 4, "rank": 1, "A": [["0"]]}))
    argv = [{"{n4}": str(n4), "{flat}": flat_file}.get(a, a) for a in argv]
    buf = io.StringIO()
    assert run(["cohomology", *argv], stdout=buf) == USAGE_ERROR
    assert buf.getvalue() == ""
    err = capsys.readouterr().err
    assert err.startswith("primflat: error: truncation ")
    assert err.endswith(f" basis keys at one position, more than MAX_BASIS = {MAX_BASIS}\n")


@pytest.mark.parametrize("margins,problem", [
    ("2", "need at least two distinct margins, got '2'"),
    ("2,2", "need at least two distinct margins, got '2,2'"),
    ("abc", "expected comma-separated integers, got 'abc'"),
    ("-1,0", "margins must be >= 0, got '-1,0'"),
])
def test_bad_margins_exit_one_naming_the_flag(flat_file, capsys, margins, problem):
    # one margin can never stabilize, so it is refused before any elimination
    buf = io.StringIO()
    argv = ["cohomology", "--connection", flat_file, "--truncation", "1",
            f"--margins={margins}"]
    assert run(argv, stdout=buf) == USAGE_ERROR
    assert buf.getvalue() == ""
    assert capsys.readouterr().err == f"primflat: error: argument --margins: {problem}\n"


def test_two_margins_are_reported_as_given(flat_file):
    # the report lists the margins used: distinct, ascending
    for given, used in (("1,2", [1, 2]), ("3,2,3", [2, 3])):
        code, report = run_json(["cohomology", "--connection", flat_file,
                                 "--truncation", "1", "--margins", given])
        assert code == (0 if report["all_stabilized"] else CHECK_FAILED)
        assert report["margins"] == used
        assert all(set(p["dims_by_margin"]) == set(map(str, used)) for p in report["positions"])


def test_unstabilized_position_gets_a_margin_hint(tmp_path, capsys):
    conn = dense_gauge_rank4()
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"n": conn.n, "rank": conn.rank,
                                "A": [[print_form(e) for e in row] for row in conn.A.entries]}))
    argv = ["cohomology", "--connection", str(path), "--truncation", "2", "--margins", "2,3"]
    buf = io.StringIO()
    assert run(argv, stdout=buf) == CHECK_FAILED
    err = capsys.readouterr().err
    # the growth is that of the differential into P0-, from P1-
    assert err == "primflat: P0- did not stabilize (connection_growth 4); try --margins 4,5\n"
    report = json.loads(buf.getvalue())
    assert [p["stabilized"] for p in report["positions"]] == [True, True, True, False]
    assert "connection_growth" not in buf.getvalue()


@pytest.mark.parametrize("margins,hint", [
    ("0,1", "1,2"),
    ("1,2", "2,3"),
], ids=["0,1", "1,2"])
def test_margin_hint_starts_at_the_largest_margin_used(tmp_path, capsys, margins, hint):
    # with A = 0 the growth is 0, but d lowers the coefficient degree (the
    # middle map by two), so the hint never repeats or lowers the failed pair
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 2, "rank": 1, "A": [["0"]]}))
    argv = ["cohomology", "--connection", str(path), "--truncation", "1"]
    buf = io.StringIO()
    assert run([*argv, "--margins", margins], stdout=buf) == CHECK_FAILED
    labels = [p["position"] for p in json.loads(buf.getvalue())["positions"]
              if not p["stabilized"]]
    assert labels == (["P1+", "P2+", "P2-", "P1-", "P0-"] if margins == "0,1" else ["P2-"])
    assert capsys.readouterr().err == "".join(
        f"primflat: {label} did not stabilize (connection_growth 0); try --margins {hint}\n"
        for label in labels)
    assert run([*argv, "--margins", hint], stdout=io.StringIO()) == (
        CHECK_FAILED if hint == "1,2" else 0)


# Connection texts of the pinned reports: a flat and a non-flat n = 2 file,
# a flat n = 1 rank-2 file whose Phi0 = [[1, 1], [0, 0]] has a kernel, and a
# gauged n = 1 rank-2 file with fractional coefficients.
PINNED_CONNECTIONS = {
    "flat": {"n": 2, "rank": 2, "A": [["(x1)*dy1 + (x2)*dy2", "0"], ["0", "0"]]},
    "nonflat": {"n": 2, "rank": 1, "A": [["(x1)*dx2"]]},
    "n1": {"n": 1, "rank": 2, "A": [["x1*dy1", "x1*dy1"], ["0", "0"]]},
    # diag(1, 0) gauged by [[1, 1/3*x1 - 1/2*y1], [0, 1]]: column scales > 1
    "gauged": {"n": 1, "rank": 2, "A": [
        ["(x1)*dy1", "(-1/3)*dx1 + (1/2 + 1/2*x1*y1 - 1/3*x1^2)*dy1"], ["0", "0"]]},
}

PINNED_REPORTS = [
    ("decompose", ["decompose", "--n", "2", "--form", r"(x1)*dx1/\dy1 + dx2/\dy2"], 0,
     "606157e29ca5a0ec6e0781f4f9f8dee884309a18641fef3ae42ab78de1f27b40"),
    ("flatness", ["flatness", "--connection", "{flat}"], 0,
     "c64a3555dc3b074bcfe40e44314d15cc593a91192c54eec61f8b20dc2fc719f3"),
    ("ainfty-check", ["ainfty-check", "--n", "2", "--rank", "2", "--trials", "3",
                      "--seed", "3"], 0,
     "67cf2f40736a4d814d63eb0958931786de02878da2ddf37b22f013142f7ab814"),
    ("twist-square-flat", ["twist-square", "--connection", "{flat}", "--trials", "10",
                           "--seed", "1"], 0,
     "dbfbdcc4f13958c3bf0370f657c814cba120a2a83928c29a0305f1e6d2780ab4"),
    ("twist-square-nonflat", ["twist-square", "--connection", "{nonflat}", "--trials", "10",
                              "--seed", "1"], CHECK_FAILED,
     "2cc14b63dc2d5b29dd6d887cff00e5322518fca4d22d67957f1192c017b3218e"),
    ("cone-verify", ["cone-verify", "--connection", "{flat}", "--trials", "3",
                     "--seed", "4"], 0,
     "3f714923fd0410dab2c8ed83e60814d438e57bf1bf74c743d86e2a15b43f0d8b"),
    ("cohomology-prim", ["cohomology", "--connection", "{n1}", "--complex", "prim",
                         "--truncation", "2"], 0,
     "c2a6119dd9d41f98afe8dfa5232da9e2c1a6372775dc71e7a29e8c762b8bafa9"),
    ("cohomology-cone", ["cohomology", "--connection", "{n1}", "--complex", "cone",
                         "--truncation", "2"], 0,
     "69981ac591a8e9eef0df9ece156ddacd216a7173e194e6a9d161af240ba37e71"),
    ("cohomology-prim-gauged", ["cohomology", "--connection", "{gauged}", "--complex", "prim",
                                "--truncation", "2"], 0,
     "87ed2b8ab30f40d4a668808092818bad45d19704c5c37184ba09129547bb6a8c"),
    ("cohomology-cone-gauged", ["cohomology", "--connection", "{gauged}", "--complex", "cone",
                                "--truncation", "2"], 0,
     "19e43a2f0c5379fe29f7503e8509c58b6dc9d9deee35256ef735e64d1593eaaf"),
]


def pinned_report_digest(tmp_path, argv):
    """Exit code and sha256 of the report, re-emitted without its
    ``connection`` key (the file path); the other bytes are the CLI's own."""
    for name, data in PINNED_CONNECTIONS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    argv = [str(tmp_path / f"{a[1:-1]}.json") if a.startswith("{") else a for a in argv]
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    report = json.loads(buf.getvalue())
    assert buf.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"
    report.pop("connection", None)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", [case[1:] for case in PINNED_REPORTS],
                         ids=[case[0] for case in PINNED_REPORTS])
def test_report_digests_are_pinned(tmp_path, argv, code, digest):
    # a changed digest is a changed report: record why in CHANGES.md
    assert pinned_report_digest(tmp_path, argv) == (code, digest)


def test_failed_stasheff_relation_reports_its_first_counterexample(tmp_path, monkeypatch):
    # the real relations always hold, so k = 2 is made to fail on every draw:
    # the residual is the first input itself
    real = cli.check_stasheff
    monkeypatch.setattr(cli, "check_stasheff",
                        lambda k, elems: elems[0] if k == 2 else real(k, elems))
    argv = ["ainfty-check", "--n", "1", "--trials", "2", "--seed", "5"]
    code, report = run_json(argv)
    assert code == CHECK_FAILED and report["all_passed"] is False
    assert [rel["failures"] for rel in report["relations"]] == [0, 2, 0, 0]
    first = report["relations"][1]["first_counterexample"]
    assert len(first["inputs"]) == 2 and first["residual"] == first["inputs"][0]
    assert all(rel["first_counterexample"] is None
               for rel in report["relations"] if rel["k"] != 2)
    assert pinned_report_digest(tmp_path, argv) == (
        CHECK_FAILED, "0ed7db505345116646fcf2754e827d66e49689f5cb8ed5eba00340e069381a4b")


def test_failed_cone_identity_reports_the_repr_of_its_draw(tmp_path, monkeypatch):
    # the homotopy identity always holds, so its residual is made the draw itself
    draws = []

    def residual(conn, a):
        draws.append(a)
        return a

    monkeypatch.setattr(cone, "residual_homotopy", residual)
    argv = ["cone-verify", "--connection", "{n1}", "--trials", "2", "--seed", "4"]
    assert pinned_report_digest(tmp_path, argv) == (
        CHECK_FAILED, "25be34ab470628bc185352b0753147a2e2da2f342e2ce3c0cad89be7bb128604")
    assert len(draws) == 2
    first = repr(draws[0])
    code, report = run_json(["cone-verify", "--connection", str(tmp_path / "n1.json"),
                             "--trials", "2", "--seed", "4"])
    assert code == CHECK_FAILED and report["all_passed"] is False
    identities = {item["name"]: item for item in report["identities"]}
    assert identities["homotopy"]["failures"] == 2
    assert identities["homotopy"]["counterexample"] == first
    assert all(item["failures"] == 0 and item["counterexample"] is None
               for name, item in identities.items() if name != "homotopy")
