"""Property test of the two text boundaries: form text and connection files.

Whatever text reaches ``decompose --form`` or a ``flatness`` connection
file, the CLI exits 0 or 1.  On exit 0 stdout is one JSON document and
stderr is empty; on exit 1 stdout is empty and stderr holds exactly one
``primflat: error:`` line.  Nothing escapes ``cli.run``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from primflat.cli import MAX_N, MAX_RANK, USAGE_ERROR, run
from primflat.dsl import MAX_NESTING

SETTINGS = settings(max_examples=300, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# mostly ASCII, so that most draws get past the tokenizer
DIGITS = st.sampled_from(["0", "1", "2", "3", "4", "5", "12", "007", "30", "2", "\u0661",
                         "\uff12"])
# around the interpreter's 4300-digit limit on int() of a decimal string
LONG_DIGITS = st.integers(1000, 5000).map(lambda k: "1" + "0" * k)
# names in and out of range for n <= 3, and unknown ones
NAMES = st.builds(lambda head, index: head + index,
                  st.sampled_from(["x", "y", "dx", "dy", "x", "dx", "z", ""]),
                  st.sampled_from(["1", "2", "3", "1", "2", "1", "0", "4", "01", "1", "\u0661",
                                   "\u00b2"]))
ATOMS = st.one_of(
    DIGITS,
    st.builds(lambda p, q: f"{p}/{q}", DIGITS, DIGITS),
    NAMES,
    st.builds(lambda name, power: f"{name}^{power}", NAMES, st.one_of(DIGITS, LONG_DIGITS)))
OPERATORS = st.sampled_from(["+", "-", "*", "/\\", " + ", " * "])
STRAY = st.text("+-*/^()\\ \t", max_size=3)


def _nest(depth: int, body: str, unbalanced: int) -> str:
    return "(" * depth + body + ")" * (depth + unbalanced)


FORMS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.builds(lambda a, op, b: a + op + b, inner, OPERATORS, inner),
        inner.map(lambda text: f"({text})"),
        inner.map(lambda text: f"-({text})"),
        st.builds(lambda a, stray, b: a + stray + b, inner, STRAY, inner)),
    max_leaves=8)
# in-range names of n = 1 and ASCII numbers only, so that most draws parse
PARSING = st.recursive(
    st.one_of(st.sampled_from(["x1", "y1", "dx1", "dy1", "2", "3/4"]),
              st.builds("x1^{}*dy1".format, LONG_DIGITS)),
    lambda inner: st.builds("({}){}({})".format, inner, OPERATORS, inner),
    max_leaves=6)
FORM_TEXT = st.one_of(
    PARSING,
    FORMS,
    st.builds(_nest, st.integers(MAX_NESTING - 2, MAX_NESTING + 2), FORMS,
              st.sampled_from([0, 0, 0, 1, -1])),
    st.text(max_size=12))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, stdout=out)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err):
    assert code in (0, USAGE_ERROR), (code, err)
    if code == 0:
        json.loads(out)
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("primflat: error: ") and err.count("\n") == 1, err


@SETTINGS
@given(n=st.integers(1, 3), text=FORM_TEXT)
def test_form_text_exits_zero_or_one(n, text):
    # "--form=" keeps argparse from reading a leading "-" as an option
    _assert_contract(*_run(["decompose", "--n", str(n), f"--form={text}"]))


def _square(size, entries):
    return st.lists(st.lists(entries, min_size=size, max_size=size),
                    min_size=size, max_size=size)


def _document(n, rank, entries):
    return st.builds(lambda rows: {"n": n, "rank": rank, "A": rows}, _square(rank, entries))


CHARTS = st.one_of(
    # charts of n <= 3 with entries from the form strategy
    st.integers(1, 3).flatmap(lambda n: st.integers(1, 2).flatmap(
        lambda rank: _document(n, rank, st.one_of(st.just("0"), FORM_TEXT)))),
    # n and rank on either side of their bounds, with zero entries
    st.tuples(st.sampled_from([MAX_N, MAX_N + 1]), st.sampled_from([MAX_RANK, MAX_RANK + 1]))
    .flatmap(lambda sizes: _document(*sizes, st.just("0"))))
SIZES = st.one_of(st.integers(-1, 3), st.sampled_from(["0", "1", True, 1.5, None]))
JSON_VALUES = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                                     st.text(max_size=4)),
                           lambda inner: st.lists(inner, max_size=3), max_leaves=6)
MISSHAPEN = st.one_of(
    st.builds(lambda n, rank: {"n": n, "rank": rank, "A": [["0"]]}, SIZES, SIZES),
    st.builds(lambda A: {"n": 1, "rank": 1, "A": A}, JSON_VALUES),
    st.builds(lambda rank, A: {"n": 1, "rank": rank, "A": A}, st.integers(1, 2),
              st.one_of(_square(1, st.just("0")), _square(3, st.just("0")),
                        _square(2, JSON_VALUES))),
    JSON_VALUES,
    st.dictionaries(st.sampled_from(["n", "rank", "A", "B"]), JSON_VALUES, max_size=4))
# malformed JSON: a document cut short
TRUNCATED = st.builds(lambda text, cut: text[:cut], st.one_of(CHARTS, MISSHAPEN).map(json.dumps),
                      st.integers(0, 40))


@pytest.fixture(scope="module")
def connection_path(tmp_path_factory):
    return tmp_path_factory.mktemp("boundaries") / "conn.json"


def _flatness(path, text):
    path.write_text(text, encoding="utf-8")
    _assert_contract(*_run(["flatness", "--connection", str(path)]))


@SETTINGS
@given(document=CHARTS)
def test_connection_entries_exit_zero_or_one(connection_path, document):
    _flatness(connection_path, json.dumps(document))


@SETTINGS
@given(text=st.one_of(MISSHAPEN.map(json.dumps), TRUNCATED))
def test_misshapen_connection_files_exit_zero_or_one(connection_path, text):
    _flatness(connection_path, text)
