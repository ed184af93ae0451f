"""Tests of the benchmark's own helpers; they run in seconds, no workloads.

    python3 -m pytest perfbench -q      (from the root of the repository)
"""

import json
import os
import random
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import pytest  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def F(rows):
    return [[Fraction(v) for v in row] for row in rows]


@pytest.mark.parametrize("phi0, dims", [
    ([[1, 0], [0, 0]], (1, 1)),
    ([[0, 1], [0, 0]], (1, 1)),
    ([[1, 2], [2, 4]], (1, 1)),
    ([[1, 0, 0], [0, 0, 0], [0, 0, 2]], (1, 1)),
    ([[1, 2], [3, 4]], (0, 0)),
    ([[0, 0, 0]] * 3, (3, 3)),
    ([[1]], (0, 0)),
    ([[1, 1, 1], [2, 2, 2]], (2, 1)),
])
def test_kernel_cokernel_dims(phi0, dims):
    assert checks.kernel_cokernel_dims(F(phi0)) == dims


def test_expected_table_has_zeros_above_the_second_entry():
    assert checks.expected_cohomology_dims(2, F([[1, 0], [0, 0]])) == [1, 1, 0, 0, 0, 0]


@pytest.mark.parametrize("n, rank, seed", [(1, 3, 1), (2, 2, 2), (3, 2, 3), (2, 3, 4)])
def test_gauge_text_parses_flat_and_matches_the_gauge_transform(tmp_path, n, rank, seed):
    from primflat import Form, MatrixForm, analyze_flatness, generate_flat, parse_form
    from primflat.cli import load_connection

    nil = inputs.random_nilpotent(random.Random(seed), n, rank, coords_per_entry=2)
    phi0 = F([[1 if i == j == 0 else 0 for j in range(rank)] for i in range(rank)])
    path = tmp_path / "conn.json"
    path.write_text(inputs.connection_document(n, phi0, nil))
    conn = load_connection(str(path))
    assert analyze_flatness(conn).is_symplectically_flat

    def g_entry(i, j):
        if i == j:
            return Form.const(n, 1)
        if (i, j) in nil:
            return parse_form(inputs.linear_text(n, nil[(i, j)]), n)
        return Form.zero(n, 0)

    g = MatrixForm([[g_entry(i, j) for j in range(rank)] for i in range(rank)], 0)
    assert conn.A == generate_flat(n, rank, phi0, gauge=g).A


def test_constant_frame_text_has_no_gauge_terms():
    rows = inputs.gauge_connection_text(2, F([[1, 0], [0, 0]]), {})
    assert rows == [["(1)*(x1*dy1 + x2*dy2)", "0"], ["0", "0"]]


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7];
    # a second root d [10, 12] repeats name 1 (the name of a)
    names = [0, 1, 2, 3, 1]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 10.0]
    end = [10.0, 4.0, 9.0, 7.0, 12.0]
    calls, self_s = tracing.self_times(names, parent, start, end)
    assert calls == {0: 1, 1: 2, 2: 1, 3: 1}
    assert self_s == {0: 3.0, 1: 5.0, 2: 3.0, 3: 1.0}


def test_tracer_restores_every_wrapped_name():
    import primflat
    import primflat.cohomology
    import primflat.twist

    before = (primflat.cohomology.twisted_m1, primflat.twist.twisted_m1,
              primflat.scalars.Poly.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert primflat.cohomology.twisted_m1 is not before[0]
        assert primflat.cohomology.twisted_m1 is primflat.twist.twisted_m1
    finally:
        tracer.uninstall()
    after = (primflat.cohomology.twisted_m1, primflat.twist.twisted_m1,
             primflat.scalars.Poly.__mul__)
    assert after == before


def test_cohomology_check_reports_a_wrong_table():
    report = {"complex": "prim", "all_stabilized": True, "positions": [
        {"position": f"P{s}{side}", "dims_by_margin": {"2": d, "3": d}, "dim": d,
         "witnesses": []}
        for (s, side), d in zip([(0, "+"), (1, "+"), (1, "-"), (0, "-")], [0, 1, 0, 0])]}
    problems = checks.check_cohomology(None, report, "prim", 1, F([[1, 0], [0, 0]]), None)
    assert any("dims" in p for p in problems)
    assert any("witnesses" in p for p in problems)


def test_benchmark_file_lists_the_workloads_and_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metric_names()
