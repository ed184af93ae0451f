"""The benchmark's tracer still sees the layers the CLI runs through.

``perfbench/tracing.py`` wraps module-level functions by name, so a layer
reached through a stored reference would record no span and read 0 in the
per-layer metrics without any error.  This runs four subcommands under the
tracer and checks that each rerouted layer, and each fiber-form kernel the
identity checks run on, recorded a span.
"""

import importlib.util
import io
import json
import os

from primflat.cli import run

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_rerouted_layers(tmp_path):
    conn = tmp_path / "flat.json"
    conn.write_text(json.dumps({"n": 1, "rank": 2, "A": [["(x1)*dy1", "0"], ["0", "0"]]}))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (["decompose", "--n", "2", "--form", r"(x1)*dx1/\dy1 + dx2/\dy2"],
                     ["cone-verify", "--connection", str(conn), "--trials", "2"],
                     ["twist-square", "--connection", str(conn), "--trials", "2"],
                     ["ainfty-check", "--n", "2", "--trials", "2"]):
            assert run(argv, stdout=io.StringIO()) == 0, argv
    finally:
        tracer.uninstall()
    calls, _ = tracing.self_times(tracer.span_name, tracer.parent, tracer.start, tracer.end)
    recorded = {name: calls.get(nid, 0) for nid, name in enumerate(tracer.names)}
    for layer in ("lefschetz.decompose", "cone.cone_split", "cone.map_f", "cone.cone_d",
                  "twist.twisted_m1", "ainfinity.m2", "dsl.parse_form",
                  "sampling.rand_prim_element", "sampling.rand_cone_element",
                  "connection.covariant_d", "forms.wedge", "forms.exterior_d",
                  "lefschetz.pi_p", "lefschetz.L_power", "lefschetz.is_primitive"):
        assert recorded[layer] > 0, layer
