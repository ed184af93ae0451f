"""One workload run in one fresh process: set-up, timed rounds, checks, trace.

Started by ``run.py`` from the root of a checkout; imports the package from
``src/`` of that checkout and nothing else.  Set-up imports the package,
writes the workload's connection files and runs ``flatness`` on each.  With
``--setup-only`` the process stops there.  Otherwise it runs whole rounds of
the workload's operations through ``primflat.cli.run`` until ``--seconds``
have passed, checks the outputs, and with ``--trace 1`` runs one more round
with the layer wrappers installed.  The last line of stdout is one JSON
object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import CLI_KINDS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, connection_path  # noqa: E402

TIME_LIMIT_S = 60.0
"""An operation that takes longer than this has failed."""


def import_program():
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "primflat", "__init__.py")):
        raise SystemExit("worker: no src/primflat in the working directory")
    sys.path.insert(0, src)
    import primflat
    import primflat.cli
    if not os.path.abspath(primflat.__file__).startswith(src + os.sep):
        raise SystemExit(f"worker: primflat imported from {primflat.__file__}")
    return primflat


def run_op(cli, argv) -> tuple[int | None, str, float]:
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.run(list(argv), stdout=buffer)
    except Exception:  # an escaped error is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, buffer.getvalue(), time.perf_counter() - start


def setup(pf, workload: Workload, workdir: str) -> list[str]:
    os.makedirs(workdir, exist_ok=True)
    problems = []
    for conn in workload.connections:
        path = connection_path(workdir, conn.name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(conn.document)
        code, out, _ = run_op(pf.cli, ["flatness", "--connection", path])
        if code != 0 or json.loads(out)["is_symplectically_flat"] is not conn.flat:
            problems.append(f"setup: flatness of {conn.name} is wrong (exit {code})")
    return problems


def _option(argv, flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def check_report(pf, op, report: dict, specs: dict, loaded: dict, workdir: str) -> list[str]:
    if op.kind.startswith("cohomology_"):
        spec = specs[op.connection]
        if op.connection not in loaded:
            loaded[op.connection] = pf.cli.load_connection(connection_path(workdir, spec.name))
        return checks.check_cohomology(pf, report, op.kind.split("_")[1], spec.n,
                                       spec.phi0, loaded[op.connection])
    seed = _option(op.argv, "--seed")
    if op.kind == "ainfty_check":
        return checks.check_ainfty(report, _option(op.argv, "--n"),
                                   _option(op.argv, "--rank"), op.trials, seed)
    if op.kind == "twist_square":
        return checks.check_twist_square(report, specs[op.connection].flat, op.trials, seed)
    return checks.check_cone_verify(report, op.trials, seed)


def check_outputs(pf, workload: Workload, workdir: str, outputs: dict) -> dict[str, list[str]]:
    """Problems per operation label, from the first round's outputs."""
    specs = {c.name: c for c in workload.connections}
    loaded = {}
    problems: dict[str, list[str]] = {}
    reports = {}
    for op in workload.operations:
        code, text = outputs[op.label]
        if code != op.expected_code:
            continue  # counted as failed by its exit code already
        report = reports[op.label] = json.loads(text)
        try:
            problems[op.label] = check_report(pf, op, report, specs, loaded, workdir)
        except Exception as exc:  # a witness the program cannot take back is wrong
            problems[op.label] = [f"check raised {type(exc).__name__}: {exc}"]
    for op in workload.operations:
        if op.kind != "cohomology_prim":
            continue
        cone = next(o for o in workload.operations
                    if o.kind == "cohomology_cone" and o.connection == op.connection)
        if op.label in reports and cone.label in reports:
            problems[op.label] += checks.check_same_dims(reports[op.label],
                                                         reports[cone.label])
    return {label: found for label, found in problems.items() if found}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    pf = import_program()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_problems = setup(pf, workload, args.workdir)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "problems": setup_problems}))
        return 0

    ops = workload.operations
    times: dict[str, list[float]] = {op.label: [] for op in ops}
    digests: dict[str, str] = {}
    first: dict[str, tuple] = {}
    failed_by_label = {op.label: 0 for op in ops}
    problems = list(setup_problems)
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            code, out, seconds = run_op(pf.cli, op.argv)
            times[op.label].append(seconds)
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            if op.label not in first:
                first[op.label] = (code, out)
                digests[op.label] = digest
            elif digest != digests[op.label]:
                problems.append(f"{op.label}: stdout differs between rounds")
            if code != op.expected_code or seconds > TIME_LIMIT_S:
                failed_by_label[op.label] += 1
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = check_outputs(pf, workload, args.workdir, first)
    for label, found in wrong.items():
        problems += [f"{label}: {p}" for p in found]
        # the output is the same in every round, so it is wrong in every round
        failed_by_label[label] = rounds
    attempted = rounds * len(ops)

    op_seconds = {label: statistics.median(ts) for label, ts in times.items()}
    result = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": sum(failed_by_label.values()),
        "problems": problems,
        "op_seconds": op_seconds,
        "round_seconds": [sum(ts[r] for ts in times.values()) for r in range(rounds)],
        "stdout_sha256": digests,
        "run_s": sum(op_seconds.values()),
        "peak_rss_mib": peak_rss_mib,
        "setup_done": setup_done,
    }
    if args.trace:
        result.update(traced_round(pf, workload, args.workdir, set(wrong), result))
    print(json.dumps(result))
    return 0


def traced_round(pf, workload: Workload, workdir: str, wrong: set,
                 result: dict) -> dict:
    """One more round with the layer wrappers in place; per-layer metrics."""
    tracer = Tracer()
    tracer.install()
    traced_s = 0.0
    failed = 0
    try:
        for op in workload.operations:
            code, out, seconds = tracer.root(f"op.{op.kind}",
                                             lambda op=op: run_op(pf.cli, op.argv))
            traced_s += seconds
            same = (hashlib.sha256(out.encode("utf-8")).hexdigest()
                    == result["stdout_sha256"][op.label])
            if not same:
                result["problems"].append(f"{op.label}: traced stdout differs")
            if (code != op.expected_code or seconds > TIME_LIMIT_S
                    or op.label in wrong or not same):
                failed += 1
    finally:
        tracer.uninstall()
    tracer.write(f"{workdir}/trace")
    layers = tracer.layer_metrics()
    for kind in CLI_KINDS:
        layers[f"cli.{kind}.s"] = sum(result["op_seconds"][op.label]
                                      for op in workload.operations
                                      if op.kind == kind)
    layers["trace.overhead_ratio"] = traced_s / result["run_s"]
    layers["trace.spans"] = len(tracer.start)
    return {"attempted": result["attempted"] + len(workload.operations),
            "failed": result["failed"] + failed, "layers": layers,
            "traced_s": traced_s}


if __name__ == "__main__":
    sys.exit(main())
