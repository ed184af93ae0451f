"""Benchmark entry point: one workload run, or all of them in turn.

    python3 perfbench/run.py --workload frame-cohomology --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each run starts worker processes one at a
time, never two at once: first ``SETUP_PROBES`` processes that only do the
workload's set-up (untraced runs only), then the worker that also runs the
operations.  Each
worker's set-up time runs from the moment this process starts it until its
set-up is done, so it includes interpreter start; ``setup_s`` is the median
over all workers of the run.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
The line before it records, per operation, the sha256 of its stdout and its
median time.  Exits non-zero, printing no result, when the program is not
there or a worker fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import per_layer_metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 10
RUN_DEADLINE_S = 170.0


class RunError(Exception):
    pass


def _worker(args, workload: str, workdir: str, setup_only: bool,
            timeout: float) -> tuple[float, dict]:
    """Start one worker, wait for it, return (set-up seconds, its result)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker for {workload} overran its {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RunError(f"worker for {workload} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["setup_done"] - started, result


def run_workload(args, workload: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(".bench_build", "perfbench", workload)
    setup_samples = []
    problems = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        seconds, result = _worker(args, workload, workdir, True, deadline - time.monotonic())
        setup_samples.append(seconds)
        problems += result["problems"]
    seconds, result = _worker(args, workload, workdir, False, deadline - time.monotonic())
    setup_samples.append(seconds)
    problems += result["problems"]
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _better in per_layer_metric_names()}
    else:
        metrics = {
            "run_s": {"value": result["run_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    record = {"workload": workload, "seed": args.seed, "rounds": result["rounds"],
              "problems": problems, "setup_s_samples": setup_samples,
              "op_seconds": result["op_seconds"], "round_seconds": result["round_seconds"],
              "stdout_sha256": result["stdout_sha256"]}
    final = {"correct": not problems, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    return record, final


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "primflat", "__init__.py")):
        print("run.py: run from the root of a primflat checkout (no src/primflat here)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            record, final = run_workload(args, name)
        except RunError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(record, sort_keys=True))
        if args.workload == "all":
            final = {"workload": name, **final}
        print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
