"""Time two checkouts on one benchmark workload, alternating rounds in one process.

    python3 tools/ab_rounds.py PARENT_CHECKOUT CHANGED_CHECKOUT \\
        --workload gauged-cohomology --seed 1 --rounds 10

Side A is the first checkout, side B the second.  Each side's
``src/primflat`` is imported under its own set of ``sys.modules`` entries,
and that set is swapped in before each of its rounds, so that a module
imported lazily during a round (``sampling.rand_cone_element`` imports
``cone`` that way) comes from the same side.  The workload is built from
``perfbench/workloads.py`` of this tool's own checkout, which is only read;
its connection files go to a temporary directory.

A round runs every operation of the workload once through ``cli.run`` and
is timed in CPU seconds of this process.  One untimed round per side warms
the caches and records each operation's stdout; every later round must
reproduce it, and both sides must agree, or the tool exits 1.  Timed rounds
come in pairs whose order alternates (AB, BA, AB, ...).  The tool prints
each side's median CPU time per round beside the line count of its
``src/primflat/*.py`` (as ``wc -l`` counts them), and the median of the
per-pair B/A ratios; then, one line per operation in workload order, the
median of that operation's per-pair B/A ratios of CPU time, so that a
claim shows which commands moved.
"""

from __future__ import annotations

import argparse
import glob
import io
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, connection_path  # noqa: E402


def _own(name: str) -> bool:
    return name == "primflat" or name.startswith("primflat.")


def _swap_in(modules: dict) -> None:
    for name in [name for name in sys.modules if _own(name)]:
        del sys.modules[name]
    sys.modules.update(modules)


class Side:
    """One checkout's package, imported under its own module set."""

    def __init__(self, label: str, checkout: str):
        self.label = label
        self.checkout = os.path.abspath(checkout)
        src = os.path.join(self.checkout, "src")
        _swap_in({})
        sys.path.insert(0, src)
        try:
            import primflat.cli
        finally:
            sys.path.remove(src)
        if not primflat.__file__.startswith(src + os.sep):
            raise SystemExit(f"{label}: primflat imported from {primflat.__file__}")
        self.cli = primflat.cli
        self.modules = {name: module for name, module in sys.modules.items() if _own(name)}
        self.seconds: list[float] = []
        self.op_seconds: list[list[float]] = []  # per timed round, per operation

    def round(self, operations) -> tuple[list, list[float]]:
        """Run every operation once: ``(exit code, stdout)`` per operation,
        and the CPU seconds each operation took."""
        _swap_in(self.modules)
        outputs, seconds = [], []
        for op in operations:
            buffer = io.StringIO()
            start = time.process_time()
            code = self.cli.run(list(op.argv), stdout=buffer)
            seconds.append(time.process_time() - start)
            outputs.append((code, buffer.getvalue()))
        # keep what the round imported lazily
        self.modules = {name: module for name, module in sys.modules.items() if _own(name)}
        return outputs, seconds

    def lines(self) -> int:
        """The newlines in this side's ``src/primflat/*.py``."""
        total = 0
        for path in glob.glob(os.path.join(self.checkout, "src", "primflat", "*.py")):
            with open(path, "rb") as handle:
                total += handle.read().count(b"\n")
        return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="checkout A (the parent)")
    parser.add_argument("b", help="checkout B (the change)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds per side")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sides = [Side("A", args.a), Side("B", args.b)]
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        for conn in workload.connections:
            with open(connection_path(workdir, conn.name), "w", encoding="utf-8") as handle:
                handle.write(conn.document)
        ops = workload.operations
        expected = [side.round(ops)[0] for side in sides]
        for op, a_out, b_out in zip(ops, *expected):
            if a_out != b_out:
                print(f"{op.label}: exit code or stdout differs between A and B")
                return 1
        for pair in range(args.rounds):
            for side in (sides if pair % 2 == 0 else sides[::-1]):
                outputs, seconds = side.round(ops)
                if outputs != expected[0]:
                    print(f"{side.label}: output changed between rounds")
                    return 1
                side.seconds.append(sum(seconds))
                side.op_seconds.append(seconds)
    for side in sides:
        print(f"{side.label} {side.checkout}: median {statistics.median(side.seconds):.4f} s "
              f"CPU per round over {len(side.seconds)} rounds, "
              f"{side.lines()} lines in src/primflat/*.py")
    ratios = [b / a for a, b in zip(sides[0].seconds, sides[1].seconds)]
    print(f"B/A per round: median {statistics.median(ratios):.3f} "
          f"(min {min(ratios):.3f}, max {max(ratios):.3f})")
    for i, op in enumerate(ops):
        ratios = [b[i] / a[i] for a, b in zip(sides[0].op_seconds, sides[1].op_seconds)]
        print(f"  {op.label}: B/A median {statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
