"""Smoke tests of ``tools/ab_rounds.py``: a checkout against itself, and
against a copy whose CLI prints one line more."""

import glob
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ab_rounds(a, b):
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", "ab_rounds.py"), a, b,
                           "--workload", "frame-cohomology", "--rounds", "2"],
                          capture_output=True, text=True, timeout=300)


def test_a_checkout_against_itself():
    result = ab_rounds(ROOT, ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
    a, b, ratio, *per_op = result.stdout.splitlines()
    lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "primflat", "*.py")):
        with open(path, encoding="utf-8") as handle:
            lines += len(handle.read().splitlines())
    for line, label in ((a, "A"), (b, "B")):
        assert line.startswith(f"{label} {ROOT}: median ")
        assert line.endswith(f" s CPU per round over 2 rounds, {lines} lines in src/primflat/*.py")
    assert ratio.startswith("B/A per round: median ")
    # then one line per operation, in workload order
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS
    labels = [op.label for op in WORKLOADS["frame-cohomology"](1, "unused").operations]
    assert len(per_op) == len(labels) == 4
    for line, label in zip(per_op, labels):
        assert re.fullmatch(rf"  {re.escape(label)}: B/A median \d+\.\d{{3}}", line), line


def test_a_side_with_other_stdout_is_refused(tmp_path):
    # each side runs its own modules: the copy's extra line is seen
    shutil.copytree(os.path.join(ROOT, "src", "primflat"), tmp_path / "src" / "primflat",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "primflat" / "cli.py", "a", encoding="utf-8") as handle:
        handle.write("\n_run = run\n\n\ndef run(argv, stdout=None):\n"
                     "    code = _run(argv, stdout=stdout)\n"
                     "    stdout.write('one line more\\n')\n"
                     "    return code\n")
    result = ab_rounds(ROOT, str(tmp_path))
    assert result.returncode == 1
    assert result.stdout.endswith(": exit code or stdout differs between A and B\n")
