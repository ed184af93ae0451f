"""Smoke tests of ``tools/same_cohomology.py``: a checkout against itself,
and against a copy whose cohomology report holds one more field."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def same_cohomology(a, b):
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", "same_cohomology.py"),
                           a, b, "--seeds", "2"],
                          capture_output=True, text=True, timeout=300)


def test_a_checkout_against_itself():
    result = same_cohomology(ROOT, ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "4 cohomology runs over 2 seeds agree\n"


def test_a_side_with_other_stdout_is_refused(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src", "primflat"), tmp_path / "src" / "primflat",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "primflat" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"all_stabilized": rep.all_stabilized}') == 1
    cli.write_text(text.replace('"all_stabilized": rep.all_stabilized}',
                                '"all_stabilized": rep.all_stabilized, "extra": 1}'),
                   encoding="utf-8")
    result = same_cohomology(ROOT, str(tmp_path))
    assert result.returncode == 1
    assert result.stdout.startswith("seed 0: cohomology --connection ")
    assert result.stdout.endswith(": exit code or stdout differs between A and B\n")
