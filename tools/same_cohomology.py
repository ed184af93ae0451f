"""Compare two checkouts' ``cohomology`` output on seeded random connections.

    python3 tools/same_cohomology.py PARENT_CHECKOUT CHANGED_CHECKOUT --seeds 40

Each seed draws one connection: n in 1..2, rank in 1..3, an upper
triangular constant ``Phi0`` with entries in 0..2 and, for about half the
seeds, a dense gauge ``g = 1 + N``; the document is written by
``perfbench/inputs.py``, which is only read.  The seed also draws a
truncation and two or three margins in 0..3.  Both checkouts run
``cohomology`` on it, ``--complex prim`` and ``--complex cone``, through
``cli.run``, each under its own ``sys.modules`` set (``ab_rounds.Side``),
with stderr discarded.  Any difference in exit code or stdout is printed,
and the tool exits 1; otherwise it prints how many runs agreed and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import sys
import tempfile
from fractions import Fraction
from types import SimpleNamespace

from ab_rounds import Side  # puts perfbench/ on sys.path

from inputs import connection_document, random_nilpotent


def draw(seed: int) -> tuple[str, int, str]:
    """``(connection document, truncation, margins)`` for one seed."""
    rng = random.Random(f"same-cohomology:{seed}")
    n = rng.randint(1, 2)
    rank = rng.randint(1, 3)
    phi0 = [[Fraction(rng.randint(0, 2) if i <= j else 0) for j in range(rank)]
            for i in range(rank)]
    gauged = rng.random() < 0.5
    nil = random_nilpotent(rng, n, rank, rng.randint(1, 2 * n)) if gauged else {}
    truncation = rng.randint(1, 4 - n)
    margins = sorted(rng.sample(range(4), rng.randint(2, 3)))
    return connection_document(n, phi0, nil), truncation, ",".join(map(str, margins))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="checkout A (the parent)")
    parser.add_argument("b", help="checkout B (the change)")
    parser.add_argument("--seeds", type=int, default=40, help="seeds 0 .. N-1")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    sides = [Side("A", args.a), Side("B", args.b)]
    with tempfile.TemporaryDirectory() as workdir:
        for seed in range(args.seeds):
            document, truncation, margins = draw(seed)
            path = os.path.join(workdir, f"seed{seed}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(document)
            ops = [SimpleNamespace(argv=("cohomology", "--connection", path, "--complex", kind,
                                         "--truncation", str(truncation), "--margins", margins))
                   for kind in ("prim", "cone")]
            with contextlib.redirect_stderr(io.StringIO()):
                a_out, b_out = [side.round(ops)[0] for side in sides]
            for op, a, b in zip(ops, a_out, b_out):
                if a != b:
                    print(f"seed {seed}: {' '.join(op.argv)}: exit code or stdout differs "
                          "between A and B")
                    return 1
    print(f"{2 * args.seeds} cohomology runs over {args.seeds} seeds agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
