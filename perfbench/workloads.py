"""The three workloads: their connections and their fixed operation lists.

Every workload is one list of CLI operations, run in order as one round.
Sizes are chosen so that a round takes about six seconds on one core, which
gives each operation five or more timed samples in a 30-second run, and so
that each workload leaves one layer doing most of the work:

* ``frame-cohomology``: constant-frame connections; column assembly through
  ``twisted_m1`` / ``cone_d`` dominates, elimination is small.
* ``gauged-cohomology``: one densely gauged rank-3 connection on n = 1;
  fill-in and coefficient growth make ``Echelon.add`` dominate.
* ``identities``: the randomized exact identity checks; no elimination and
  no cohomology assembly at all.

Connections are written by ``inputs`` from the workload seed; the seed also
derives every ``--seed`` passed to the CLI.  The constant-frame connections
of ``frame-cohomology`` have no free parameters, so that workload does the
same work for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from inputs import connection_document, random_nilpotent

NONFLAT_DOCUMENT = json.dumps({"n": 2, "rank": 1, "A": [["x1*dx2"]]}) + "\n"
"""A fixed connection with primitive curvature dx1/\\dx2: not flat."""


@dataclass(frozen=True)
class ConnectionSpec:
    name: str
    n: int
    phi0: list  # rank x rank Fractions; None for the fixed non-flat file
    document: str

    @property
    def flat(self) -> bool:
        return self.phi0 is not None


@dataclass(frozen=True)
class Operation:
    """One CLI invocation with the exit code a correct program gives."""

    label: str  # unique within the workload
    kind: str   # cohomology_prim | cohomology_cone | ainfty_check | twist_square | cone_verify
    argv: tuple
    expected_code: int = 0
    connection: str | None = None
    trials: int | None = None


@dataclass
class Workload:
    name: str
    connections: list[ConnectionSpec]
    operations: list[Operation]


def _spec(name: str, n: int, phi0_rows, nil) -> ConnectionSpec:
    phi0 = [[Fraction(v) for v in row] for row in phi0_rows]
    return ConnectionSpec(name, n, phi0, connection_document(n, phi0, nil))


def connection_path(workdir: str, name: str) -> str:
    return f"{workdir}/{name}.json"


def _cohomology_ops(workdir: str, conn: ConnectionSpec, truncation: int,
                    margins: str = "2,3") -> list[Operation]:
    path = connection_path(workdir, conn.name)
    return [Operation(f"cohomology-{complex_}-{conn.name}", f"cohomology_{complex_}",
                      ("cohomology", "--connection", path, "--complex", complex_,
                       "--truncation", str(truncation), "--margins", margins),
                      connection=conn.name)
            for complex_ in ("prim", "cone")]


def frame_cohomology(seed: int, workdir: str) -> Workload:
    f22 = _spec("frame-n2-r2", 2, [[1, 0], [0, 0]], {})
    f31 = _spec("frame-n3-r1", 3, [[1]], {})
    # margins 1,2 on n=3 keep a round short enough for several rounds per run
    ops = _cohomology_ops(workdir, f22, 2) + _cohomology_ops(workdir, f31, 0, "1,2")
    return Workload("frame-cohomology", [f22, f31], ops)


def gauged_cohomology(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"gauged-cohomology:{seed}")
    g13 = _spec("gauged-n1-r3", 1, [[1, 0, 0], [0, 0, 0], [0, 0, 2]],
                random_nilpotent(rng, 1, 3, coords_per_entry=2))
    return Workload("gauged-cohomology", [g13], _cohomology_ops(workdir, g13, 7))


def identities(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"identities:{seed}")
    g22 = _spec("gauged-n2-r2", 2, [[1, 0], [0, 0]],
                random_nilpotent(rng, 2, 2, coords_per_entry=2))
    g32 = _spec("gauged-n3-r2", 3, [[1, 0], [0, 2]],
                random_nilpotent(rng, 3, 2, coords_per_entry=2))
    nonflat = ConnectionSpec("nonflat-n2-r1", 2, None, NONFLAT_DOCUMENT)

    def cli_seed() -> str:
        return str(rng.randrange(1_000_000))

    def ainfty(n: int, rank: int, trials: int) -> Operation:
        return Operation(f"ainfty-check-n{n}-r{rank}", "ainfty_check",
                         ("ainfty-check", "--n", str(n), "--rank", str(rank),
                          "--trials", str(trials), "--seed", cli_seed()),
                         trials=trials)

    def on(conn: ConnectionSpec, command: str, trials: int, code: int = 0) -> Operation:
        return Operation(f"{command}-{conn.name}", command.replace("-", "_"),
                         (command, "--connection", connection_path(workdir, conn.name),
                          "--trials", str(trials), "--seed", cli_seed()),
                         expected_code=code, connection=conn.name, trials=trials)

    ops = [
        ainfty(3, 2, 24),
        ainfty(2, 1, 300),
        on(g22, "twist-square", 150),
        on(g22, "cone-verify", 120),
        on(g32, "twist-square", 60),
        on(g32, "cone-verify", 60),
        # the correct outcome is exit 2 with a witness
        on(nonflat, "twist-square", 100, code=2),
    ]
    return Workload("identities", [g22, g32, nonflat], ops)


WORKLOADS = {
    "frame-cohomology": frame_cohomology,
    "gauged-cohomology": gauged_cohomology,
    "identities": identities,
}
