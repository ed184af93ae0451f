"""Independent checks of every operation's JSON report.

Nothing here compares against a stored copy of earlier output.  Cohomology
tables are checked against the dimensions the constant frame predicts
(``dim ker Phi0`` at the bottom, ``dim coker Phi0`` next, zero elsewhere),
computed with the small exact rank routine below rather than with the
program's own linear algebra.  Witnesses are parsed back with the DSL and
must be closed under the differential of their complex.  Each check returns
a list of problems; an empty list means the report is correct.
"""

from __future__ import annotations

import re
from fractions import Fraction

CONE_IDENTITIES = ["f_chain_map", "g_chain_map", "fg_identity", "homotopy",
                   "phi_exactness"]


def matrix_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a small matrix by exact Gaussian elimination over Fraction."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    width = len(work[0]) if work else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col] / lead
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def kernel_cokernel_dims(phi0: list[list[Fraction]]) -> tuple[int, int]:
    rank = matrix_rank(phi0)
    return len(phi0[0]) - rank, len(phi0) - rank


def expected_cohomology_dims(n: int, phi0: list[list[Fraction]]) -> list[int]:
    ker, coker = kernel_cokernel_dims(phi0)
    return [ker, coker] + [0] * (2 * n)


def _prim_witness_residual(pf, conn, n: int, witness: dict):
    match = re.fullmatch(r"P(\d+)([+-])", witness["position"])
    s, side = int(match.group(1)), match.group(2)
    payload = pf.VectorForm([pf.parse_form(t, n) for t in witness["payload"]], s)
    element = pf.PrimElement(side, s, payload)
    return element.is_zero, pf.twisted_m1(conn, element, verify=True)


def _cone_witness_residual(pf, conn, n: int, witness: dict):
    grading = witness["grading"]
    eta = pf.VectorForm([pf.parse_form(t, n) for t in witness["eta"]], grading)
    xi = pf.VectorForm([pf.parse_form(t, n) for t in witness["theta"]], grading - 1)
    element = pf.ConeElement(grading, eta, xi)
    return element.is_zero, pf.cone_d(conn, element)


def check_cohomology(pf, report: dict, complex_: str, n: int,
                     phi0: list[list[Fraction]], conn) -> list[str]:
    """Dimension table, stabilization, witness counts and witness closedness.

    ``pf`` is the program's package, used only to parse witnesses back and
    to apply the differential (``twisted_m1`` with its series cross-check
    on, or ``cone_d``).
    """
    problems = []
    if report.get("complex") != complex_:
        problems.append(f"complex is {report.get('complex')!r}, not {complex_!r}")
    if report.get("all_stabilized") is not True:
        problems.append("all_stabilized is not true")
    expected = expected_cohomology_dims(n, phi0)
    positions = report.get("positions", [])
    if [p.get("dim") for p in positions] != expected:
        problems.append(f"dims {[p.get('dim') for p in positions]} != {expected}")
    residual_of = _prim_witness_residual if complex_ == "prim" else _cone_witness_residual
    for pos in positions:
        by_margin = [d for _, d in sorted((int(m), d) for m, d in
                                          pos["dims_by_margin"].items())]
        if any(a < b for a, b in zip(by_margin, by_margin[1:])):
            problems.append(f"{pos['position']}: dims_by_margin increase {by_margin}")
        if len(pos["witnesses"]) != pos["dim"]:
            problems.append(f"{pos['position']}: {len(pos['witnesses'])} witnesses "
                            f"for dim {pos['dim']}")
        for witness in pos["witnesses"]:
            is_zero, image = residual_of(pf, conn, n, witness)
            if is_zero:
                problems.append(f"{pos['position']}: zero witness")
            if not image.is_zero:
                problems.append(f"{pos['position']}: witness is not closed")
    return problems


def check_same_dims(prim_report: dict, cone_report: dict) -> list[str]:
    prim = [p["dim"] for p in prim_report.get("positions", [])]
    cone = [p["dim"] for p in cone_report.get("positions", [])]
    return [] if prim == cone else [f"prim dims {prim} != cone dims {cone}"]


def check_ainfty(report: dict, n: int, rank: int, trials: int, seed: int) -> list[str]:
    problems = []
    if (report.get("n"), report.get("rank"), report.get("seed")) != (n, rank, seed):
        problems.append("n, rank or seed not echoed")
    if report.get("all_passed") is not True:
        problems.append("all_passed is not true")
    relations = report.get("relations", [])
    if [r.get("k") for r in relations] != [1, 2, 3, 4]:
        problems.append("relations are not k = 1..4")
    for rel in relations:
        if rel.get("trials") != trials or rel.get("failures") != 0 \
                or rel.get("first_counterexample") is not None:
            problems.append(f"relation k={rel.get('k')}: {rel.get('failures')} failures "
                            f"in {rel.get('trials')} trials")
    return problems


def check_twist_square(report: dict, flat: bool, trials: int, seed: int) -> list[str]:
    problems = []
    if report.get("seed") != seed or report.get("trials") != trials:
        problems.append("seed or trials not echoed")
    if report.get("flat") is not flat:
        problems.append(f"flat is {report.get('flat')!r}, expected {flat}")
    failures = report.get("residual_failures")
    witness = report.get("witness")
    if flat and (failures != 0 or witness is not None):
        problems.append(f"flat connection has {failures} residual failures")
    if not flat and not (isinstance(failures, int) and failures > 0 and witness
                         and witness.get("element") and witness.get("residual")):
        problems.append("non-flat connection reported no failing witness")
    return problems


def check_cone_verify(report: dict, trials: int, seed: int) -> list[str]:
    problems = []
    if report.get("seed") != seed:
        problems.append("seed not echoed")
    if report.get("all_passed") is not True:
        problems.append("all_passed is not true")
    identities = report.get("identities", [])
    if [i.get("name") for i in identities] != CONE_IDENTITIES:
        problems.append(f"identities {[i.get('name') for i in identities]}")
    for ident in identities:
        if ident.get("trials") != trials or ident.get("failures") != 0:
            problems.append(f"{ident.get('name')}: {ident.get('failures')} failures "
                            f"in {ident.get('trials')} trials")
    return problems
