"""Command-line front end.

Subcommands: decompose, flatness, ainfty-check, twist-square, cohomology,
cone-verify.  Every run writes a single JSON document to stdout.  Exit
codes: 0 when the requested report succeeds and all checked identities
hold, 2 when a checked property fails (the counterexample is in the JSON),
1 on usage, parse or input errors, 3 when an internal invariant breaks (a
bug in primflat; the message goes to stderr and no JSON is written).

All randomized subcommands are driven by one seed that is embedded in the
report; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional, Sequence, Union

from . import cohomology as cohomology_mod
from .cone import ConeElement, check_chain_identities
from .connection import Connection, analyze_flatness
from .dsl import ParseError, parse_form, print_form
from .errors import InternalInvariantError
from .forms import Form, MatrixForm, VectorForm
from .lefschetz import decompose
from .sampling import rand_prim_element
from .ainfinity import PrimElement, _ZeroElement, check_stasheff
from .twist import check_square_zero

USAGE_ERROR = 1
CHECK_FAILED = 2
INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _matrix_json(m: MatrixForm) -> list[list[str]]:
    return [[print_form(e) for e in row] for row in m.entries]


def _vector_json(v: VectorForm) -> list[str]:
    return [print_form(e) for e in v.entries]


def _element_json(e: Union[PrimElement, ConeElement, _ZeroElement, None]):
    if e is None or isinstance(e, _ZeroElement):
        return None
    if isinstance(e, ConeElement):
        return {"grading": e.grading, "eta": _vector_json(e.eta),
                "theta": _vector_json(e.xi)}
    payload = e.payload
    if isinstance(payload, VectorForm):
        body = _vector_json(payload)
    elif isinstance(payload, MatrixForm):
        body = _matrix_json(payload)
    else:
        body = print_form(payload)
    return {"position": f"P{e.s}{e.side}", "payload": body}


def load_connection(path: str) -> Connection:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        n = int(data["n"])
        rank = int(data["rank"])
        rows = data["A"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"connection file {path}: expected n, rank, A fields") from exc
    if len(rows) != rank or any(len(row) != rank for row in rows):
        raise ValueError(f"connection file {path}: A must be {rank}x{rank}")
    entries = []
    for row in rows:
        parsed_row = []
        for text in row:
            form = parse_form(text, n)
            if not form.is_zero and form.degree != 1:
                raise ValueError(f"connection entry {text!r} is not a 1-form")
            parsed_row.append(Form(n, 1, form.terms))
        entries.append(parsed_row)
    return Connection(n, rank, MatrixForm(entries, 1))


def _emit(report: dict, stream) -> None:
    stream.write(json.dumps(report, indent=2, sort_keys=True))
    stream.write("\n")


# ---------- subcommands ----------

def _cmd_decompose(args) -> tuple:
    form = parse_form(args.form, args.n)
    components = decompose(form)
    report = {
        "n": args.n,
        "degree": form.degree,
        "components": [{"r": r, "form": print_form(beta)}
                       for r, beta in sorted(components.components.items())],
    }
    return 0, report


def _cmd_flatness(args) -> tuple:
    conn = load_connection(args.connection)
    rep = analyze_flatness(conn)
    report = {
        "n": conn.n,
        "rank": conn.rank,
        "F": _matrix_json(rep.F),
        "F0": _matrix_json(rep.F0),
        "Phi": _matrix_json(rep.Phi),
        "dAPhi": _matrix_json(rep.dAPhi),
        "is_symplectically_flat": rep.is_symplectically_flat,
    }
    return 0, report


def _cmd_ainfty_check(args) -> tuple:
    rng = random.Random(args.seed)
    relations = []
    total_failures = 0
    fiber = "matrix" if args.rank > 1 else "scalar"
    for k in (1, 2, 3, 4):
        failures = 0
        first = None
        for _ in range(args.trials):
            elems = [rand_prim_element(rng, args.n, fiber, args.rank,
                                       max_degree=args.max_deg) for _ in range(k)]
            residual = check_stasheff(k, elems)
            if not residual.is_zero:
                failures += 1
                if first is None:
                    first = {"inputs": [_element_json(e) for e in elems],
                             "residual": _element_json(residual)}
        total_failures += failures
        relations.append({"k": k, "trials": args.trials, "failures": failures,
                          "first_counterexample": first})
    report = {"n": args.n, "rank": args.rank, "seed": args.seed,
              "max_degree": args.max_deg, "relations": relations,
              "all_passed": total_failures == 0}
    return (0 if total_failures == 0 else CHECK_FAILED), report


def _cmd_twist_square(args) -> tuple:
    conn = load_connection(args.connection)
    rep = check_square_zero(conn, trials=args.trials, seed=args.seed,
                            max_degree=args.max_deg)
    report = {
        "connection": args.connection,
        "seed": args.seed,
        "trials": rep.trials,
        "flat": rep.flat,
        "residual_failures": rep.failures,
        "witness": None,
    }
    if rep.witness is not None:
        report["witness"] = {"element": _element_json(rep.witness),
                             "residual": _element_json(rep.witness_residual)}
    return (0 if rep.failures == 0 else CHECK_FAILED), report


def _cmd_cohomology(args) -> tuple:
    conn = load_connection(args.connection)
    margins = tuple(int(s) for s in args.margins.split(","))
    kind = "prim" if args.complex == "prim" else "cone"
    rep = cohomology_mod.cohomology_dims(conn, kind, D=args.truncation,
                                         stab_margins=margins,
                                         with_witnesses=True)
    positions = []
    for pos in rep.positions:
        positions.append({
            "position": pos.label,
            "grading": pos.grading,
            "kernel_dim": pos.kernel_dim,
            "dims_by_margin": {str(m): d for m, d in pos.dims_by_margin.items()},
            "stabilized": pos.stabilized,
            "dim": pos.dim,
            "witnesses": [_element_json(w) for w in pos.witnesses],
        })
    report = {"connection": args.connection, "complex": args.complex,
              "truncation": args.truncation, "margins": list(margins),
              "positions": positions, "all_stabilized": rep.all_stabilized}
    return (0 if rep.all_stabilized else CHECK_FAILED), report


def _cmd_cone_verify(args) -> tuple:
    conn = load_connection(args.connection)
    reports = check_chain_identities(conn, trials=args.trials, seed=args.seed)
    failures = sum(r.failures for r in reports)
    report = {
        "connection": args.connection,
        "seed": args.seed,
        "identities": [{"name": r.identity, "trials": r.trials,
                        "failures": r.failures,
                        "counterexample": r.counterexample} for r in reports],
        "all_passed": failures == 0,
    }
    return (0 if failures == 0 else CHECK_FAILED), report


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="primflat",
                     description="Exact workbench for symplectically flat "
                                 "connections and twisted primitive cohomology")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="Lefschetz-decompose a form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--form", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("flatness", help="curvature split and flatness verdict")
    p.add_argument("--connection", required=True)
    p.set_defaults(fn=_cmd_flatness)

    p = sub.add_parser("ainfty-check", help="randomized Stasheff identities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-deg", type=int, default=2)
    p.add_argument("--rank", type=int, default=1)
    p.set_defaults(fn=_cmd_ainfty_check)

    p = sub.add_parser("twist-square", help="square of the twisted differential")
    p.add_argument("--connection", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-deg", type=int, default=2)
    p.set_defaults(fn=_cmd_twist_square)

    p = sub.add_parser("cohomology", help="twisted cohomology dimensions")
    p.add_argument("--connection", required=True)
    p.add_argument("--complex", choices=["prim", "cone"], default="prim")
    p.add_argument("--truncation", type=int, default=5)
    p.add_argument("--margins", default="2,3",
                   help="comma-separated margins s >= 0; images come from degree "
                        "<= truncation + s.  A position that does not "
                        "stabilize needs larger margins (a densely gauged "
                        "connection can grow degrees by more than 3), not "
                        "a different method")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("cone-verify", help="cone comparison identities")
    p.add_argument("--connection", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_cone_verify)

    return parser


def run(argv: Optional[Sequence[str]] = None, stdout=None) -> int:
    """Dispatch a command line; returns the exit code."""
    stream = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        code, report = args.fn(args)
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"primflat: error: {exc}\n")
        return USAGE_ERROR
    except InternalInvariantError as exc:
        sys.stderr.write(f"primflat: internal error: {exc}\n")
        return INTERNAL_ERROR
    _emit(report, stream)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
