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
import os
import random
import sys
from typing import Optional, Sequence, Union

from . import cohomology as cohomology_mod
from .cone import ConeElement, check_chain_identities
from .connection import Connection, analyze_flatness
from .dsl import ParseError, parse_form, print_form
from .errors import InternalInvariantError
from .forms import AnyForm, Form, MatrixForm
from .lefschetz import decompose
from .sampling import rand_prim_element, run_trials
from .ainfinity import PrimElement, check_stasheff
from .twist import check_square_zero

USAGE_ERROR = 1
CHECK_FAILED = 2
INTERNAL_ERROR = 3

# the largest --max-deg: sampling draws once per unit of coefficient degree
MAX_DEG = 1000
# the largest chart dimension (--n, or n in a connection file): sampling and
# every Lefschetz table build all C(2n, s) index tuples of a degree s
MAX_N = 8
# the largest fiber rank (--rank, or rank in a connection file): products of
# rank x rank matrix forms cost about rank^3 (one n = 1 trial took 0.4 s at
# rank 16 and 3.0 s at rank 32 on a 2-core VM)
MAX_RANK = 16


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"primflat: error: {message}\n")


def _int_at_least(low: int):
    """argparse type: an integer >= low (argparse names the flag on error)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _int_in(low: int, high: int):
    """argparse type: an integer in low..high."""
    def integer(text: str) -> int:
        value = _int_at_least(low)(text)
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return integer


def _margins(text: str) -> tuple[int, ...]:
    """argparse type for --margins: comma-separated integers >= 0, at least
    two distinct, since stabilization compares the two largest."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if min(values) < 0:
        raise argparse.ArgumentTypeError(f"margins must be >= 0, got {text!r}")
    if len(set(values)) < 2:
        raise argparse.ArgumentTypeError(
            f"need at least two distinct margins, got {text!r}")
    return values


def _form_json(a: AnyForm):
    """Printed form; entrywise, in the nesting of ``entries``, for a fiber form."""
    return print_form(a) if isinstance(a, Form) else a.nested(print_form)


def _element_json(e: Union[PrimElement, ConeElement]):
    if isinstance(e, ConeElement):
        return {"grading": e.grading, "eta": _form_json(e.eta),
                "theta": _form_json(e.xi)}
    return {"position": e.label, "payload": _form_json(e.payload)}


def load_connection(path: str) -> Connection:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError(f"connection file {path}: JSON nested too deeply") from None
    try:
        n, rank, rows = data["n"], data["rank"], data["A"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"connection file {path}: expected n, rank, A fields") from exc
    for field, value, high in (("n", n, MAX_N), ("rank", rank, MAX_RANK)):
        # bool is an int subclass, but true is no size
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"connection file {path}: {field} must be an integer >= 1, "
                             f"got {json.dumps(value)}")
        if value > high:
            raise ValueError(f"connection file {path}: {field} must be <= {high}, got {value}")
    if not (isinstance(rows, list) and len(rows) == rank and all(
            isinstance(row, list) and len(row) == rank
            and all(isinstance(text, str) for text in row) for row in rows)):
        raise ValueError(f"connection file {path}: A must be {rank} lists of {rank} strings")
    entries = []
    for i, row in enumerate(rows):
        entries.append([])
        for j, text in enumerate(row):
            form = parse_form(text, n)
            if not form.is_zero and form.degree != 1:
                raise ValueError(f"connection entry A[{i}][{j}] {text[:8]!r} is not a 1-form")
            entries[i].append(form)
    return Connection(n, rank, MatrixForm(entries, 1))


def _emit(report: dict, stream) -> None:
    stream.write(json.dumps(report, indent=2, sort_keys=True))
    stream.write("\n")


# ---------- subcommands ----------

def _cmd_decompose(args) -> tuple:
    form = parse_form(args.form, args.n)
    report = {
        "n": args.n,
        "degree": form.degree,
        "components": [{"r": r, "form": print_form(beta)}
                       for r, beta in sorted(decompose(form).items())],
    }
    return 0, report


def _cmd_flatness(args) -> tuple:
    conn = load_connection(args.connection)
    rep = analyze_flatness(conn)
    report = {
        "n": conn.n,
        "rank": conn.rank,
        "F": _form_json(rep.F),
        "F0": _form_json(rep.F0),
        "Phi": _form_json(rep.Phi),
        "dAPhi": _form_json(rep.dAPhi),
        "is_symplectically_flat": rep.is_symplectically_flat,
    }
    return 0, report


def _cmd_ainfty_check(args) -> tuple:
    rng = random.Random(args.seed)
    relations = []
    total_failures = 0
    fiber = "matrix" if args.rank > 1 else "scalar"
    for k in (1, 2, 3, 4):
        trial = run_trials(
            f"stasheff_{k}", args.trials,
            lambda: [rand_prim_element(rng, args.n, fiber, args.rank, max_degree=args.max_deg)
                     for _ in range(k)],
            lambda elems: check_stasheff(k, elems))
        total_failures += trial.failures
        relations.append({"k": k, "trials": trial.trials, "failures": trial.failures,
                          "first_counterexample": {
                              "inputs": [_element_json(e) for e in trial.example],
                              "residual": _element_json(trial.residual),
                          } if trial.failures else None})
    report = {"n": args.n, "rank": args.rank, "seed": args.seed,
              "max_degree": args.max_deg, "relations": relations,
              "all_passed": total_failures == 0}
    return (0 if total_failures == 0 else CHECK_FAILED), report


def _cmd_twist_square(args) -> tuple:
    conn = load_connection(args.connection)
    flat = analyze_flatness(conn).is_symplectically_flat
    rep = check_square_zero(conn, trials=args.trials, seed=args.seed,
                            max_degree=args.max_deg)
    report = {
        "connection": args.connection,
        "seed": args.seed,
        "trials": rep.trials,
        "flat": flat,
        "residual_failures": rep.failures,
        "witness": {"element": _element_json(rep.example),
                    "residual": _element_json(rep.residual)} if rep.failures else None,
    }
    return (0 if rep.failures == 0 else CHECK_FAILED), report


def _cmd_cohomology(args) -> tuple:
    conn = load_connection(args.connection)
    rep = cohomology_mod.cohomology_dims(conn, args.complex, D=args.truncation,
                                         stab_margins=args.margins)
    positions = []
    for pos in rep.positions:
        if not pos.stabilized:
            # the margins probe the image of the differential from the position
            # below; the bottom position has none and always stabilizes.  The
            # hint never repeats or lowers the largest margin that just failed
            growth = cohomology_mod.connection_growth(conn, args.complex, pos.grading - 1)
            low = max(growth, max(rep.margins))
            sys.stderr.write(f"primflat: {pos.label} did not stabilize (connection_growth "
                             f"{growth}); try --margins {low},{low + 1}\n")
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
              "truncation": args.truncation, "margins": list(rep.margins),
              "positions": positions, "all_stabilized": rep.all_stabilized}
    return (0 if rep.all_stabilized else CHECK_FAILED), report


def _cmd_cone_verify(args) -> tuple:
    conn = load_connection(args.connection)
    reports = check_chain_identities(conn, trials=args.trials, seed=args.seed)
    failures = sum(r.failures for r in reports)
    report = {
        "connection": args.connection,
        "seed": args.seed,
        "identities": [{"name": r.name, "trials": r.trials, "failures": r.failures,
                        "counterexample": repr(r.example) if r.failures else None}
                       for r in reports],
        "all_passed": failures == 0,
    }
    return (0 if failures == 0 else CHECK_FAILED), report


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="primflat",
                     description="Exact workbench for symplectically flat "
                                 "connections and twisted primitive cohomology")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="Lefschetz-decompose a form")
    p.add_argument("--n", type=_int_in(1, MAX_N), required=True)
    p.add_argument("--form", required=True, help="form text; write -x1 as --form=-x1")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("flatness", help="curvature split and flatness verdict")
    p.add_argument("--connection", required=True)
    p.set_defaults(fn=_cmd_flatness)

    p = sub.add_parser("ainfty-check", help="randomized Stasheff identities")
    p.add_argument("--n", type=_int_in(1, MAX_N), required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-deg", type=_int_in(0, MAX_DEG), default=2)
    p.add_argument("--rank", type=_int_in(1, MAX_RANK), default=1)
    p.set_defaults(fn=_cmd_ainfty_check)

    p = sub.add_parser("twist-square", help="square of the twisted differential")
    p.add_argument("--connection", required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-deg", type=_int_in(0, MAX_DEG), default=2)
    p.set_defaults(fn=_cmd_twist_square)

    p = sub.add_parser("cohomology", help="twisted cohomology dimensions")
    p.add_argument("--connection", required=True)
    p.add_argument("--complex", choices=["prim", "cone"], default="prim")
    p.add_argument("--truncation", type=int, default=5)
    p.add_argument("--margins", type=_margins, default="2,3",
                   help="comma-separated margins s >= 0, at least two distinct; "
                        "images come from degree "
                        "<= truncation + s.  A position that does not "
                        "stabilize needs larger margins (a densely gauged "
                        "connection can grow degrees by more than 3), not "
                        "a different method")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("cone-verify", help="cone comparison identities")
    p.add_argument("--connection", required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=50)
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
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the signal module docs: point stdout at devnull so
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("primflat: error: stdout closed before the whole report was written\n")
        code = USAGE_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
