"""Command-line front end: parse a command and its flags, run it, print
its result.

Commands: solve | polygon | estimate | check | svg.  All output is
deterministic JSON (or SVG 1.1 for the drawing, which `polygon.render_svg`
makes); exit code 0 means success or a PASS verdict, 1 a FAIL verdict, 2 a
usage, parse, or validation error or a non-zero exact residual.  Every
error of exit code 2, a malformed flag included, prints one JSON object
naming it on stderr; only `--help` prints argparse's text.

Each command runs with CPython's cyclic garbage collector paused.  A solve
keeps its whole stack of coefficients alive, and the collector would
otherwise scan it again on every pass (about a tenth of a big-float
`solve` plus `estimate`), yet nothing in it can form a cycle: the
coefficients are dicts of int tuples mapped to ints, Fractions or mpfs.
The pause holds almost no garbage: the kernels build no reference cycles
and the solution writer makes none per entry (`problem_io.write_solution`),
so reference counting frees what a command drops.  What is left in cycles
does not grow with the problem: an indented json.dumps call per output
field that is not an entry, and in big float the problem's mpmath
context.  The pause is per command: `main` restores the caller's collector
state when it returns or raises.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction

from .backends import BackendError, PrecisionError
from .estimator import FitError, verify_theorem
from .nagumo import ParameterError, lemma_battery
from .pde import ValidationError
from .polygon import GeometryError, as_dict as polygon_as_dict, build, render_svg
from .problem_io import (
    OVERRIDES,
    ProblemFormatError,
    load_problem,
    solution_to_dict,
    write_solution,
)
from .moments import SequenceError
from .solver import SolveError, solve


class UsageError(ValueError):
    """A malformed command line: an unknown command or flag, a missing
    argument, or a flag value its type rejects."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises UsageError where argparse would print
    its usage text and exit; `--help` still prints and exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


USER_ERRORS = (
    UsageError,
    ProblemFormatError,
    ValidationError,
    BackendError,
    PrecisionError,
    SequenceError,
    SolveError,
    GeometryError,
    ParameterError,
    FitError,
    OSError,
)


_PARSER: argparse.ArgumentParser | None = None  # built by the first main()


def main(argv=None) -> int:
    """Run one command.  The parser is built once per process; the command
    runs the module's `cmd_<name>` as bound when main is called, with the
    cyclic collector paused (module docstring).  The caller's collector
    state is restored on every exit, an exception included."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _PARSER.parse_args(argv)
        return globals()["cmd_" + args.command](args)
    except USER_ERRORS as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ValidationError):
            payload["report"] = exc.report.as_dict()
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="momentpde",
        description="Formal series solver, Newton polygon, and Gevrey-order "
                    "estimation for moment PDE Cauchy problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("--t-order", type=int, help="override truncation.t_order")
        p.add_argument("--z-degree", type=_int_list_flag, metavar="D1,D2,...",
                       help="override truncation.z_degree")
        p.add_argument("--backend", choices=["rational", "bigfloat"],
                       help="override numerics.backend")
        p.add_argument("--precision", type=int, dest="precision_bits",
                       help="override numerics.precision_bits")

    def add_out_flag(p):
        p.add_argument("--out", default=None,
                       help="write output to this file instead of stdout")

    p_solve = sub.add_parser("solve", help="run the coefficient recurrence")
    add_problem_flags(p_solve)
    add_out_flag(p_solve)

    p_poly = sub.add_parser("polygon", help="Newton polygon and 1/k1")
    add_problem_flags(p_poly)
    add_out_flag(p_poly)

    p_est = sub.add_parser(
        "estimate", help="solve, fit the growth order, compare with 1/k1"
    )
    add_problem_flags(p_est)
    add_out_flag(p_est)
    p_est.add_argument("--mode", help="sup_proxy or nagumo_profile")
    p_est.add_argument("--r", help="profile radius (rational)")
    p_est.add_argument("--rho", help="ell-1 radius (rational)")
    p_est.add_argument("--window", type=_window_flag, metavar="LO,HI")
    p_est.add_argument("--tolerance",
                       help="verdict tolerance on the fitted order")

    p_check = sub.add_parser(
        "check", help="run the norm-inequality battery (no problem file)"
    )
    p_check.add_argument("--seed", type=int, default=7)
    p_check.add_argument("--instances", type=int, default=1000)
    add_out_flag(p_check)

    p_svg = sub.add_parser("svg", help="draw the clipped Newton polygon")
    add_problem_flags(p_svg)
    p_svg.add_argument("--clip", type=_clip_flag, default=None,
                       metavar="X0,Y0,X1,Y1")
    p_svg.add_argument("--out", default=None, help="output SVG path")

    return parser


def _int_list_flag(text: str):
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected D1,D2,... (integers)")


def _window_flag(text: str):
    try:
        lo, hi = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected LO,HI (two integers)")
    return [lo, hi]


def _clip_flag(text: str):
    try:
        x0, y0, x1, y1 = map(Fraction, text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "expected X0,Y0,X1,Y1 (four rationals)")
    return x0, y0, x1, y1


def _overrides(args) -> dict:
    """The problem flags as load_problem overrides; a command without a
    flag, or a flag not given, leaves its key None."""
    return {key: getattr(args, key, None) for key in OVERRIDES}


def _write_json(payload: dict, handle) -> None:
    handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit(payload: dict, out: str | None, write=_write_json) -> None:
    """Write the payload with `write` to the file `out`, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            write(payload, handle)
    else:
        write(payload, sys.stdout)


def cmd_solve(args) -> int:
    problem = load_problem(args.problem, _overrides(args))
    solution = solve(problem)
    _emit(solution_to_dict(problem, solution), args.out, write_solution)
    return 0


def cmd_polygon(args) -> int:
    problem = load_problem(args.problem, _overrides(args))
    polygon = build(problem.pde)
    _emit(polygon_as_dict(polygon), args.out)
    return 0


def cmd_estimate(args) -> int:
    problem = load_problem(args.problem, _overrides(args))
    solution = solve(problem)
    report = verify_theorem(problem, solution)
    payload = report.as_dict()
    payload["residual_max"] = problem.backend.format(solution.residual_max)
    _emit(payload, args.out)
    return 0 if report.passed else 1


def cmd_check(args) -> int:
    report = lemma_battery(seed=args.seed, instances=args.instances)
    _emit(report, args.out)
    return 0 if report["all_pass"] else 1


def cmd_svg(args) -> int:
    problem = load_problem(args.problem, _overrides(args))
    polygon = build(problem.pde)
    clip = args.clip
    if clip is None:
        xs = [sp.x for sp in polygon.support_points]
        ys = [sp.y for sp in polygon.support_points]
        clip = (min(xs) - 1, min(ys) - 1, max(xs) + 1, max(ys) + 1)
    drawing = render_svg(polygon, clip)
    out = args.out or (str(args.problem).rsplit(".", 1)[0] + ".svg")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(drawing)
    _emit({"out": out, "k1_inverse": str(polygon.k1_inverse)}, None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
