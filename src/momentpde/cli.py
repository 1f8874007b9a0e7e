"""Command-line front end.

Commands: solve | polygon | estimate | check | svg.  All output is
deterministic JSON (or SVG 1.1 for the drawing); exit code 0 means success
or a PASS verdict, 1 a FAIL verdict, 2 a usage, parse, or validation error
or a non-zero exact residual.

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
from .polygon import GeometryError, as_dict as polygon_as_dict, build, export_geometry
from .problem_io import (
    ProblemFormatError,
    load_problem,
    solution_to_dict,
    write_solution,
)
from .moments import SequenceError
from .solver import SolveError, solve

USER_ERRORS = (
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
    args = _PARSER.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
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
    parser = argparse.ArgumentParser(
        prog="momentpde",
        description="Formal series solver, Newton polygon, and Gevrey-order "
                    "estimation for moment PDE Cauchy problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("--t-order", type=int, default=None,
                       help="override truncation.t_order")
        p.add_argument("--z-degree", type=_int_list_flag, default=None,
                       metavar="D1,D2,...", help="override truncation.z_degree")
        p.add_argument("--backend", choices=["rational", "bigfloat"],
                       default=None, help="override numerics.backend")
        p.add_argument("--precision", type=int, default=None,
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
    p_est.add_argument("--mode", choices=["sup_proxy", "nagumo_profile"],
                       default=None)
    p_est.add_argument("--r", default=None, help="profile radius (rational)")
    p_est.add_argument("--rho", default=None, help="ell-1 radius (rational)")
    p_est.add_argument("--window", type=_window_flag, default=None,
                       metavar="LO,HI")
    p_est.add_argument("--tolerance", default=None,
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
    return [int(part) for part in text.split(",") if part != ""]


def _window_flag(text: str):
    lo, hi = text.split(",")
    return (int(lo), int(hi))


def _clip_flag(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("clip needs X0,Y0,X1,Y1")
    return tuple(Fraction(p) for p in parts)


def _overrides(args) -> dict:
    return {
        "t_order": args.t_order,
        "z_degree": args.z_degree,
        "backend": args.backend,
        "precision_bits": args.precision,
    }


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
    report = verify_theorem(
        problem,
        solution,
        mode=args.mode,
        r=args.r,
        rho=args.rho,
        window=args.window,
        tolerance=args.tolerance,
    )
    payload = report.as_dict()
    payload["residual_max"] = str(problem.backend.format(solution.residual_max))
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
    geometry = export_geometry(polygon, clip)
    out = args.out or (str(args.problem).rsplit(".", 1)[0] + ".svg")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(render_svg(geometry))
    _emit({"out": out, "k1_inverse": geometry["k1_inverse"]}, None)
    return 0


# -- SVG rendering ------------------------------------------------------------

_WIDTH = 560
_HEIGHT = 420
_MARGIN = 48


def render_svg(geometry: dict) -> str:
    """SVG 1.1 drawing of the clipped polygon geometry.

    Quadrant outlines in light gray, the hull boundary in black, support
    points as dots; axes dashed when the clip box contains them.
    """
    x0, y0, x1, y1 = (Fraction(v) for v in geometry["clip"])

    def px(x: Fraction) -> float:
        return _MARGIN + float((x - x0) / (x1 - x0)) * _WIDTH

    def py(y: Fraction) -> float:
        return _MARGIN + (1.0 - float((y - y0) / (y1 - y0))) * _HEIGHT

    def path(points) -> str:
        return " ".join(
            f"{px(Fraction(p['x'])):.2f},{py(Fraction(p['y'])):.2f}"
            for p in points
        )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH + 2 * _MARGIN}" height="{_HEIGHT + 2 * _MARGIN}" '
        f'viewBox="0 0 {_WIDTH + 2 * _MARGIN} {_HEIGHT + 2 * _MARGIN}">',
        f'<rect x="0" y="0" width="{_WIDTH + 2 * _MARGIN}" '
        f'height="{_HEIGHT + 2 * _MARGIN}" fill="white"/>',
    ]
    if x0 <= 0 <= x1:
        parts.append(
            f'<line x1="{px(Fraction(0)):.2f}" y1="{py(y0):.2f}" '
            f'x2="{px(Fraction(0)):.2f}" y2="{py(y1):.2f}" '
            'stroke="#bbbbbb" stroke-dasharray="4 3"/>'
        )
    if y0 <= 0 <= y1:
        parts.append(
            f'<line x1="{px(x0):.2f}" y1="{py(Fraction(0)):.2f}" '
            f'x2="{px(x1):.2f}" y2="{py(Fraction(0)):.2f}" '
            'stroke="#bbbbbb" stroke-dasharray="4 3"/>'
        )
    for quadrant in geometry["quadrants"]:
        parts.append(
            f'<polyline points="{path(quadrant["outline"])}" fill="none" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    parts.append(
        f'<polyline points="{path(geometry["boundary"])}" fill="none" '
        'stroke="#111111" stroke-width="2"/>'
    )
    for vertex in geometry["vertices"]:
        parts.append(
            f'<circle cx="{px(Fraction(vertex["x"])):.2f}" '
            f'cy="{py(Fraction(vertex["y"])):.2f}" r="4" fill="#111111"/>'
        )
    for quadrant in geometry["quadrants"]:
        corner = quadrant["corner"]
        parts.append(
            f'<circle cx="{px(Fraction(corner["x"])):.2f}" '
            f'cy="{py(Fraction(corner["y"])):.2f}" r="2.5" fill="#666666"/>'
        )
    parts.append(
        f'<text x="{_MARGIN}" y="{_MARGIN - 12}" font-family="monospace" '
        f'font-size="14">1/k1 = {geometry["k1_inverse"]}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


if __name__ == "__main__":
    sys.exit(main())
