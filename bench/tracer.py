"""Outside-in layer trace: timing wrappers installed around the package's
public functions from the benchmark's own files.

The package is not changed.  `Tracer.install()` replaces each traced
function or method with a wrapper that records calls, inclusive time and
self time (inclusive time minus the time of the spans it called), and
`uninstall()` puts the originals back.  A function that another module
imported by value (`from .solver import solve`) is replaced in every module
that holds it, or its span would read zero.

Spans are aggregated in memory per name; nothing is written while tracing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

PACKAGE = "momentpde"

# span name -> (defining module, attribute or attributes).  "Class.method" is
# patched on the class; a plain function is replaced in every module of the
# package that binds it.
SPANS = {
    "cli.solve": ("cli", "cmd_solve"),
    "cli.estimate": ("cli", "cmd_estimate"),
    "cli.check": ("cli", "cmd_check"),
    "problem_io.load": ("problem_io", "load_problem"),
    "problem_io.serialize": ("problem_io", "solution_to_dict"),
    "pde.validate": ("pde", "validate"),
    "pde.apply": ("pde", "MomentPDE.apply"),
    "solver.solve": ("solver", "solve"),
    "solver.residual": ("solver", "residual"),
    "series.init": ("series", "PolySeries.__init__"),
    "series.add": ("series", "PolySeries.add"),
    "series.scale": ("series", "PolySeries.scale"),
    "series.multiply": ("series", "PolySeries.multiply"),
    "series.moment_derive": ("series", "PolySeries.moment_derive"),
    "series.ell1_norm": ("series", "PolySeries.ell1_norm"),
    "moments.value": ("moments", "MomentSequence.value"),
    "moments.ratio": ("moments", "MomentSequence.ratio"),
    "nagumo.norm": ("nagumo", "nagumo_norm"),
    "nagumo.profile": ("nagumo", "nagumo_profile"),
    "nagumo.battery": ("nagumo", "lemma_battery"),
    "nagumo.checks": ("nagumo", ("check_vandermonde", "check_submultiplicative",
                                 "check_derivative_bound", "check_shift_bound",
                                 "check_sup_bound")),
    "estimator.verify": ("estimator", "verify_theorem"),
    "estimator.fit": ("estimator", "estimate_order"),
    "polygon.k1": ("polygon", "k1_inverse"),
}

LAYERS = ("cli", "problem_io", "pde", "solver", "series", "moments", "nagumo",
          "estimator", "polygon")

_KERNELS_OUT = {"series.add", "series.scale", "series.multiply",
                "series.moment_derive"}


def _count(counters: Counter, name: str, args, result) -> None:
    """Work counters of a series kernel, from its arguments and result."""
    counters["series.coeffs_out"] += len(result.coeffs)
    if name == "series.multiply":
        counters["series.multiply_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
        counters["series.multiply_kept"] += len(result.coeffs)


class Tracer:
    """Per-name span statistics: calls, inclusive seconds, self seconds."""

    def __init__(self):
        # name -> [calls, inclusive, self, active depth]
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0, 0] for name in SPANS}
        self.counters: Counter = Counter()
        self.root_s = 0.0      # time inside outermost spans
        self.last_solution = None
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for row in self.stats.values():
            row[:] = [0, 0.0, 0.0, 0]
        self.counters.clear()
        self.root_s = 0.0
        self.last_solution = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        row = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters
        counted = name in _KERNELS_OUT
        keep_solution = name == "solver.solve"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            row[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counted:
                    _count(counters, name, args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                row[3] -= 1
                row[0] += 1
                if row[3] == 0:
                    row[1] += elapsed
                row[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.root_s += elapsed
                if keep_solution and row[3] == 0:
                    tracer.last_solution = result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [module for name, module in list(sys.modules.items())
                   if name.split(".")[0] == PACKAGE]
        for name, (module_name, attrs) in SPANS.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for attr in (attrs if isinstance(attrs, tuple) else (attrs,)):
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    self._patch(owner, method, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for holder in modules:
                    if getattr(holder, attr, None) is original:
                        self._patch(holder, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def inclusive(self, name: str) -> float:
        return self.stats[name][1]

    def self_time(self, name: str) -> float:
        return self.stats[name][2]

    def layer_self(self, layer: str) -> float:
        return sum(row[2] for name, row in self.stats.items()
                   if name.split(".")[0] == layer)


def _scalar_bits(value) -> int:
    """Bit-length of a stored coefficient: the larger of numerator and
    denominator for rationals, the mantissa for mpmath floats."""
    mpf = getattr(value, "_mpf_", None)
    if mpf is not None:
        return mpf[3]
    if isinstance(value, int):
        return value.bit_length()
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def solution_counts(solution) -> tuple[int, int]:
    """(largest coefficient bit-length, number of stored coefficients)."""
    bits = 0
    stored = 0
    for entry in solution.coefficients.entries:
        stored += len(entry.coeffs)
        for value in entry.coeffs.values():
            bits = max(bits, _scalar_bits(value))
    return bits, stored


# per-layer metric -> unit; every name is reported on every workload
UNITS = {
    "problem_io.load_s": "s",
    "problem_io.serialize_s": "s",
    "pde.validate_s": "s",
    "pde.apply_s": "s",
    "solver.recurrence_s": "s",
    "solver.residual_s": "s",
    "solver.max_coeff_bits": "bits",
    "solver.stored_coeffs": "count",
    **{f"series.{k}_{suffix}": unit
       for k in ("init", "add", "scale", "multiply", "moment_derive", "ell1_norm")
       for suffix, unit in (("self_s", "s"), ("calls", "count"))},
    "series.multiply_pairs": "count",
    "series.multiply_kept": "count",
    "series.coeffs_out": "count",
    "moments.value_self_s": "s",
    "moments.value_calls": "count",
    "moments.ratio_self_s": "s",
    "moments.ratio_calls": "count",
    "nagumo.norm_self_s": "s",
    "nagumo.norm_calls": "count",
    "nagumo.checks_self_s": "s",
    "estimator.fit_s": "s",
    "polygon.k1_s": "s",
    "cli.solve_s": "s",
    "cli.estimate_s": "s",
    "cli.check_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.op_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, op_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation that took op_s seconds.

    The layer self-times and trace.unattributed_s add up to trace.op_s.
    trace.overhead_ratio needs untraced operations and is filled by the caller.
    """
    t = tracer
    out = {
        "problem_io.load_s": t.inclusive("problem_io.load"),
        "problem_io.serialize_s": t.inclusive("problem_io.serialize"),
        "pde.validate_s": t.inclusive("pde.validate"),
        "pde.apply_s": t.inclusive("pde.apply"),
        "solver.recurrence_s": t.inclusive("solver.solve") - t.inclusive("solver.residual"),
        "solver.residual_s": t.inclusive("solver.residual"),
        "series.multiply_pairs": t.counters["series.multiply_pairs"],
        "series.multiply_kept": t.counters["series.multiply_kept"],
        "series.coeffs_out": t.counters["series.coeffs_out"],
        "nagumo.norm_self_s": t.self_time("nagumo.norm"),
        "nagumo.norm_calls": t.calls("nagumo.norm"),
        "nagumo.checks_self_s": t.self_time("nagumo.checks"),
        "estimator.fit_s": t.inclusive("estimator.fit"),
        "polygon.k1_s": t.inclusive("polygon.k1"),
        "cli.solve_s": t.inclusive("cli.solve"),
        "cli.estimate_s": t.inclusive("cli.estimate"),
        "cli.check_s": t.inclusive("cli.check"),
        "trace.op_s": op_s,
        "trace.unattributed_s": op_s - t.root_s,
    }
    for kernel in ("init", "add", "scale", "multiply", "moment_derive", "ell1_norm"):
        out[f"series.{kernel}_self_s"] = t.self_time(f"series.{kernel}")
        out[f"series.{kernel}_calls"] = t.calls(f"series.{kernel}")
    for fn in ("value", "ratio"):
        out[f"moments.{fn}_self_s"] = t.self_time(f"moments.{fn}")
        out[f"moments.{fn}_calls"] = t.calls(f"moments.{fn}")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.layer_self(layer)
    bits, stored = (solution_counts(t.last_solution)
                    if t.last_solution is not None else (0, 0))
    out["solver.max_coeff_bits"] = bits
    out["solver.stored_coeffs"] = stored
    return out
