"""Problem-file parsing and the solution dump.

Problems are JSON documents, read and never written back; every numeric
entry is an exact rational written as a string ("3/4", "-1", "0.5") or an
integer, never a float, so exact-mode runs are reproducible byte for byte.
The solution dump keeps the same convention: big-float coefficients
serialize as the exact rational value of their binary representation, and
an exact u_n(gamma), stored as an int numerator over the t-order's one
denominator d_n (solver module docstring), is reduced by one gcd and
printed as str of its Fraction would print it, with no Fraction built.
Each value is rendered once, straight from (N_n, d_n) in sorted key order.

`solution_to_dict` decides what the solution dump contains and
`write_solution` only lays it out.  The layout is that of
``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, byte for
byte, but the dump is streamed to the output handle one t-order entry at a
time, each coefficient filled into a fixed template by one % on its powers
and its value string.  The template holds because a coefficient value is
``str`` of an int or a Fraction (a big float's exact binary rational),
which never contains a character JSON escapes.

Schema (see README for the worked example):

    variables    number of z variables N
    moment       {"t": seq, "z": [seq, ...]}            sequence sub-schema
    M            principal t-derivative order
    terms        [{"j", "alpha", "coefficient": [monomial...]}, ...]
    rhs          [monomial...] or generator object
    initial      M entries: [monomial...] or generator or
                 {"monomials": [...], "valid": [...]}
    truncation   {"t_order": N_max, "z_degree": [caps...]}
    numerics     {"backend": "rational"|"bigfloat", "precision_bits": 256}
    estimation   {"r", "rho", "window": [lo, hi], "tolerance", "mode"}  (optional)

A term monomial is {"t_power": int, "z_powers": [ints], "value": rational};
z-only monomials drop "t_power".  Sequence sub-schema, parsed here only:
{"kind": "factorial_power"|"gamma", "s": rational},
{"kind": "q_factorial", "q": rational},
{"kind": "product", "factors": [seq, seq]},
{"kind": "quotient", "numerator": seq, "denominator": seq},
{"kind": "table", "values": [...], "order": rational}.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .backends import (
    Backend,
    BackendError,
    make_backend,
    parse_rational,
    scalar_to_fraction,
    unlimited_int_digits,
)
from .moments import (
    FactorialPower,
    GammaSequence,
    MomentSequence,
    ProductSequence,
    QFactorial,
    QuotientSequence,
    SequenceError,
    TableSequence,
)
from .pde import CauchyProblem, EstimationConfig, MomentPDE, OperatorTerm
from .series import (
    PolySeries,
    TimeSeries,
    exponential_series,
    geometric_series,
)
from .solver import FormalSolution


class ProblemFormatError(ValueError):
    """A schema violation, reported with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise ProblemFormatError(f"{path}.{key}" if path else key,
                                 "required field is missing")
    return doc[key]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFormatError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ProblemFormatError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_rational(value, path: str) -> Fraction:
    if isinstance(value, float):
        raise ProblemFormatError(
            path, "floats are not allowed; write rationals as strings"
        )
    try:
        return parse_rational(value)
    except BackendError as exc:
        raise ProblemFormatError(path, str(exc)) from exc


def _int_list(value, count: int, path: str, minimum: int = 0) -> tuple[int, ...]:
    if not isinstance(value, list) or len(value) != count:
        raise ProblemFormatError(path, f"expected a list of {count} integers")
    return tuple(
        _as_int(v, f"{path}[{i}]", minimum) for i, v in enumerate(value)
    )


def parse_problem(text: str, overrides: dict | None = None) -> CauchyProblem:
    """Parse a problem document; syntax errors carry line/column, schema
    errors carry the field path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"line {exc.lineno}, column {exc.colno}", exc.msg
        ) from exc
    return problem_from_dict(doc, overrides)


def load_problem(path, overrides: dict | None = None) -> CauchyProblem:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read(), overrides)


def problem_from_dict(doc, overrides: dict | None = None) -> CauchyProblem:
    if not isinstance(doc, dict):
        raise ProblemFormatError("", "problem document must be a JSON object")
    doc = dict(doc)
    if overrides:
        doc = _apply_overrides(doc, overrides)

    num_vars = _as_int(_need(doc, "variables", ""), "variables", 1)

    numerics = doc.get("numerics", {})
    if not isinstance(numerics, dict):
        raise ProblemFormatError("numerics", "expected an object")
    backend_name = numerics.get("backend", "rational")
    precision = _as_int(numerics.get("precision_bits", 256),
                        "numerics.precision_bits", 24)
    try:
        backend = make_backend(backend_name, precision)
    except BackendError as exc:
        raise ProblemFormatError("numerics.backend", str(exc)) from exc

    moment = _need(doc, "moment", "")
    if not isinstance(moment, dict):
        raise ProblemFormatError("moment", "expected an object")
    m0 = _sequence(_need(moment, "t", "moment"), "moment.t", backend)
    z_specs = _need(moment, "z", "moment")
    if not isinstance(z_specs, list) or len(z_specs) != num_vars:
        raise ProblemFormatError(
            "moment.z", f"expected {num_vars} sequence specs"
        )
    m = [
        _sequence(spec, f"moment.z[{i}]", backend)
        for i, spec in enumerate(z_specs)
    ]

    principal_order = _as_int(_need(doc, "M", ""), "M", 1)

    truncation = _need(doc, "truncation", "")
    if not isinstance(truncation, dict):
        raise ProblemFormatError("truncation", "expected an object")
    t_order = _as_int(_need(truncation, "t_order", "truncation"),
                      "truncation.t_order", 1)
    z_caps = _int_list(_need(truncation, "z_degree", "truncation"),
                       num_vars, "truncation.z_degree")

    terms_doc = doc.get("terms", [])
    if not isinstance(terms_doc, list):
        raise ProblemFormatError("terms", "expected a list")
    terms = [
        _term(entry, f"terms[{i}]", num_vars, backend)
        for i, entry in enumerate(terms_doc)
    ]

    pde = MomentPDE(principal_order, m0, m, terms)

    rhs = _rhs(doc.get("rhs", []), "rhs", num_vars, z_caps, backend)

    initial_doc = _need(doc, "initial", "")
    if not isinstance(initial_doc, list) or len(initial_doc) != principal_order:
        raise ProblemFormatError(
            "initial", f"expected {principal_order} initial data entries"
        )
    initial = [
        _poly(entry, f"initial[{j}]", num_vars, z_caps, backend)
        for j, entry in enumerate(initial_doc)
    ]

    estimation = _estimation(doc.get("estimation"), "estimation")

    return CauchyProblem(
        pde=pde,
        rhs=rhs,
        initial=initial,
        t_order=t_order,
        z_caps=z_caps,
        backend=backend,
        estimation=estimation,
    )


def _apply_overrides(doc: dict, overrides: dict) -> dict:
    """A copy of doc with each given value set in its section; a section
    that is not an object is rejected as the document without flags is."""
    doc = json.loads(json.dumps(doc))  # deep copy
    for section, key in (("truncation", "t_order"), ("truncation", "z_degree"),
                         ("numerics", "backend"),
                         ("numerics", "precision_bits")):
        value = overrides.get(key)
        if value is not None:
            entry = doc.setdefault(section, {})
            if not isinstance(entry, dict):
                raise ProblemFormatError(section, "expected an object")
            entry[key] = list(value) if key == "z_degree" else value
    return doc


def _sequence(spec, path: str, backend: Backend) -> MomentSequence:
    """The sequence of the spec at path.  A field's schema error names the
    field's own path, nested or not; a constructor's error or an unknown
    kind, at any depth, names path."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ProblemFormatError(
            path, f"sequence spec must be an object with a kind: {spec!r}")
    try:
        return _spec_sequence(spec, path, backend)
    except ProblemFormatError:
        raise
    except (SequenceError, BackendError, KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(path, str(exc)) from exc


def _spec_sequence(spec: dict, path: str, backend: Backend) -> MomentSequence:
    kind = spec["kind"]
    if kind == "factorial_power":
        return FactorialPower(_need(spec, "s", path), backend)
    if kind == "gamma":
        return GammaSequence(_need(spec, "s", path), backend)
    if kind == "q_factorial":
        return QFactorial(_need(spec, "q", path), backend)
    if kind == "product":
        factors = _need(spec, "factors", path)
        if not isinstance(factors, list) or len(factors) != 2:
            raise ProblemFormatError(f"{path}.factors", "expected a list of two "
                                     f"sequence specs, got {factors!r}")
        return ProductSequence(_part(factors[0], f"{path}.factors[0]", backend),
                               _part(factors[1], f"{path}.factors[1]", backend),
                               backend)
    if kind == "quotient":
        return QuotientSequence(
            _part(_need(spec, "numerator", path), f"{path}.numerator", backend),
            _part(_need(spec, "denominator", path), f"{path}.denominator",
                  backend),
            backend,
        )
    if kind == "table":
        values = _need(spec, "values", path)
        if not isinstance(values, list):
            raise ProblemFormatError(f"{path}.values", "expected a list of "
                                     f"rational values, got {values!r}")
        return TableSequence(values, spec.get("order", 0), backend)
    raise SequenceError(f"unknown sequence kind {kind!r}")


def _part(spec, path: str, backend: Backend) -> MomentSequence:
    """The sequence of a spec nested at path."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ProblemFormatError(path, "expected a sequence spec object with "
                                 f"a kind, got {spec!r}")
    return _spec_sequence(spec, path, backend)


def _monomial(entry, path: str, num_vars: int, backend: Backend,
              with_t: bool) -> tuple[int, tuple[int, ...], object]:
    if not isinstance(entry, dict):
        raise ProblemFormatError(path, "expected a monomial object")
    t_power = 0
    if with_t:
        t_power = _as_int(entry.get("t_power", 0), f"{path}.t_power", 0)
    elif "t_power" in entry and entry["t_power"] != 0:
        raise ProblemFormatError(f"{path}.t_power",
                                 "t powers are not allowed here")
    z_powers = _int_list(_need(entry, "z_powers", path), num_vars,
                         f"{path}.z_powers")
    value = backend.scalar(_as_rational(_need(entry, "value", path),
                                        f"{path}.value"))
    return t_power, z_powers, value


def _monomials_to_timeseries(monomials, num_vars: int) -> TimeSeries:
    top = max((t for t, _, _ in monomials), default=0)
    buckets: list[dict] = [dict() for _ in range(top + 1)]
    for t_power, z_powers, value in monomials:
        bucket = buckets[t_power]
        bucket[z_powers] = bucket.get(z_powers, 0) + value
    return TimeSeries(
        [PolySeries(num_vars, bucket) for bucket in buckets], tail_exact=True
    )


def _term(entry, path: str, num_vars: int, backend: Backend) -> OperatorTerm:
    if not isinstance(entry, dict):
        raise ProblemFormatError(path, "expected a term object")
    j = _as_int(_need(entry, "j", path), f"{path}.j", 0)
    alpha = _int_list(_need(entry, "alpha", path), num_vars, f"{path}.alpha")
    coeff_doc = _need(entry, "coefficient", path)
    if not isinstance(coeff_doc, list) or not coeff_doc:
        raise ProblemFormatError(
            f"{path}.coefficient", "expected a non-empty monomial list"
        )
    monomials = [
        _monomial(m, f"{path}.coefficient[{k}]", num_vars, backend, with_t=True)
        for k, m in enumerate(coeff_doc)
    ]
    coeff = _monomials_to_timeseries(monomials, num_vars)
    try:
        term = OperatorTerm(j, alpha, coeff)
    except ValueError as exc:
        raise ProblemFormatError(path, str(exc)) from exc
    if "ord_t" in entry:
        declared = _as_int(entry["ord_t"], f"{path}.ord_t", 0)
        if declared != term.ord_t:
            raise ProblemFormatError(
                f"{path}.ord_t",
                f"declared valuation {declared} != computed {term.ord_t}"
            )
    return term


def _generator_poly(entry, path: str, num_vars: int, z_caps, backend):
    name = entry.get("generator")
    coefficient = _as_rational(entry.get("coefficient", 1),
                               f"{path}.coefficient")
    if name == "geometric":
        poly = geometric_series(num_vars, coefficient, z_caps)
    elif name == "exp":
        poly = exponential_series(num_vars, coefficient, z_caps)
    else:
        raise ProblemFormatError(
            f"{path}.generator", f"unknown generator {name!r}"
        )
    if not backend.exact:
        poly = poly.map_coefficients(backend.scalar)
    return poly


def _poly(entry, path: str, num_vars: int, z_caps, backend) -> PolySeries:
    """z-polynomial data: a monomial list, a generator, or an explicit
    {"monomials": ..., "valid": ...} object."""
    if isinstance(entry, list):
        monomials = [
            _monomial(m, f"{path}[{k}]", num_vars, backend, with_t=False)
            for k, m in enumerate(entry)
        ]
        return PolySeries.from_monomials(
            num_vars, [(z, v) for _, z, v in monomials]
        )
    if isinstance(entry, dict) and "generator" in entry:
        return _generator_poly(entry, path, num_vars, z_caps, backend)
    if isinstance(entry, dict) and "monomials" in entry:
        if not isinstance(entry["monomials"], list):
            raise ProblemFormatError(f"{path}.monomials", "expected a list")
        monomials = [
            _monomial(m, f"{path}.monomials[{k}]", num_vars, backend,
                      with_t=False)
            for k, m in enumerate(entry["monomials"])
        ]
        valid = entry.get("valid")
        if valid is not None:
            if not isinstance(valid, list) or len(valid) != num_vars:
                raise ProblemFormatError(
                    f"{path}.valid", f"expected {num_vars} entries or null"
                )
            valid = tuple(
                None if v is None else _as_int(v, f"{path}.valid[{i}]")
                for i, v in enumerate(valid)
            )
        return PolySeries.from_monomials(
            num_vars, [(z, v) for _, z, v in monomials], valid
        )
    raise ProblemFormatError(
        path, "expected a monomial list, a generator, or a monomials object"
    )


def _rhs(entry, path: str, num_vars: int, z_caps, backend) -> TimeSeries:
    if isinstance(entry, list):
        if not entry:
            return TimeSeries.zero(num_vars)
        monomials = [
            _monomial(m, f"{path}[{k}]", num_vars, backend, with_t=True)
            for k, m in enumerate(entry)
        ]
        return _monomials_to_timeseries(monomials, num_vars)
    if isinstance(entry, dict) and "generator" in entry:
        poly = _generator_poly(entry, path, num_vars, z_caps, backend)
        t_power = _as_int(entry.get("t_power", 0), f"{path}.t_power", 0)
        entries = [PolySeries.zero(num_vars)] * t_power + [poly]
        return TimeSeries(entries, tail_exact=True)
    raise ProblemFormatError(path, "expected a monomial list or a generator")


def _estimation(entry, path: str) -> EstimationConfig:
    if entry is None:
        return EstimationConfig()
    if not isinstance(entry, dict):
        raise ProblemFormatError(path, "expected an object")
    window = entry.get("window")
    if window is not None:
        if (not isinstance(window, list)) or len(window) != 2:
            raise ProblemFormatError(f"{path}.window", "expected [lo, hi]")
        window = (_as_int(window[0], f"{path}.window[0]", 0),
                  _as_int(window[1], f"{path}.window[1]", 0))
    mode = entry.get("mode")
    if mode is not None and mode not in ("sup_proxy", "nagumo_profile"):
        raise ProblemFormatError(f"{path}.mode", f"unknown mode {mode!r}")
    return EstimationConfig(
        r=_as_rational(entry["r"], f"{path}.r") if "r" in entry else None,
        rho=_as_rational(entry["rho"], f"{path}.rho") if "rho" in entry else None,
        window=window,
        tolerance=_as_rational(entry["tolerance"], f"{path}.tolerance")
        if "tolerance" in entry else None,
        mode=mode,
    )


# -- the solution dump --------------------------------------------------------


def _fmt(value) -> str:
    """str(scalar_to_fraction(value)).  A non-integral mpf is printed from
    its mantissa: mpmath keeps a mantissa odd, so man/2^k is in lowest terms
    and needs no Fraction."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    sign, man, exp, _ = value._mpf_
    if not man or exp >= 0:  # zero, non-finite or integral
        return str(scalar_to_fraction(value))
    return f"{'-' if sign else ''}{man}/{1 << -exp}"


def _coefficients(poly: PolySeries, d: int) -> list[dict]:
    """One entry's "coefficients" in sorted key order.  With d = d_n other
    than 1 the values are int numerators, and N_n(gamma)/d_n is reduced by
    one gcd and printed as str of its Fraction would print it."""
    items = sorted(poly.coeffs.items())
    if d == 1:
        return [{"powers": list(g), "value": _fmt(x)} for g, x in items]
    out = []
    for g, x in items:
        k = math.gcd(x, d)
        out.append({"powers": list(g),
                    "value": str(x // k) if k == d else f"{x // k}/{d // k}"})
    return out


def solution_to_dict(problem: CauchyProblem, solution: FormalSolution) -> dict:
    """The solution dump: per-n sparse coefficient lists with validity, and
    the validation report.  A value may have any number of digits
    (backends.unlimited_int_digits)."""
    with unlimited_int_digits():
        return {
            "format": "momentpde.solution/1",
            "backend": problem.backend.describe(),
            "t_order": solution.t_order,
            "valid_t_order": solution.valid_t_order,
            "num_vars": problem.num_vars,
            "q_table": [
                {"j": j, "alpha": list(alpha), "q": q}
                for (j, alpha), q in sorted(problem.pde.q_table().items())
            ],
            "residual_max": _fmt(solution.residual_max),
            "entries": [{
                "n": n,
                "valid": list(poly.valid),
                "trusted": n <= solution.valid_t_order,
                "coefficients": _coefficients(poly, d),
            } for n, (poly, d) in enumerate(zip(solution.coefficients.entries,
                                                solution.denominators))],
            "validation": solution.validation.as_dict(),
        }


# One coefficient {"powers": [...], "value": "..."} of an entry's list, with
# the powers' placeholder still to be expanded to one %s per variable.
_COEFFICIENT = ('        {\n          "powers": [\n            %s\n          ],\n'
                '          "value": "%s"\n        }')


def _nested(value, indent: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True) as it reads `indent` deep.
    Indentation only changes a non-empty list or dict, so anything else
    takes the encoder's faster unindented path."""
    if not value or not isinstance(value, (list, dict)):
        return json.dumps(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _coefficients_text(coefficients: list) -> str:
    """A non-empty "coefficients" list as json.dumps lays it out in an entry:
    each coefficient filled into _COEFFICIENT by one % on its powers and
    value."""
    row = _COEFFICIENT % (",\n            ".join(
        ["%s"] * len(coefficients[0]["powers"])), "%s")
    return "[\n" + ",\n".join([row % (*c["powers"], c["value"])
                               for c in coefficients]) + "\n      ]"


def _valid_text(valid: list) -> str:
    """A non-empty "valid" list as json.dumps lays it out in an entry: one
    int or null per line.  Laid out here because json.dumps with an indent
    runs a pure-Python encoder before CPython 3.13, and each such call
    leaves a reference cycle for the collector."""
    return "[\n        " + ",\n        ".join(
        ["null" if v is None else str(v) for v in valid]) + "\n      ]"


def _entry_text(entry: dict) -> str:
    fields = []
    for key in sorted(entry):
        value = entry[key]
        if key == "coefficients" and value:
            value = _coefficients_text(value)
        elif key == "valid" and value:
            value = _valid_text(value)
        else:
            value = _nested(value, "      ")
        fields.append(f"{json.dumps(key)}: {value}")
    return "{\n      " + ",\n      ".join(fields) + "\n    }"


def write_solution(payload: dict, handle) -> None:
    """Write a `solution_to_dict` payload to a text handle.

    The bytes are those of ``json.dumps(payload, indent=2, sort_keys=True)``
    and a newline, written one entry at a time, so the whole text is never
    held.  Every key but "entries" goes through json.dumps, re-indented;
    that is exact because a JSON string never holds a raw newline.  A
    coefficient is filled into a fixed template without escaping: its
    "powers" are ints and its "value" is str of an int or a Fraction, which
    holds only digits, "-" and "/".  An entry's "valid" (ints and None) is
    laid out directly too, so writing the entries makes no reference cycle,
    however many there are (`_valid_text`).
    """
    write = handle.write
    separator = "{\n  "
    for key in sorted(payload):
        value = payload[key]
        write(f"{separator}{json.dumps(key)}: ")
        separator = ",\n  "
        if key != "entries" or not value:
            write(_nested(value, "  "))
            continue
        between = "[\n    "
        for entry in value:
            write(between)
            write(_entry_text(entry))
            between = ",\n    "
        write("\n  ]")
    write("\n}\n")
