"""Problem-file parsing and the solution dump.

Problems are JSON documents, read and never written back; every numeric
entry is an exact rational written as a string ("3/4", "-1", "0.5") or an
integer, never a float, so exact-mode runs are reproducible byte for byte.
The solution dump keeps the same convention: big-float coefficients
serialize as the exact rational value of their binary representation,
a non-integral one printed as man/2^k straight from its `_mpf_` tuple,
each 2^k printed once per dump; and an exact u_n(gamma), stored as an int
numerator over the t-order's one denominator d_n (solver module
docstring), is reduced by one gcd and printed as str of its Fraction would
print it, with no Fraction built.  Each value is rendered once, straight
from (N_n, d_n) in sorted key order, and an entry's values are of one
scalar domain, read off its first value.

`solution_to_dict` decides what the solution dump contains and
`write_solution` only lays it out.  The layout is that of
``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, byte for
byte, but the dump is streamed to the output handle one t-order entry at a
time.  A coefficient of one variable is laid out by one f-string of its
power and value string; of more variables it is filled into a fixed
template by one % on its powers and value.  Both hold because a
coefficient value is ``str`` of an int or a Fraction (a big float's exact
binary rational), which never contains a character JSON escapes.

Schema (see README for the worked example):

    variables    number of z variables N
    moment       {"t": seq, "z": [seq, ...]}            sequence sub-schema
    M            principal t-derivative order
    terms        [{"j", "alpha", "coefficient": series}, ...]
    rhs          series (default [], the zero series)
    initial      M series in z alone: a non-zero t power is refused
    truncation   {"t_order": N_max, "z_degree": [caps...]}
    numerics     {"backend": "rational"|"bigfloat", "precision_bits": 256}
    estimation   {"r", "rho", "window": [lo, hi], "tolerance", "mode"}  (optional;
                 checked, and defaulted, by pde.EstimationConfig; any other
                 key is refused)

The overrides of `load_problem` (the commands' flags) set the keys of
OVERRIDES in their sections before the document is read; None sets none,
and a key outside OVERRIDES is refused.

Every series field takes one of three forms, read by `_series`: a monomial
list [monomial...]; a generator {"generator": "geometric"|"exp",
"coefficient": rational, "t_power": int}, the z-series 1/prod(1 - c z_i) or
exp(c (z_1+...+z_N)) expanded to the z_degree caps, times t^t_power; or
{"monomials": [monomial...], "valid": [int or null, ...]}.  An object of
either kind with any other key is refused.  A monomial is {"t_power": int,
"z_powers": [ints], "value": rational}; "t_power" defaults to 0, here and
in a generator.  Sequence sub-schema, parsed here only:
{"kind": "factorial_power"|"gamma", "s": rational},
{"kind": "q_factorial", "q": rational},
{"kind": "product", "factors": [seq, seq]},
{"kind": "quotient", "numerator": seq, "denominator": seq},
{"kind": "table", "values": [...], "order": rational}.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction

from .backends import (
    DEFAULT_PRECISION,
    Backend,
    BackendError,
    is_mpf,
    make_backend,
    parse_rational,
    power_of_two,
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
        _apply_overrides(doc, overrides)

    num_vars = _as_int(_need(doc, "variables", ""), "variables", 1)

    numerics = doc.get("numerics", {})
    if not isinstance(numerics, dict):
        raise ProblemFormatError("numerics", "expected an object")
    backend_name = numerics.get("backend", "rational")
    precision = _as_int(numerics.get("precision_bits", DEFAULT_PRECISION),
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
        _term(entry, f"terms[{i}]", num_vars, z_caps, backend)
        for i, entry in enumerate(terms_doc)
    ]

    pde = MomentPDE(principal_order, m0, m, terms)

    rhs = _series(doc.get("rhs", []), "rhs", num_vars, z_caps, backend,
                  with_t=True)

    initial_doc = _need(doc, "initial", "")
    if not isinstance(initial_doc, list) or len(initial_doc) != principal_order:
        raise ProblemFormatError(
            "initial", f"expected {principal_order} initial data entries"
        )
    initial = [
        _series(entry, f"initial[{j}]", num_vars, z_caps, backend,
                with_t=False).entries[0]
        for j, entry in enumerate(initial_doc)
    ]

    estimation = _estimation(doc.get("estimation"))

    return CauchyProblem(
        pde=pde,
        rhs=rhs,
        initial=initial,
        t_order=t_order,
        z_caps=z_caps,
        backend=backend,
        estimation=estimation,
    )


# The document section each override key is set in.
OVERRIDES = {"t_order": "truncation", "z_degree": "truncation",
             "backend": "numerics", "precision_bits": "numerics",
             **dict.fromkeys(EstimationConfig.__slots__, "estimation")}


def _apply_overrides(doc: dict, overrides: dict) -> None:
    """Set each given value in its section of doc, a copy of the document's
    top level: a section is copied before it is set, so the document read
    is left as it is.  A key outside OVERRIDES is refused, and a section
    that is not an object is rejected as the document without overrides
    is."""
    unknown = sorted(set(overrides) - OVERRIDES.keys())
    if unknown:
        raise ProblemFormatError("overrides", "unknown keys " + ", ".join(
            map(repr, unknown)) + "; expected " + ", ".join(OVERRIDES))
    for key, section in OVERRIDES.items():
        value = overrides.get(key)
        if value is not None:
            entry = doc.get(section, {})
            if not isinstance(entry, dict):
                raise ProblemFormatError(section, "expected an object")
            if isinstance(value, tuple):
                value = list(value)
            doc[section] = {**entry, key: value}


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


def _t_power(entry: dict, path: str, with_t: bool) -> int:
    """entry's t power, 0 when absent; without with_t only 0 is allowed."""
    if with_t:
        return _as_int(entry.get("t_power", 0), f"{path}.t_power", 0)
    if entry.get("t_power", 0) != 0:
        raise ProblemFormatError(f"{path}.t_power",
                                 "t powers are not allowed here")
    return 0


def _monomial(entry, path: str, num_vars: int, backend: Backend,
              with_t: bool) -> tuple[int, tuple[int, ...], object]:
    if not isinstance(entry, dict):
        raise ProblemFormatError(path, "expected a monomial object")
    t_power = _t_power(entry, path, with_t)
    z_powers = _int_list(_need(entry, "z_powers", path), num_vars,
                         f"{path}.z_powers")
    value = backend.scalar(_as_rational(_need(entry, "value", path),
                                        f"{path}.value"))
    return t_power, z_powers, value


def _monomials(entries: list, path: str, num_vars: int, backend: Backend,
               with_t: bool, valid=None) -> TimeSeries:
    """The sum of the monomials at path, one z-polynomial of the given
    validity per t-power; an empty list is the zero series."""
    monomials = [_monomial(m, f"{path}[{k}]", num_vars, backend, with_t)
                 for k, m in enumerate(entries)]
    top = max((t for t, _, _ in monomials), default=0)
    buckets: list[dict] = [dict() for _ in range(top + 1)]
    for t_power, z_powers, value in monomials:
        bucket = buckets[t_power]
        bucket[z_powers] = bucket.get(z_powers, 0) + value
    return TimeSeries(
        [PolySeries(num_vars, bucket, valid) for bucket in buckets],
        tail_exact=True
    )


def _term(entry, path: str, num_vars: int, z_caps,
          backend: Backend) -> OperatorTerm:
    if not isinstance(entry, dict):
        raise ProblemFormatError(path, "expected a term object")
    j = _as_int(_need(entry, "j", path), f"{path}.j", 0)
    alpha = _int_list(_need(entry, "alpha", path), num_vars, f"{path}.alpha")
    coeff = _series(_need(entry, "coefficient", path), f"{path}.coefficient",
                    num_vars, z_caps, backend, with_t=True)
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


# The keys of each object form of a series, the first naming the form.
_FORMS = (("generator", "coefficient", "t_power"), ("monomials", "valid"))


def _series(entry, path: str, num_vars: int, z_caps, backend: Backend,
            with_t: bool) -> TimeSeries:
    """A series field in any of its three forms: a monomial list, a
    generator (a z-series expanded to the caps, times t^t_power), or
    {"monomials": [...], "valid": [...]}.  Without with_t every t power
    but 0 is refused.  A key outside its form is refused."""
    if isinstance(entry, list):
        return _monomials(entry, path, num_vars, backend, with_t)
    keys = next((keys for keys in _FORMS
                 if isinstance(entry, dict) and keys[0] in entry), None)
    if keys is None:
        raise ProblemFormatError(
            path, "expected a monomial list, a generator, or a monomials object"
        )
    for key in entry:
        if key not in keys:
            raise ProblemFormatError(f"{path}.{key}", "unknown key; expected "
                                     "one of " + ", ".join(keys))
    if keys[0] == "monomials":
        if not isinstance(entry["monomials"], list):
            raise ProblemFormatError(f"{path}.monomials", "expected a list")
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
        return _monomials(entry["monomials"], f"{path}.monomials", num_vars,
                          backend, with_t, valid)
    name = entry["generator"]
    if name not in ("geometric", "exp"):
        raise ProblemFormatError(f"{path}.generator",
                                 f"unknown generator {name!r}")
    t_power = _t_power(entry, path, with_t)
    poly = (geometric_series if name == "geometric" else exponential_series)(
        num_vars, _as_rational(entry.get("coefficient", 1),
                               f"{path}.coefficient"), z_caps)
    if not backend.exact:
        poly = poly.map_coefficients(backend.scalar)
    return TimeSeries([PolySeries.zero(num_vars)] * t_power + [poly],
                      tail_exact=True)


def _estimation(entry) -> EstimationConfig:
    """The section's settings, checked and defaulted by EstimationConfig;
    a key that is not one of them is refused."""
    if entry is None:
        entry = {}
    if not isinstance(entry, dict):
        raise ProblemFormatError("estimation", "expected an object")
    for key in entry:
        if key not in EstimationConfig.__slots__:
            raise ProblemFormatError(f"estimation.{key}", "unknown key; "
                                     "expected one of " + ", ".join(
                                         EstimationConfig.__slots__))
    return EstimationConfig(**entry)


# -- the solution dump --------------------------------------------------------


def _texts(values: list, powers: dict) -> list[str]:
    """str(scalar_to_fraction(v)) of each of values, which are of one
    scalar domain, read off the first.  A non-integral mpf is printed from
    its `_mpf_` tuple: mpmath keeps a mantissa odd, so man/2^k is in lowest
    terms and needs no Fraction.  powers keeps str(2^k) by exponent -k, so
    a dump that passes one dict to all its values prints each 2^k once."""
    if not values or not is_mpf(values[0]):
        return [str(value) for value in values]
    out = []
    for value in values:
        sign, man, exp, _ = value._mpf_
        if not man or exp >= 0:  # zero, non-finite or integral
            out.append(str(scalar_to_fraction(value)))
            continue
        text = powers.get(exp)
        if text is None:
            text = powers[exp] = str(power_of_two(-exp))
        out.append(f"-{man}/{text}" if sign else f"{man}/{text}")
    return out


def _fmt(value) -> str:
    """str(scalar_to_fraction(value)), as _texts prints it."""
    return _texts([value], {})[0]


def _coefficients(poly: PolySeries, d: int, powers: dict) -> list[dict]:
    """One entry's "coefficients" in sorted key order.  With d = d_n other
    than 1 the values are int numerators, and N_n(gamma)/d_n is reduced by
    one gcd and printed as str of its Fraction would print it; with d = 1
    the values are printed by _texts with the dump's powers."""
    items = sorted(poly.coeffs.items())
    if d == 1:
        texts = _texts([x for _, x in items], powers)
        return [{"powers": list(g), "value": text}
                for (g, _), text in zip(items, texts)]
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
    powers: dict = {}  # str(2^k) of the dump's big-float values (_texts)
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
                "coefficients": _coefficients(poly, d, powers),
            } for n, (poly, d) in enumerate(zip(solution.coefficients.entries,
                                                solution.denominators))],
            "validation": solution.validation.as_dict(),
        }


# One coefficient {"powers": [...], "value": "..."} of an entry's list, with
# the powers' placeholder still to be expanded to one %s per variable.
_COEFFICIENT = ('        {\n          "powers": [\n            %s\n          ],\n'
                '          "value": "%s"\n        }')
_POWERS_VALUE = operator.itemgetter("powers", "value")


def _nested(value, indent: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True) as it reads `indent` deep.
    Indentation only changes a non-empty list or dict, so anything else
    takes the encoder's faster unindented path."""
    if not value or not isinstance(value, (list, dict)):
        return json.dumps(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _coefficients_text(coefficients: list) -> str:
    """A non-empty "coefficients" list as json.dumps lays it out in an entry:
    one variable's coefficient is one f-string of its power and value, and
    more variables' fill _COEFFICIENT by one % on their powers and value."""
    if len(coefficients[0]["powers"]) == 1:
        rows = [f'        {{\n          "powers": [\n            {g}\n'
                f'          ],\n          "value": "{value}"\n        }}'
                for (g,), value in map(_POWERS_VALUE, coefficients)]
    else:
        row = _COEFFICIENT % (",\n            ".join(
            ["%s"] * len(coefficients[0]["powers"])), "%s")
        rows = [row % (*c["powers"], c["value"]) for c in coefficients]
    return "[\n" + ",\n".join(rows) + "\n      ]"


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
    coefficient is laid out without escaping (`_coefficients_text`): its
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
