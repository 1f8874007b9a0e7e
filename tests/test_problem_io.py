"""Problem-file schema: parsing, error paths, and the solution dump."""

from __future__ import annotations

import gc
import io
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from momentpde import (
    FactorialPower,
    GammaSequence,
    ProblemFormatError,
    ProductSequence,
    QFactorial,
    QuotientSequence,
    TableSequence,
    load_problem,
    parse_problem,
    solution_to_dict,
    solve,
    validate,
    problem_io,
    write_solution,
)

F = Fraction
PROBLEMS = Path(__file__).parent / "problems"


def test_parse_heat_fixture():
    problem = load_problem(PROBLEMS / "heat.json")
    pde = problem.pde
    assert pde.M == 1
    assert pde.num_vars == 1
    assert pde.s0 == 1 and pde.s == (1,)
    assert len(pde.terms) == 1
    term = pde.terms[0]
    assert term.t_derivative == 0
    assert term.z_derivatives == (2,)
    assert term.ord_t == 0
    assert problem.t_order == 40
    assert problem.z_caps == (120,)
    assert problem.backend.name == "rational"
    assert problem.estimation.rho == F(1, 8)
    assert problem.estimation.window == (20, 40)
    # geometric data: all ones up to the cap
    assert problem.initial[0].coefficient((7,)) == 1
    assert problem.initial[0].valid == (120,)


def test_missing_field_names_path():
    with pytest.raises(ProblemFormatError) as err:
        parse_problem('{"variables": 1}')
    assert "moment" in str(err.value)


def test_json_syntax_error_reports_position():
    with pytest.raises(ProblemFormatError) as err:
        parse_problem("{none}")
    assert "line 1" in str(err.value)


def test_rational_strings_parse_exactly():
    problem = load_problem(PROBLEMS / "heat.json")
    value = problem.pde.terms[0].coeff.coefficient(0).coefficient((0,))
    assert value == F(-1)
    assert type(value) is Fraction


def test_floats_rejected_in_documents():
    bad = '''{
      "variables": 1,
      "moment": {"t": {"kind": "factorial_power", "s": "1"},
                 "z": [{"kind": "factorial_power", "s": "1"}]},
      "M": 1,
      "terms": [{"j": 0, "alpha": [2],
                 "coefficient": [{"z_powers": [0], "value": 0.5}]}],
      "rhs": [],
      "initial": [[{"z_powers": [0], "value": "1"}]],
      "truncation": {"t_order": 4, "z_degree": [8]}
    }'''
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(bad)
    assert "terms[0].coefficient[0].value" in str(err.value)


def test_alpha_arity_checked():
    bad = '''{
      "variables": 2,
      "moment": {"t": {"kind": "factorial_power", "s": "1"},
                 "z": [{"kind": "factorial_power", "s": "1"},
                        {"kind": "factorial_power", "s": "1"}]},
      "M": 1,
      "terms": [{"j": 0, "alpha": [2],
                 "coefficient": [{"z_powers": [0, 0], "value": "-1"}]}],
      "rhs": [],
      "initial": [[{"z_powers": [0, 0], "value": "1"}]],
      "truncation": {"t_order": 4, "z_degree": [8, 8]}
    }'''
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(bad)
    assert "terms[0].alpha" in str(err.value)


def test_declared_ord_t_must_match():
    doc = (PROBLEMS / "heat.json").read_text()
    doc = doc.replace('"alpha": [2],', '"alpha": [2], "ord_t": 3,')
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(doc)
    assert "ord_t" in str(err.value)


_KINDS = {"factorial_power": FactorialPower, "gamma": GammaSequence,
          "q_factorial": QFactorial, "product": ProductSequence,
          "quotient": QuotientSequence, "table": TableSequence}


def _assert_sequence_reads_back(seq, spec: dict) -> None:
    assert type(seq) is _KINDS[spec["kind"]]
    if "s" in spec:
        assert seq.s == F(spec["s"])
    if "q" in spec:
        assert seq.q == F(spec["q"])
    if "factors" in spec:
        _assert_sequence_reads_back(seq.lhs, spec["factors"][0])
        _assert_sequence_reads_back(seq.rhs, spec["factors"][1])
    if "numerator" in spec:
        _assert_sequence_reads_back(seq.num, spec["numerator"])
        _assert_sequence_reads_back(seq.den, spec["denominator"])
    if "values" in spec:
        assert seq.order == F(spec.get("order", 0))
        assert [seq.value(k) for k in range(len(spec["values"]))] == [
            seq.backend.scalar(F(v)) for v in spec["values"]]


def _monomial_values(monomials: list, scalar) -> dict:
    """{(t_power, z_powers): value} of a document's monomial list."""
    out: dict = {}
    for m in monomials:
        key = (m.get("t_power", 0), tuple(m["z_powers"]))
        out[key] = out.get(key, 0) + F(m["value"])
    return {key: scalar(value) for key, value in out.items() if value}


def _generator_values(entry: dict, caps, scalar) -> dict:
    """{gamma: c^|gamma|}, over prod gamma_i! for the exp generator."""
    c = F(entry.get("coefficient", 1))
    out = {}
    for gamma in itertools.product(*(range(cap + 1) for cap in caps)):
        value = c ** sum(gamma)
        if entry["generator"] == "exp":
            value /= math.prod(map(math.factorial, gamma))
        if value:
            out[gamma] = scalar(value)
    return out


def _series_values(series) -> dict:
    return {(t, z): v for t, entry in enumerate(series.entries)
            for z, v in entry.coeffs.items()}


# The document read back from the parsed problem, field by field: the parse
# half of a document -> problem -> document round trip, with the fixture
# itself as the other end.
@pytest.mark.parametrize("name", ["heat", "heat_exp", "heat_tcoeff", "qdiff",
                                  "fractional", "heat2d"])
def test_round_trip_all_fixtures(name):
    doc = json.loads((PROBLEMS / f"{name}.json").read_text())
    problem = load_problem(PROBLEMS / f"{name}.json")
    pde = problem.pde
    scalar = problem.backend.scalar
    assert problem.backend.describe() == doc["numerics"]
    assert (pde.num_vars, pde.M) == (doc["variables"], doc["M"])
    _assert_sequence_reads_back(pde.m0, doc["moment"]["t"])
    assert len(pde.m) == len(doc["moment"]["z"])
    for seq, spec in zip(pde.m, doc["moment"]["z"]):
        _assert_sequence_reads_back(seq, spec)
    assert len(pde.terms) == len(doc["terms"])
    for term, entry in zip(pde.terms, doc["terms"]):
        assert term.key() == (entry["j"], tuple(entry["alpha"]))
        assert term.coeff.tail_exact
        assert _series_values(term.coeff) == _monomial_values(
            entry["coefficient"], scalar)
    assert _series_values(problem.rhs) == _monomial_values(doc["rhs"], scalar)
    assert (problem.t_order, list(problem.z_caps)) == (
        doc["truncation"]["t_order"], doc["truncation"]["z_degree"])
    assert len(problem.initial) == len(doc["initial"])
    for phi, entry in zip(problem.initial, doc["initial"]):
        if isinstance(entry, list):
            assert phi.is_exact()
            assert phi.coeffs == {
                z: v for (_, z), v in _monomial_values(entry, scalar).items()}
        else:
            assert phi.valid == problem.z_caps
            assert phi.coeffs == _generator_values(entry, problem.z_caps,
                                                   scalar)
    # a setting the file leaves out takes the package default
    est, block = problem.estimation, doc["estimation"]
    for key, default in (("r", "1/2"), ("rho", "1/4"), ("tolerance", "3/20")):
        assert getattr(est, key) == F(block.get(key, default))
    assert est.window == tuple(block["window"])
    assert est.mode == block["mode"]


def _heat_with_moment_t(spec) -> str:
    """heat.json with its t-sequence spec replaced by spec."""
    doc = json.loads((PROBLEMS / "heat.json").read_text())
    doc["moment"]["t"] = spec
    return json.dumps(doc)


def test_sequence_from_spec_round_trip():
    # the only coverage of the product, quotient and table specs' parsing
    problem = parse_problem(_heat_with_moment_t({
        "kind": "product",
        "factors": [
            {"kind": "factorial_power", "s": "1"},
            {"kind": "q_factorial", "q": "1/2"},
        ],
    }))
    seq = problem.pde.m0
    assert type(seq) is ProductSequence and seq.backend == problem.backend
    assert type(seq.lhs) is FactorialPower and seq.lhs.s == 1
    assert type(seq.rhs) is QFactorial and seq.rhs.q == Fraction(1, 2)
    assert seq.order == 1
    assert seq.value(2) == 2 * Fraction(3, 2)
    quotient = parse_problem(_heat_with_moment_t({
        "kind": "quotient",
        "numerator": {"kind": "gamma", "s": "2"},
        "denominator": {"kind": "factorial_power", "s": "1"},
    })).pde.m0
    assert type(quotient) is QuotientSequence and quotient.order == 1
    assert type(quotient.num) is GammaSequence and quotient.num.s == 2
    assert type(quotient.den) is FactorialPower and quotient.den.s == 1
    assert quotient.value(3) == Fraction(720, 6)
    table = parse_problem(_heat_with_moment_t(
        {"kind": "table", "values": ["1", "3/2", "4"], "order": "1/2"})).pde.m0
    assert type(table) is TableSequence and table.order == Fraction(1, 2)
    assert [table.value(k) for k in range(3)] == [1, Fraction(3, 2), 4]


@pytest.mark.parametrize("spec, field", [
    ({"kind": "gamma"}, "s"),
    ({"kind": "q_factorial"}, "q"),
    ({"kind": "table", "values": "1"}, "values"),
    ({"kind": "product", "factors": {"kind": "gamma", "s": "1"}}, "factors"),
    ({"kind": "product", "factors": [{"kind": "gamma", "s": "1"}, 2]},
     "factors[1]"),
    ({"kind": "product", "factors": [
        {"kind": "quotient", "numerator": {"kind": "gamma"}},
        {"kind": "gamma", "s": "1"}]}, "factors[0].numerator.s"),
    ({"kind": "quotient", "denominator": {"kind": "gamma", "s": "1"}},
     "numerator"),
])
def test_spec_errors_name_the_field(spec, field):
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(_heat_with_moment_t(spec))
    assert err.value.path == "moment.t." + field


def test_monomials_object_needs_a_list():
    doc = json.loads((PROBLEMS / "heat.json").read_text())
    doc["initial"] = [{"monomials": 5}]
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(json.dumps(doc))
    assert err.value.path == "initial[0].monomials"


def test_overrides():
    problem = load_problem(PROBLEMS / "heat.json",
                           {"t_order": 6, "z_degree": [20]})
    assert problem.t_order == 6
    assert problem.z_caps == (20,)
    assert problem.initial[0].valid == (20,)


def test_unknown_override_keys_are_refused():
    # a misspelt key is named, not dropped: without the check the problem
    # below loaded with its own t-order 40 and window (20, 40)
    with pytest.raises(ProblemFormatError) as err:
        load_problem(PROBLEMS / "heat.json",
                     {"windows": [5, 10], "t-order": 3, "t_order": 6})
    assert err.value.path == "overrides"
    assert "'t-order', 'windows';" in str(err.value)
    assert "t_order" not in str(err.value).split(";")[0]


def test_solution_dump_shape():
    problem = load_problem(PROBLEMS / "heat.json",
                           {"t_order": 4, "z_degree": [16]})
    solution = solve(problem)
    payload = solution_to_dict(problem, solution)
    assert payload["format"] == "momentpde.solution/1"
    assert payload["t_order"] == 4
    assert payload["residual_max"] == "0"
    assert payload["q_table"] == [{"j": 0, "alpha": [2], "q": 1}]
    entry = payload["entries"][1]
    assert entry["n"] == 1
    assert entry["valid"] == [14]
    assert entry["coefficients"][0] == {"powers": [0], "value": "2"}


def _solve_payload(problem) -> dict:
    """The payload `momentpde solve` writes."""
    return solution_to_dict(problem, solve(problem))


def _assert_written_as_json_dumps(payload: dict) -> None:
    handle = io.StringIO()
    write_solution(payload, handle)
    assert handle.getvalue() == json.dumps(payload, indent=2,
                                           sort_keys=True) + "\n"


# every fixture on each backend it validates on: all but fractional on the
# rational one, whose Gamma(1 + n/2) moments are not rational
@pytest.mark.parametrize("name, backend", [
    (path.stem, backend)
    for path in sorted(PROBLEMS.glob("*.json"))
    for backend in ("rational", "bigfloat")
    if validate(load_problem(path, {"backend": backend})).passed
])
def test_written_solution_equals_json_dumps(name, backend):
    problem = load_problem(PROBLEMS / f"{name}.json", {"backend": backend})
    _assert_written_as_json_dumps(_solve_payload(problem))


@pytest.mark.parametrize("valid", [
    [7], [None], [-1], [120], [None, 14], [-1, 1234], [0, None, -1],
    [98765, 3, None],
])
def test_valid_is_laid_out_as_json_dumps(valid):
    # an entry's "valid" is written without json.dumps: one int or null per
    # line, null for an unbounded axis, -1 for an exhausted one
    assert problem_io._valid_text(valid) \
        == json.dumps(valid, indent=2).replace("\n", "\n      ")
    plane = _solve_payload(load_problem(PROBLEMS / "heat2d.json",
                                        {"t_order": 1, "z_degree": [3, 2]}))
    for entry in plane["entries"]:
        entry["valid"] = valid
    _assert_written_as_json_dumps(plane)


def test_writing_the_entries_makes_no_reference_cycle():
    # the garbage one dump leaves for the collector does not grow with its
    # number of entries (json.dumps with an indent leaves a cycle per call
    # before CPython 3.13), so a command may run with the collector paused
    payloads = [_solve_payload(load_problem(PROBLEMS / "heat.json",
                                            {"t_order": t}))
                for t in (5, 40)]
    collecting = gc.isenabled()
    gc.disable()
    try:
        found = []
        for payload in payloads:
            handle = io.StringIO()
            gc.collect()
            write_solution(payload, handle)
            found.append(gc.collect())
    finally:
        if collecting:
            gc.enable()
    assert len(payloads[1]["entries"]) == 41
    assert found[0] == found[1]


def test_written_solution_equals_json_dumps_on_edge_cases():
    # z-degree 6 is spent by n = 3, so the later entries are not trusted
    short = _solve_payload(
        load_problem(PROBLEMS / "heat.json", {"t_order": 6, "z_degree": [6]}))
    assert not short["entries"][-1]["trusted"]
    # a null field is written as json.dumps writes it
    short["residual_max"] = None
    # polynomial data: unbounded validity and empty t-coefficients
    tcoeff = _solve_payload(load_problem(PROBLEMS / "heat_tcoeff.json"))
    assert any(None in entry["valid"] for entry in tcoeff["entries"])
    assert any(not entry["coefficients"] for entry in tcoeff["entries"])
    plane = _solve_payload(load_problem(PROBLEMS / "heat2d.json",
                                        {"t_order": 3, "z_degree": [5, 4]}))
    assert plane["num_vars"] == 2
    # strings outside the coefficients are escaped by json.dumps
    plane["validation"]["warnings"] = ['a "quoted"\n\\ warning, \u00e9']
    for payload in (short, tcoeff, plane):
        _assert_written_as_json_dumps(payload)
    _assert_written_as_json_dumps(dict(plane, entries=[]))
