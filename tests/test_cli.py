"""Command dispatch, output formats, exit codes, and determinism."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import momentpde
from momentpde import MomentPDE, PolySeries, TimeSeries, problem_io, solver
from momentpde.cli import main

PROBLEMS = Path(__file__).parent / "problems"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_outputs_solution_json(capsys):
    code, out, _ = run(capsys, "solve", PROBLEMS / "heat.json",
                       "--t-order", "6", "--z-degree", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_max"] == "0"
    # u_2(0) = 4!/2! = 12
    entry = payload["entries"][2]
    constant = [c for c in entry["coefficients"] if c["powers"] == [0]]
    assert constant[0]["value"] == "12"


def test_polygon_command(capsys):
    code, out, _ = run(capsys, "polygon", PROBLEMS / "heat.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k1_inverse"] == "1"
    assert payload["vertices"] == [{"x": "1", "y": "-1"}, {"x": "2", "y": "0"}]
    assert payload["segments"][0]["slope"] == "1"


def test_estimate_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "estimate", PROBLEMS / "qdiff.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["k1_inverse"] == "0"
    assert abs(payload["s_hat"]) <= 0.05


def test_estimate_heat2d_pass(capsys):
    code, out, _ = run(capsys, "estimate", PROBLEMS / "heat2d.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["k1_inverse"] == "1"
    assert payload["residual_max"] == "0"
    assert abs(payload["s_hat"] - 1) <= 0.15


def test_estimate_fail_exit_one(capsys):
    # an impossible tolerance forces the FAIL exit path
    code, out, _ = run(capsys, "estimate", PROBLEMS / "heat.json",
                       "--t-order", "30", "--z-degree", "80",
                       "--window", "15,30", "--tolerance=-1/2")
    assert code == 1
    assert json.loads(out)["verdict"] == "FAIL"


@pytest.mark.parametrize("tolerance, verdict, code", [
    ("1/100", "FAIL", 1), ("1/50", "PASS", 0)])
def test_the_verdict_compares_the_fit_with_the_bound_plus_the_tolerance(
        tolerance, verdict, code, capsys):
    # heat.json in its sup_proxy mode fits s_hat = 1.0173371... against
    # 1/k1 = 1: PASS needs s_hat <= 1/k1 + tolerance, so a tolerance of 1/100
    # fails and one of 1/50 passes, with about 0.003 to spare either way
    got, out, _ = run(capsys, "estimate", PROBLEMS / "heat.json",
                      "--tolerance", tolerance)
    payload = json.loads(out)
    assert (payload["mode"], payload["k1_inverse"]) == ("sup_proxy", "1")
    assert abs(payload["s_hat"] - 1.0173371) < 1e-7
    assert (got, payload["verdict"], payload["tolerance"]) == (
        code, verdict, tolerance)


def test_estimate_profile_mode(capsys):
    code, out, _ = run(capsys, "estimate", PROBLEMS / "heat.json",
                       "--t-order", "24", "--z-degree", "72",
                       "--mode", "nagumo_profile", "--window", "12,24")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha0"] == [3]
    assert payload["mode"] == "nagumo_profile"


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--seed", "7", "--instances", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"]
    assert payload["vandermonde"]["passed"]
    assert payload["submultiplicative"]["count"] == 40


def test_svg_command(tmp_path, capsys):
    out_path = tmp_path / "heat.svg"
    code, out, _ = run(capsys, "svg", PROBLEMS / "heat.json",
                       "--clip=-1,-2,3,1", "--out", out_path)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "</svg>" in text
    assert "1/k1 = 1" in text
    assert json.loads(out)["k1_inverse"] == "1"


def test_svg_without_out_writes_beside_the_problem(tmp_path, capsys):
    problem = tmp_path / "heat.json"
    problem.write_bytes((PROBLEMS / "heat.json").read_bytes())
    code, out, _ = run(capsys, "svg", problem, "--clip=-1,-2,3,1")
    assert code == 0
    assert json.loads(out) == {"out": str(tmp_path / "heat.svg"),
                               "k1_inverse": "1"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["heat.json", "heat.svg"]
    assert "1/k1 = 1" in (tmp_path / "heat.svg").read_text()


# SHA-256 of the `svg` drawing of every shipped fixture at the default clip
# (one unit around the support points) and of heat at three explicit clips,
# recorded when the drawing still went through a string geometry; any change
# in a coordinate, an element or its order shows.  The fixtures whose
# polygon is heat's, principal corner (1, -1) and vertex (2, 0), share a
# digest.
SVG_DIGESTS = {
    ("fractional", None): "7a3217162f75ef1d58883d6142862b2fb310949a2fdb357ce6afe3dc7fa2dd19",
    ("gamma_z2", None): "4b13b9310a052d647ae85aad984fe2f549c47474d41352cd7ed4f75226349ae3",
    ("heat", None): "4b13b9310a052d647ae85aad984fe2f549c47474d41352cd7ed4f75226349ae3",
    ("heat", "-1,-2,3,1"): "4ae9aa2376252eb8ffb78ec07bdb653eda812d38825d982808cda060b5317a93",
    ("heat", "-3,-5,9,4"): "ee2b71d6392505a9ebd8625e92e0bded81bd637e8b255c3325ed0f468a0c961c",
    ("heat", "0,-1,2,0"): "88d955b919f37ecab5c3a74723b38420220d9c2e5a4976d99dab0cf381e9517e",
    ("heat2d", None): "4b13b9310a052d647ae85aad984fe2f549c47474d41352cd7ed4f75226349ae3",
    ("heat2d_var", None): "4b13b9310a052d647ae85aad984fe2f549c47474d41352cd7ed4f75226349ae3",
    ("heat_exp", None): "4b13b9310a052d647ae85aad984fe2f549c47474d41352cd7ed4f75226349ae3",
    ("heat_half", None): "4b13b9310a052d647ae85aad984fe2f549c47474d41352cd7ed4f75226349ae3",
    ("heat_table", None): "2ce76182501a2aa8d8e65bc62f0e5cf8c2bf04b9c7918f854e6fa1a90be7a11f",
    ("heat_tcoeff", None): "8ee6dc3123f0d07af8cc252c57444a616d43d6d0e76c0a4b97269c987d2e0d38",
    ("mixed2d", None): "4b13b9310a052d647ae85aad984fe2f549c47474d41352cd7ed4f75226349ae3",
    ("qdiff", None): "eef9eb057c877530d9f1cbdfb07b98506cec6feb69a17195da81bb236310a5ab",
    ("table_order1", None): "4b13b9310a052d647ae85aad984fe2f549c47474d41352cd7ed4f75226349ae3",
    ("third_order", None): "2ce76182501a2aa8d8e65bc62f0e5cf8c2bf04b9c7918f854e6fa1a90be7a11f",
    ("transport_z2", None): "7474d70c07f8035ee93b914ee06e61fc52496deec5b511581959efca5e062035",
    ("two_segment", None): "1659cdcf8ace6c259f4b4b1c58e659fa6e7d5d8b9eed265449aa9d62d0cc8fe1",
}


@pytest.mark.parametrize("name, clip", sorted(SVG_DIGESTS, key=str))
def test_svg_output_matches_recorded_digest(name, clip, tmp_path, capsys):
    out_path = tmp_path / "drawing.svg"
    flags = [] if clip is None else [f"--clip={clip}"]
    code, _, _ = run(capsys, "svg", PROBLEMS / f"{name}.json",
                     "--out", out_path, *flags)
    assert code == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == SVG_DIGESTS[name, clip]


def test_bad_file_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", bad)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ProblemFormatError"


def test_validation_failure_exit_two(capsys, tmp_path):
    doc = json.loads((PROBLEMS / "heat.json").read_text())
    doc["terms"][0]["j"] = 5  # valuation assumption breaks
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "estimate", path)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert any(not c["passed"] for c in payload["report"]["checks"])


def test_nonpositive_rho_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "estimate", PROBLEMS / "heat.json", "--rho", "0")
    assert code == 2
    assert json.loads(err)["error"] == "ParameterError"
    doc = json.loads((PROBLEMS / "heat.json").read_text())
    doc["estimation"]["rho"] = "0"
    path = tmp_path / "rho0.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "estimate", path)
    assert code == 2
    assert json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize("flag, message", [
    ("--rho=0", "rho must be positive, got 0"),
    ("--window=30,20",
     "window must be [lo, hi] with 0 <= lo <= hi, got [30, 20]"),
    ("--tolerance=x", "tolerance: not a rational value: 'x'"),
    ("--mode=x", "mode must be sup_proxy or nagumo_profile, got 'x'"),
])
def test_bad_settings_are_refused_before_the_recurrence(flag, message, capsys,
                                                        monkeypatch):
    from momentpde import cli

    def no_solve(problem):
        raise AssertionError("the recurrence ran")
    monkeypatch.setattr(solver, "solve", no_solve)
    monkeypatch.setattr(cli, "solve", no_solve)
    code, out, err = run(capsys, "estimate", PROBLEMS / "heat.json", flag)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ParameterError", "message": message}


@pytest.mark.parametrize("command", ["solve", "polygon", "svg", "estimate"])
def test_every_command_refuses_an_estimation_section_out_of_range(
        command, capsys, tmp_path):
    doc = json.loads((PROBLEMS / "heat.json").read_text())
    doc["estimation"]["window"] = [30, 20]
    path = tmp_path / "heat.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, path)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParameterError"
    assert not (tmp_path / "heat.svg").exists()


def test_negative_instances_exit_two(capsys):
    code, out, err = run(capsys, "check", "--instances", "-5")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParameterError"


def _set(path: str, value):
    """A document edit: put value at a dotted path ("initial.0.monomials")."""
    *parents, last = path.split(".")

    def edit(doc):
        for key in parents:
            doc = doc[int(key)] if isinstance(doc, list) else doc[key]
        doc[int(last) if isinstance(doc, list) else last] = value
    return edit


# (command, fixture, document edit or None, extra flags): each is a user
# error, which must exit 2 with a JSON reason on stderr and nothing on stdout
MALFORMED = {
    "monomials-not-a-list": (
        "solve", "heat", _set("initial.0", {"monomials": 5}), ()),
    "table-values-int": ("polygon", "heat", _set("moment.z.0", {
        "kind": "table", "values": 5, "order": "1"}), ()),
    "table-values-float": ("polygon", "heat", _set("moment.z.0", {
        "kind": "table", "values": 2.5, "order": "1"}), ()),
    "product-one-factor": ("polygon", "heat", _set("moment.t", {
        "kind": "product", "factors": [{"kind": "factorial_power", "s": "1"}]}),
        ()),
    "factorial-power-no-s": ("polygon", "heat", _set("moment.z.0", {
        "kind": "factorial_power"}), ()),
    "quotient-no-denominator": ("polygon", "heat", _set("moment.z.0", {
        "kind": "quotient", "numerator": {"kind": "factorial_power", "s": "1"}}),
        ()),
    "q-is-one": ("polygon", "qdiff", _set("moment.t.q", "1"), ()),
    "spec-not-an-object": ("polygon", "heat", _set("moment.t", 5), ()),
    "factor-without-kind": ("polygon", "heat", _set("moment.t", {
        "kind": "product", "factors": [{"s": "1"}, 2]}), ()),
    "nested-q-is-two": ("polygon", "heat", _set("moment.z.0", {
        "kind": "product", "factors": [{"kind": "gamma", "s": "1"}, {
            "kind": "quotient", "numerator": {"kind": "q_factorial", "q": "2"},
            "denominator": {"kind": "gamma", "s": "1"}}]}), ()),
    "nested-unknown-kind": ("polygon", "heat", _set("moment.t", {
        "kind": "quotient", "numerator": {"kind": "nope"},
        "denominator": {"kind": "gamma", "s": "1"}}), ()),
    "backend-int": ("solve", "heat", _set("numerics.backend", 5), ()),
    "gamma-half-rational": (
        "solve", "fractional", None, ("--backend", "rational")),
    "all-zero-coefficient": ("solve", "heat", _set(
        "terms.0.coefficient.0.value", "0"), ()),
    "profile-r-zero": ("estimate", "heat", _set("estimation.r", "0"),
                       ("--mode", "nagumo_profile")),
    # a radius is checked in the mode that does not read it as well
    "sup-proxy-r-zero": ("estimate", "heat", _set("estimation.r", "0"),
                         ("--mode", "sup_proxy")),
    "profile-rho-zero": ("estimate", "heat", _set("estimation.rho", "0"),
                         ("--mode", "nagumo_profile")),
    "sup-proxy-r-flag": ("estimate", "heat", None,
                         ("--mode", "sup_proxy", "--r", "1/0")),
    "profile-r-flag": ("estimate", "heat", None,
                       ("--mode", "nagumo_profile", "--r", "-1")),
    "sup-proxy-rho-flag": ("estimate", "heat", None,
                           ("--mode", "sup_proxy", "--rho", "-1")),
    "profile-rho-flag": ("estimate", "heat", None,
                         ("--mode", "nagumo_profile", "--rho", "1/0")),
    "precision-23": ("solve", "heat", None, ("--precision", "23")),
    # a misspelt setting is refused, not left at its default
    "estimation-unknown-key": ("estimate", "heat", _set(
        "estimation.tolerence", "1/100"), ()),
    "z-degree-count": ("solve", "heat", None, ("--z-degree", "10,10")),
    # a series object's misspelt key, and a t power on initial data, are
    # refused, not read as the default or dropped
    "generator-unknown-key": ("solve", "heat", _set(
        "initial.0.coeficient", "1/2"), ()),
    "monomials-unknown-key": ("solve", "heat", _set(
        "rhs", {"monomials": [], "valids": [4]}), ()),
    "initial-generator-t-power": ("solve", "heat", _set(
        "initial.0.t_power", 3), ()),
}

# the stderr message of a malformed sequence spec names the field
MALFORMED_MESSAGES = {
    "table-values-int":
        "moment.z[0].values: expected a list of rational values, got 5",
    "table-values-float":
        "moment.z[0].values: expected a list of rational values, got 2.5",
    "product-one-factor":
        "moment.t.factors: expected a list of two sequence specs, got "
        "[{'kind': 'factorial_power', 's': '1'}]",
    "factorial-power-no-s": "moment.z[0].s: required field is missing",
    "quotient-no-denominator":
        "moment.z[0].denominator: required field is missing",
    # a spec that is not an object with a kind: two wordings, top and nested
    "spec-not-an-object":
        "moment.t: sequence spec must be an object with a kind: 5",
    "factor-without-kind":
        "moment.t.factors[0]: expected a sequence spec object with a kind, "
        "got {'s': '1'}",
    # a sequence's own error, and an unknown kind, name the top spec
    "nested-q-is-two": "moment.z[0]: q must lie in (0,1), got 2",
    "nested-unknown-kind": "moment.t: unknown sequence kind 'nope'",
    "estimation-unknown-key": "estimation.tolerence: unknown key; expected "
                              "one of r, rho, tolerance, mode, window",
    "generator-unknown-key": "initial[0].coeficient: unknown key; expected "
                             "one of generator, coefficient, t_power",
    "monomials-unknown-key":
        "rhs.valids: unknown key; expected one of monomials, valid",
    "initial-generator-t-power":
        "initial[0].t_power: t powers are not allowed here",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_user_errors_exit_two_with_a_json_reason(case, capsys, tmp_path):
    command, name, edit, flags = MALFORMED[case]
    doc = json.loads((PROBLEMS / f"{name}.json").read_text())
    if edit is not None:
        edit(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, path, *flags)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert isinstance(payload, dict)
    assert isinstance(payload["error"], str) and payload["message"]
    if case in MALFORMED_MESSAGES:
        assert payload == {"error": "ProblemFormatError",
                           "message": MALFORMED_MESSAGES[case]}


@pytest.mark.parametrize("section, value, flags", [
    ("truncation", "x", ("--t-order", "5")),
    ("truncation", "x", ("--z-degree", "10")),
    ("numerics", [1], ("--backend", "bigfloat")),
    ("numerics", [1], ("--precision", "64")),
])
def test_a_flag_over_a_section_that_is_not_an_object_exits_two(
        section, value, flags, capsys, tmp_path):
    # the flag's override must not reach into the section before the
    # document is validated: the same reason as without the flag
    doc = json.loads((PROBLEMS / "heat.json").read_text())
    doc[section] = value
    path = tmp_path / "heat.json"
    path.write_text(json.dumps(doc))
    want = {"error": "ProblemFormatError",
            "message": f"{section}: expected an object"}
    for argv in ((), flags):
        code, out, err = run(capsys, "solve", path, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == want


def test_nonzero_exact_residual_exit_two(capsys, monkeypatch):
    apply = MomentPDE.apply

    def perturbed(self, u):
        out = apply(self, u)
        one = PolySeries.constant(out.num_vars, Fraction(1))
        entries = (out.entries[0].add(one),) + out.entries[1:]
        return TimeSeries(entries, out.tail_exact)

    monkeypatch.setattr(MomentPDE, "apply", perturbed)
    code, out, err = run(capsys, "solve", PROBLEMS / "heat.json",
                         "--t-order", "6", "--z-degree", "20")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "SolveError"
    assert "residual" in payload["message"]


@pytest.mark.parametrize("name, message", [
    # u_t = u_zz: (P u)_n = (n+1) u_{n+1} - D_z^2 u_n puts 2/7 z^3 in
    # (P u)_1, the first non-zero coefficient, and -6/7 z in (P u)_2, the
    # largest l1 norm
    pytest.param("heat", "(P u)_1 - f_1 is 2/7 at gamma=(3,), the first "
                 "non-zero coefficient; exact residual is 6/7, not 0",
                 id="heat"),
    # u_t = u_zz / 2: the same 2/7 z^3 in (P u)_1, and -3/7 z in (P u)_2,
    # a value pde.apply restores by dividing out its denominator 2
    pytest.param("heat_half", "(P u)_1 - f_1 is 2/7 at gamma=(3,), the "
                 "first non-zero coefficient; exact residual is 3/7, not 0",
                 id="heat_half"),
])
def test_wrong_solution_names_the_first_mismatch(name, message, capsys,
                                                 monkeypatch):
    # u_2 gains z^3/7, so the operator stays right and the solution is wrong
    recurrence = solver._integer_recurrence

    def wrong(problem):
        # u_2 + z^3/7 = (7 N_2 + d_2 z^3) / (7 d_2)
        numerators, denominators = recurrence(problem)
        d = denominators[2]
        numerators[2] = numerators[2].scale(7).add(PolySeries(1, {(3,): d}))
        denominators[2] = 7 * d
        return numerators, denominators

    monkeypatch.setattr(solver, "_integer_recurrence", wrong)
    code, out, err = run(capsys, "solve", PROBLEMS / f"{name}.json",
                         "--t-order", "6", "--z-degree", "20")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "SolveError"
    assert payload["message"].startswith(message)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="CPython before 3.10.7 has no limit on int-to-decimal conversion")


@contextlib.contextmanager
def digit_limit(limit):
    """The caller's limit on int-to-decimal conversion set to limit, and
    the previous one restored after."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@needs_digit_limit
@pytest.mark.parametrize("backend", ["rational", "bigfloat"])
def test_solve_prints_values_past_the_digit_limit(backend, tmp_path, capsys):
    # data z^3000 for u_t = -D_z^3 u: u_n = (-1)^n 3000!/((3000-3n)! n!)
    # z^(3000-3n) passes 4,300 digits near n = 570, which the default limit
    # on str(int) refused; the limit holds again after the command
    doc = json.loads((PROBLEMS / "third_order.json").read_text())
    doc["initial"] = [[{"z_powers": [3000], "value": "1"}]]
    path = tmp_path / "z3000.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    with digit_limit(4300):
        code, _, err = run(capsys, "solve", path, "--t-order", "580",
                           "--z-degree", "3000", "--backend", backend,
                           "--out", out)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 4300
    payload = json.loads(out.read_text())
    digits = max(len(c["value"]) for entry in payload["entries"]
                 for c in entry["coefficients"])
    assert digits > 4300


@needs_digit_limit
def test_a_low_caller_digit_limit_is_restored(capsys, monkeypatch):
    # heat at t-order 200 prints values of over 640 digits, the lowest limit
    # CPython allows; the caller's 640 holds again after the dump, also
    # after one that raises
    with digit_limit(640):
        code, out, _ = run(capsys, "solve", PROBLEMS / "heat.json",
                           "--t-order", "200", "--z-degree", "600")
        assert code == 0
        assert max(map(len, out.split())) > 640
        assert sys.get_int_max_str_digits() == 640

        def failing(value):
            raise RuntimeError("dump failed")

        monkeypatch.setattr(problem_io, "_fmt", failing)
        with pytest.raises(RuntimeError, match="dump failed"):
            main(["solve", str(PROBLEMS / "heat.json"), "--t-order", "4"])
        assert sys.get_int_max_str_digits() == 640


@needs_digit_limit
def test_mismatch_message_prints_a_value_past_the_digit_limit(capsys,
                                                              monkeypatch):
    # as in the test above, u_2 gains z^3/7, here times 10^5000: the
    # message names a value of 5,001 digits and the exit is still 2
    recurrence = solver._integer_recurrence

    def wrong(problem):
        numerators, denominators = recurrence(problem)
        d = denominators[2]
        numerators[2] = numerators[2].scale(7).add(
            PolySeries(1, {(3,): d * 10 ** 5000}))
        denominators[2] = 7 * d
        return numerators, denominators

    monkeypatch.setattr(solver, "_integer_recurrence", wrong)
    with digit_limit(4300):
        code, out, err = run(capsys, "solve", PROBLEMS / "heat.json",
                             "--t-order", "6", "--z-degree", "20")
        assert sys.get_int_max_str_digits() == 4300
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "SolveError"
    assert payload["message"].startswith(
        "(P u)_1 - f_1 is 2" + "0" * 5000 + "/7 at gamma=(3,), ")


def test_overclaimed_validity_exit_two(capsys, monkeypatch):
    # without the alpha-lowering the recurrence trusts u_1 of u_t = u_zz up
    # to z^20, where D_z^2 u_0 (and so (P u)_0) is trusted only to z^18; the
    # values stay self-consistent, so only the validity check sees it
    monkeypatch.setattr(solver, "_lowered", lambda valid, alpha: valid)
    code, out, err = run(capsys, "solve", PROBLEMS / "heat.json",
                         "--t-order", "6", "--z-degree", "20")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "SolveError"
    assert payload["message"].startswith(
        "(P u)_0 - f_0 is trusted up to valid=[18], but u_1 claims "
        "valid=[20]")


# A fresh interpreter runs solve, estimate and polygon, then prints its exit
# codes and which of numpy, mpmath and dataclasses it has loaded.
FRESH_RUN = """
import contextlib, io, json, sys
import momentpde.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([cmd, *sys.argv[1:]])
             for cmd in ("solve", "estimate", "polygon")]
loaded = {name.split(".")[0] for name in sys.modules} & {
    "numpy", "mpmath", "dataclasses"}
print(json.dumps([codes, sorted(loaded)]))
"""


@pytest.mark.parametrize("flags, loaded", [
    ((), []),
    (("--backend", "bigfloat"), ["mpmath"]),
])
def test_fresh_run_loads_no_numpy_or_dataclasses_and_mpmath_only_for_bigfloat(
        flags, loaded):
    src = str(Path(momentpde.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, str(PROBLEMS / "heat.json"), *flags],
        capture_output=True, text=True, env=env, check=True)
    assert json.loads(result.stdout) == [[0, 0, 0], loaded]


# The child caps its own address space before it starts: a run that tried
# to form (n+1)^(10^400) would fail on memory there, and the parent's
# timeout ends one that hangs, so the test fails instead of stalling.
CAPPED_RUN = """
import resource, runpy, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.argv = ["momentpde", *sys.argv[1:]]
runpy.run_module("momentpde", run_name="__main__")
"""


def _huge_order_error(tmp_path, kind: str, s: str, *flags: str) -> str:
    """The message of `solve` at t-order 3 on heat with a z-sequence of the
    given kind and order, which must exit 2 with a short BackendError."""
    doc = json.loads((PROBLEMS / "heat.json").read_text())
    doc["moment"]["z"][0] = {"kind": kind, "s": s}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    src = str(Path(momentpde.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CAPPED_RUN, "solve", str(path), "--t-order",
         "3", *flags], capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    payload = json.loads(result.stderr)
    assert payload["error"] == "BackendError"
    assert "exact value unavailable" in payload["message"]
    assert len(payload["message"]) < 200
    return payload["message"]


@pytest.mark.parametrize("kind, s", [
    ("factorial_power", "1e400"), ("factorial_power", "1e5000"),
    ("gamma", "1e400"), ("gamma", "100000000")])
def test_a_huge_exact_order_exits_two_at_once(kind, s, tmp_path):
    # m(2) = 2!^s, or m(1) = Γ(1 + s) = s!, passes the bit budget of an
    # exact value, so solve stops with a BackendError before forming it,
    # and the reason prints no huge number
    _huge_order_error(tmp_path, kind, s)


def test_a_huge_big_float_order_exits_two_in_the_dump(tmp_path):
    # in big float m(n) = n!^(10^400) is an mpf whose exponent has over
    # 1,300 bits:
    # the solve runs, and the dump's exact binary value of such an mpf
    # passes the bit budget, so it stops before forming 2^|exponent|
    message = _huge_order_error(tmp_path, "factorial_power", "1e400",
                                "--backend", "bigfloat")
    assert message.startswith("the exact value of an mpf with a ")


@pytest.mark.parametrize("mode, error", [
    ("sup_proxy", "FitError"), ("nagumo_profile", "ParameterError")])
def test_a_huge_big_float_order_estimate_exits_two(mode, error, capsys,
                                                   tmp_path):
    # with m(n) = n!^(10^400) in big float the ell-1 norms have logs past
    # the double range, and the profile's order 10^400 is no double: the
    # fit and the norm each stop with a reason instead of an OverflowError
    doc = json.loads((PROBLEMS / "heat.json").read_text())
    doc["moment"]["z"][0]["s"] = "1e400"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "estimate", path, "--backend", "bigfloat",
                         "--mode", mode, "--t-order", "10", "--z-degree",
                         "20", "--window", "2,10")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("backend", ["rational", "bigfloat"])
def test_table_must_cover_the_differentiated_degree(backend, capsys, tmp_path):
    # u_t = -z^2 D_z u with u(0, z) = z^3: u_n = (-1)^n C(n+2, 2) z^(n+3).
    # Both recurrences differentiate u_0 .. u_(T-1), so a table on the
    # differentiated axis must hold m up to degree T + 2: the 8-entry table
    # (m(0) .. m(7)) solves t-order 5, u_5 = -21 z^8, and t-order 6 needs m(8)
    doc = {
        "variables": 1,
        "moment": {
            "t": {"kind": "factorial_power", "s": "1"},
            "z": [{"kind": "table", "order": "1",
                   "values": [str(math.factorial(k)) for k in range(8)]}],
        },
        "M": 1,
        "terms": [{"j": 0, "alpha": [1], "coefficient": [
            {"t_power": 0, "z_powers": [2], "value": "1"}]}],
        "rhs": [],
        "initial": [[{"z_powers": [3], "value": "1"}]],
        "truncation": {"t_order": 6, "z_degree": [20]},
        "numerics": {"backend": backend},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", path)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "SequenceError"
    assert "m(8)" in payload["message"]
    code, out, _ = run(capsys, "solve", path, "--t-order", "5")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [entry["coefficients"] for entry in entries[4:]] == [
        [{"powers": [7], "value": "15"}], [{"powers": [8], "value": "-21"}]]


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "solve", PROBLEMS / "heat.json",
                      "--t-order", "8", "--z-degree", "30")
    _, second, _ = run(capsys, "solve", PROBLEMS / "heat.json",
                       "--t-order", "8", "--z-degree", "30")
    assert first == second
    _, check_a, _ = run(capsys, "check", "--seed", "3", "--instances", "25")
    _, check_b, _ = run(capsys, "check", "--seed", "3", "--instances", "25")
    assert check_a == check_b


# SHA-256 of the `solve` output for each shipped fixture at its own
# truncation, recorded with the u-basis exact recurrence, before the exact
# mode moved to the moment-normalised basis; any change in a digit, a key or
# a validity shows.  A "-bigfloat" case runs the fixture with `--backend
# bigfloat`; they cover t- and z-dependent coefficients and the q-factorial
# on that path.  The -bigfloat cases of heat, heat2d (and -p48),
# heat2d_var, heat_exp, heat_half (and -p40), heat_tcoeff (and -p40) and
# two_segment were re-recorded when big float came to run the exact mode's
# recurrence, each u_n(gamma) one rounding of its sum, and a Fraction to be
# rounded once into an mpf; the other big-float cases kept their digests.
# A "-pN" case adds `--precision N`; the 40- and 48-bit cases were recorded
# before the big-float kernels took their zero tests by truthiness, shared
# one radius-power table and made `sub` and a constant-left `multiply` one
# pass, and they pin rounding and cancellation, which are frequent there.
# The third_order, transport_z2 and mixed2d cases (closed-form fixtures:
# order-3 multiplier lists, a z-dependent coefficient, two moving axes per
# key) and heat_table (a z-table) were recorded on the moment-normalised
# exact recurrence, before the exact mode came to store int numerators over
# one denominator per t-order.  heat_half (u_t = u_zz / 2) and heat2d_var
# (the benchmark's two-variable operator, coefficients -1/2 z1 and -1/3 z2)
# have non-integral operator coefficients; they were recorded before
# pde.apply came to clear the operator's denominators.  heat_half-bigfloat-p40
# (the constant coefficient -1/2), heat_tcoeff-bigfloat-p40 (the coefficient
# -t, a constant -1 at t^1) and fractional-p24 (the shortest mantissa) were
# recorded before the big-float walk folded a negative constant coefficient's
# sign into the sum, so they pin that the fold moves no bit.  two_segment
# (a second hull segment, the coefficient -t^2 on D_z^3) and gamma_z2 (the
# z-sequence (2n)!) were recorded before the operator's walk became one
# MomentPDE method.  heat_table's digest was re-recorded when validation came
# to warn that its table's values fit order 0.97, not the declared 3/2; with
# that warning taken out, its output is byte for byte the one of the digest
# 567fcf15aef65023bbbe0e6223aa1a4ffeab578dd109dece3ce071eca219aa0c.
# fractional-p1024 and mixed2d-bigfloat-p1024 (the longest mantissa, one and
# two moving axes) were recorded on the mpf operators, before the big-float
# kernels came to call libmp on raw values, so they pin that no bit moved.
# wave_z4 and wave_tz2 (t-order M = 2; wave_tz2's term has j = 1, so its
# big-float recurrence weighs parts by m0(n-p)/m0(n-p-1)) were recorded, in
# both backends and at 24 bits, before the solver's derivatives and sums,
# and apply's sum, came to stay libmp tuples between calls.  heat_forced (the
# one fixture with a right-hand side, a generator) was recorded in both
# backends with the readers that preceded the one series reader.
SOLVE_DIGESTS = {
    "fractional": "cd6390ce3d6de159a5fd97581613c5aca5cd4e56e54001fe4603d39a79c3a784",
    "fractional-p1024": "d13ca3ec7ab775c95368410b8df01f20c6ba212437072842d69c44b998111942",
    "fractional-p24": "b03c3cf606beb5e9cfece65d144833f59fc114a442030f494f12e59dc165f0d4",
    "fractional-p40": "99eb4dfed9e00f79c7383c916d7496e170fbd86a991444893c5c6d6372e6531d",
    "heat": "4ba598d74e5bed6c2b429ad0f94422585fceec71e7502cf88d2f55195473b8e5",
    "heat-bigfloat": "fe4672a6da8ce8fe3e546c202a2aed2e95d5a1514f53c1304e3f5db15bb2dab0",
    "heat2d": "d7b78cfa8d3c67b54a6fb59f0fba513771510f462ff71148111ef4e70a8e83ba",
    "heat2d-bigfloat": "5b0a834267d8fb29eda10515ca442521382b56aa17679aebd6b215dfe69b147b",
    "heat2d-bigfloat-p48": "26e99c9b105423bef1f4948f9993b3927ba8de2f9b2712848347d8b52e108a69",
    "heat2d_var": "72ad3a21661fe3b9898804d53af4b32a21cf1310faa493c706298d779c514db6",
    "heat2d_var-bigfloat": "a1ac4dbf75431d2c49d790da608260033e010db2e0deb02d9de4565fbafd92bb",
    "heat_forced": "2f373c3142d4bb5fd2da6a9a588c2a45fdbed68b2f44601e28412925a30a0c78",
    "heat_forced-bigfloat": "0500bde430aadd9d2346365fadd9d646ad578d86e17e6c9dffab9f94dd5781f3",
    "heat_exp": "9f426feea8ab973cdd1ab24f3f606f267a40feebd882c3e595e0d1164958cb81",
    "heat_exp-bigfloat": "2e4a6718b5359b2e7dcfcf4f90bdf12e2a7ea37591ab22f1e3eec115997f24f5",
    "heat_half": "9d968842e72b63c295847fe2ebcfb057bbf46d971e3ac943f1d8051113368012",
    "heat_half-bigfloat": "32411be9a359b4873afe61fad565911a1d7e97a3e9a9b1f3533336a4e27d94cf",
    "heat_half-bigfloat-p40": "19b60a5f5cd6a3a9db576275d66c5d0d3813340010b69d1ed475c1e535ed2be4",
    "heat_table": "f05a6519c171c0e39aa22ebedb7889c5ad5edcc5afd2524a4b654229ae5f4e64",
    "heat_tcoeff": "da9f202ef54c41c90a9c91edddb423cf492922b3109f5d28d1a425ab98033c80",
    "heat_tcoeff-bigfloat": "f206f7d65a2ee410b3e9b7a8362136c300e14e72d6a811d4e53bbcc8d829d5e2",
    "heat_tcoeff-bigfloat-p40": "bb1e7d3ac68fbb75b2263e61b436564ad193cdfeba700014213ef231cc1bab4e",
    "qdiff": "904b87cc08ff4fc19ef724659cb67271b945c6bd348bb89c7a791c9e59d45b51",
    "qdiff-bigfloat": "41ae1925a4c4627e83d552963017496c7a30f66876a5451ed109ca23e012ca8e",
    "mixed2d": "09fe9c922ed3332eda266075b9859697613f645f18b78f4fb2a20c57db51f89a",
    "mixed2d-bigfloat-p1024": "b315ac229743ec503917bad8fcca8f122c4ed5bf8fc485cc12bbc54bbf6ba108",
    "third_order": "cbef725c0fa9f45f91264131329b2efa3d5af3f19b3a719edc6e84c2f86b99cf",
    "transport_z2": "4db9ac8ab0224156dbe025462dd4a2566b4009a1b55acb322dfd4ece9dee515f",
    "two_segment": "0c5d440715ed60863b106d812473e724ce9ebb6c5afd7b4158a9f34e4dcc839e",
    "two_segment-bigfloat": "2be88c3a5f19d17cae1e16d8786cdc4bfd4731302c960a4ff8acf668784e708c",
    "gamma_z2": "afaf5a3fec10c0718d70be3512ed9423d03085ed9336368ccd09de5609173bd4",
    "gamma_z2-bigfloat": "9ae3876c2172813fbe063056335158542894227d38c6c1a0ba7b2f24d58c3473",
    "wave_tz2": "bd516ad958288eaa829069f752e363149574e94185b9d1cf3b740922224659b4",
    "wave_tz2-bigfloat": "17bee12ac9d3cd6f86d6ab5cb06e9f8081dcf97fddd8eabf6ab089a9eda69e3d",
    "wave_tz2-bigfloat-p24": "ca368156ac37e552069cf286e89400584808b4f6e4cd03ff82621cc77d434a80",
    "wave_z4": "8aebf063b08d9845e455eb9d5031c23817a5ff777b7a908229f451f579f05dd5",
    "wave_z4-bigfloat": "b4b3cc6769f89ee028af4a0d1be4615c2f24e5d95afe0ba8b9662ed92e87f1be",
    "wave_z4-bigfloat-p24": "1b50dcb80ad114ebdf7a21d04339c0ea1862d9b7e32d15a6214f42e5a9d1d6cf",
}


@pytest.mark.parametrize("case", sorted(SOLVE_DIGESTS))
def test_solve_output_matches_recorded_digest(case, tmp_path, capsys):
    name, *options = case.split("-")
    flags = []
    for option in options:
        if option.startswith("p"):
            flags += ["--precision", option[1:]]
        else:
            flags += ["--backend", option]
    out_path = tmp_path / "solve.json"
    code, _, _ = run(capsys, "solve", PROBLEMS / f"{name}.json",
                     "--out", out_path, *flags)
    assert code == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == SOLVE_DIGESTS[case]


@pytest.mark.parametrize("backend", ["rational", "bigfloat"])
def test_solve_writes_the_same_bytes_to_stdout_and_out(backend, tmp_path,
                                                       capsys):
    argv = ("solve", PROBLEMS / "heat_tcoeff.json", "--backend", backend)
    out_path = tmp_path / "solve.json"
    code, out, _ = run(capsys, *argv, "--out", out_path)
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == out_path.read_bytes()


# SHA-256 of the `check` output at 200 instances, recorded before the Nagumo
# layer dropped its stored exactness flag and its unused battery options;
# any change in a random draw, a verdict or a key shows.
CHECK_DIGESTS = {
    7: "db6e772f5141ddf64627ba6172bc69e599eed480ecfd1b196b912f9bbfd77476",
    23: "f0ef3bd52b8093e33f56e4e8b76b6ef8610578620e4ddae68f611352f47538e9",
}


@pytest.mark.parametrize("seed", sorted(CHECK_DIGESTS))
def test_check_output_matches_recorded_digest(seed, capsys):
    code, out, _ = run(capsys, "check", "--seed", seed, "--instances", "200")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_DIGESTS[seed]


# SHA-256 of the `estimate` output for each shipped fixture in both modes,
# recorded when the fit became the exact least-squares solution of its
# doubles: the digits no longer depend on a BLAS build, so any change in a
# fitted digit, a verdict or a key shows.
# The heat_table, mixed2d, third_order and transport_z2 cases were recorded
# before the exact mode stored int numerators over one denominator per
# t-order; heat_table's z-table declares order 3/2, so its norms past n = 0
# are taken over double logs of the reduced values.  The heat_half and
# heat2d_var cases were recorded before pde.apply came to clear the
# operator's denominators, the two_segment and gamma_z2 cases before the
# operator's walk became one MomentPDE method, and the wave_z4 and wave_tz2
# cases (M = 2) when those fixtures were added.  heat_forced's were recorded
# with the readers that preceded the one series reader; its solution is
# wave_tz2's (u_t = u_zz + 1/(1 - z) is u_tt = d_t d_z^2 u integrated once in
# t), and so is its Nagumo profile report.
ESTIMATE_DIGESTS = {
    ("fractional", "nagumo_profile"): "bce354924952dd0867167b2bf497ea4b8df6161e463d62bd4d28f3720059bcfd",
    ("fractional", "sup_proxy"): "a23c9899f0c26f2f8f8b7bb3dcb7b3b084efebf4e257b5984baceb53474d3142",
    ("heat", "nagumo_profile"): "9d9e0b60c9cc67b94b31b8b9abf75adf8d1d25278aa4b20598d23441cf692e78",
    ("heat", "sup_proxy"): "62e9f4ed80907634cfe8c947e1df5c157d62d0d565cd353a5bc95b1621ac3eb7",
    ("heat2d", "nagumo_profile"): "1f35bf34e12795cf8ff8eb3fff9a590fd49cfc53a598ee5de6e05598701b3fdf",
    ("heat2d", "sup_proxy"): "93b8377c9c7130a3927f537cb2df8dac8743c9160e645f5c6308e3dfd42018b7",
    ("heat2d_var", "nagumo_profile"): "939fa8ad6048eb7991b393257cdae1ccbf6673dcee2785fd2d904e9cb6a575e5",
    ("heat2d_var", "sup_proxy"): "eb407aa70740d9a982ec2fefb995df760f758dccb7e0f7f88db0241caf77099d",
    ("heat_forced", "nagumo_profile"): "b9a0452c8adc45f05b5d6612debbdf954ebf153b78ffcc05d502d58ace833d24",
    ("heat_forced", "sup_proxy"): "2c0c83aa10c58dd27dfed86b14415fb3fc4c50db0e7e4e0d1176396cb1ec5cdd",
    ("heat_exp", "nagumo_profile"): "f8e0a0d9a76afa4594c4e908899a22a710f63e6c8f72e33a49db81ec14038821",
    ("heat_exp", "sup_proxy"): "6a29a73c5972e9ed642ef3da29e742fc841b4afd578c1bd1426caccc35c93967",
    ("heat_half", "nagumo_profile"): "e913952294bce19ecda7c84328750cf8a5d06fffa702e24c2e8c495924c8b22b",
    ("heat_half", "sup_proxy"): "42b4dad49c3ea3bc6f26be727ce5992b889e730542ee4f4d22f3e6bcae959460",
    ("heat_tcoeff", "nagumo_profile"): "b8c2342f23f6f14b3f202b7fba82ad73124ecdb9ac4dfcd7763c36d7c946d621",
    ("heat_tcoeff", "sup_proxy"): "7cd90e69059ba3d93ce9cb0ab16ab445031b20c35b1239cbc9e13024c574e54c",
    ("qdiff", "nagumo_profile"): "4a307710f4b71835ba798b7932f60222d13aed16528650722f8265bef08f0a60",
    ("qdiff", "sup_proxy"): "19328f634acba804c0f17f9b00f10a5150598da96cb53c41875ac19d15aa587c",
    ("heat_table", "nagumo_profile"): "277e6240db637fa054b0e5fa8df522132fb9bf8b6bde0509112a2bd9e3df70cb",
    ("mixed2d", "nagumo_profile"): "09fc91f883fc0f76046f078256f4fa5e19e30ee5c71a3c7883b0e4ab11dfb743",
    ("third_order", "nagumo_profile"): "17d0a7b18c754fcd1501dce144cf1db60460b06d957030f829ad8e68a8bc41e8",
    ("transport_z2", "nagumo_profile"): "bed649fa660ef1af2097af128c664fc00ce9f894bfcae9233bb5b4de6ef64dde",
    ("two_segment", "nagumo_profile"): "b614b21c1408ed23857da64d7e801a153441b073422d65a6f99cb4c99c9e6a7e",
    ("gamma_z2", "nagumo_profile"): "ac7093215031fd4419aee69422235c6fca15726575c5f7efab6b33ba10699ca3",
    ("wave_tz2", "nagumo_profile"): "b9a0452c8adc45f05b5d6612debbdf954ebf153b78ffcc05d502d58ace833d24",
    ("wave_z4", "nagumo_profile"): "ebdfd918cb0f65c10e0ee51176cc4cb1d67363be4ed52869fa4a0857fb897be7",
}


@pytest.mark.parametrize("name, mode", sorted(ESTIMATE_DIGESTS))
def test_estimate_output_matches_recorded_digest(name, mode, capsys):
    code, out, _ = run(capsys, "estimate", PROBLEMS / f"{name}.json",
                       "--mode", mode)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ESTIMATE_DIGESTS[name, mode]


def _geometric(ratio: str, top: int, t_power: int = 0) -> list:
    """The monomials of t^t_power / (1 - ratio z) up to z^top."""
    c = Fraction(ratio)
    return [{"t_power": t_power, "z_powers": [k], "value": str(c ** k)}
            for k in range(top + 1)]


# Every series form at every series field, each with an equivalent form, on
# heat.json: (field, a value that solves otherwise, the form, its
# equivalent, document edits made first, flags that override --t-order 10
# and --z-degree 20).  The last case cuts the coefficient 1/(1 - z) at z^30
# below data of degree 60, so valid(a_p) binds from u_1 on.
DATA_FORMS = {
    "initial-monomials-object": ("initial", [[]], [{
        "monomials": _geometric("1", 20), "valid": [20]}],
        [{"generator": "geometric", "coefficient": "1"}], {}, ()),
    "rhs-generator-t-power": ("rhs", [], _geometric("1/2", 20, 2),
        {"generator": "geometric", "coefficient": "1/2", "t_power": 2}, {},
        ()),
    "rhs-monomials-object": ("rhs", [], {
        "monomials": _geometric("1/2", 20, 2), "valid": [20]},
        {"generator": "geometric", "coefficient": "1/2", "t_power": 2}, {},
        ()),
    "coefficient-generator-t-power": ("terms.0.coefficient", [{
        "z_powers": [0], "value": "-1"}], {
        "monomials": _geometric("1/2", 20, 1), "valid": [20]},
        {"generator": "geometric", "coefficient": "1/2", "t_power": 1}, {},
        ()),
    "coefficient-truncated": ("terms.0.coefficient", [{
        "z_powers": [0], "value": "-1"}], {
        "monomials": _geometric("1", 30), "valid": [30]},
        {"generator": "geometric", "coefficient": "1"},
        {"initial": [{"monomials": _geometric("1", 60), "valid": [60]}]},
        ("--t-order", "20", "--z-degree", "30")),
}


@pytest.mark.parametrize("case", sorted(DATA_FORMS))
def test_a_data_form_solves_as_its_monomial_list(case, capsys, tmp_path):
    field, other, form, equivalent, edits, flags = DATA_FORMS[case]
    doc = json.loads((PROBLEMS / "heat.json").read_text())
    doc.update(edits)
    path = tmp_path / "heat.json"
    for backend in ("bigfloat", "rational"):  # the exact dump is read below
        outputs = []
        for value in (other, form, equivalent):
            _set(field, value)(doc)
            path.write_text(json.dumps(doc))
            outputs.append(run(capsys, "solve", path, "--backend", backend,
                               "--t-order", "10", "--z-degree", "20", *flags))
        assert outputs[1] == outputs[2]
        assert outputs[1][0] == 0 and outputs[1] != outputs[0]
    dump = json.loads(outputs[1][1])
    assert dump["residual_max"] == "0"
    if case == "coefficient-truncated":
        assert [entry["valid"] for entry in dump["entries"]] == [[60]] + [
            [32 - 2 * n] for n in range(1, 21)]
        assert dump["valid_t_order"] == 16


def test_backend_override(capsys):
    code, out, _ = run(capsys, "solve", PROBLEMS / "heat.json",
                       "--t-order", "4", "--z-degree", "12",
                       "--backend", "bigfloat", "--precision", "128")
    assert code == 0
    payload = json.loads(out)
    assert payload["backend"] == {"backend": "bigfloat", "precision_bits": 128}
    entry = payload["entries"][1]
    constant = [c for c in entry["coefficients"] if c["powers"] == [0]]
    assert constant[0]["value"] == "2"  # exact even through the float backend


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "polygon.json"
    code, out, _ = run(capsys, "polygon", PROBLEMS / "heat.json",
                       "--out", out_path)
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["k1_inverse"] == "1"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    from momentpde import cli
    builds = []

    def counted():
        builds.append(1)
        return build()

    build = cli._build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", counted)
    assert run(capsys, "polygon", PROBLEMS / "heat.json")[0] == 0
    assert run(capsys, "polygon", PROBLEMS / "heat2d.json")[0] == 0
    assert len(builds) == 1


def test_main_runs_the_command_bound_when_it_is_called(capsys, monkeypatch):
    # a cmd_* rebound on the module after the parser exists is the one run,
    # as the benchmark's tracer rebinds them after import
    from momentpde import cli
    assert run(capsys, "polygon", PROBLEMS / "heat.json")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_polygon",
                        lambda args: seen.append(args.problem) or 7)
    assert run(capsys, "polygon", PROBLEMS / "heat.json") == (7, "", "")
    assert seen == [str(PROBLEMS / "heat.json")]


def test_a_bad_flag_on_a_later_call_still_exits_two(capsys):
    # a malformed command line is a user error: exit 2 with one JSON object
    # naming it on stderr, not argparse's usage text
    assert run(capsys, "polygon", PROBLEMS / "heat.json")[0] == 0
    for argv in (["polygon", PROBLEMS / "heat.json", "--no-such-flag"],
                 ["solve", PROBLEMS / "heat.json", "--t-order", "x"],
                 ["estimate", PROBLEMS / "heat.json", "--window", "5"],
                 ["svg", PROBLEMS / "heat.json", "--clip=1,2"],
                 ["check", "--seed", "x"],
                 ["solve"],
                 ["no-such-command"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "UsageError"
    assert run(capsys, "polygon", PROBLEMS / "heat.json")[0] == 0


@pytest.mark.parametrize("argv, form", [
    (["estimate", PROBLEMS / "heat.json", "--window", "5"], "LO,HI"),
    (["solve", PROBLEMS / "heat.json", "--z-degree", "x"], "D1,D2,..."),
    (["svg", PROBLEMS / "heat.json", "--clip", "1/0,0,1,1"], "X0,Y0,X1,Y1"),
    (["svg", PROBLEMS / "heat.json", "--clip", "a,b,c,d"], "X0,Y0,X1,Y1"),
])
def test_a_malformed_list_flag_names_its_form_not_a_function(argv, form,
                                                             capsys):
    from momentpde import cli

    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "UsageError"
    assert f"argument {argv[2]}: expected {form}" in payload["message"]
    # argparse names a type function that raises ValueError
    private = [name for name, value in vars(cli).items()
               if callable(value) and name.startswith("_")]
    assert [name for name in private if name in payload["message"]] == []


@contextlib.contextmanager
def _collector(collecting: bool):
    """Run the block with the cyclic collector on or off, then restore it."""
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, code", [
    (["solve", PROBLEMS / "heat.json", "--t-order", "6", "--z-degree", "20"], 0),
    (["estimate", PROBLEMS / "heat.json", "--t-order", "30", "--z-degree", "80",
      "--window", "15,30", "--tolerance=-1/2"], 1),
    (["solve", PROBLEMS / "no_such_problem.json"], 2),
], ids=["solve", "estimate-fail", "user-error"])
def test_main_gives_the_caller_its_collector_state_back(argv, code, collecting,
                                                        capsys):
    with _collector(collecting):
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is collecting


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_a_command_runs_with_the_collector_paused(collecting, capsys,
                                                  monkeypatch):
    # and an error no exit code covers propagates, with the state restored
    from momentpde import cli
    seen = []

    def broken(args):
        seen.append(gc.isenabled())
        raise RuntimeError("not a user error")

    monkeypatch.setattr(cli, "cmd_polygon",
                        lambda args: seen.append(gc.isenabled()) or 0)
    monkeypatch.setattr(cli, "cmd_solve", broken)
    with _collector(collecting):
        assert run(capsys, "polygon", PROBLEMS / "heat.json")[0] == 0
        assert gc.isenabled() is collecting
        with pytest.raises(RuntimeError, match="not a user error"):
            run(capsys, "solve", PROBLEMS / "heat.json")
        assert gc.isenabled() is collecting
    assert seen == [False, False]
