"""Command dispatch, output formats, exit codes, and determinism."""

from __future__ import annotations

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
from momentpde import MomentPDE, PolySeries, TimeSeries, solver
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
    "backend-int": ("solve", "heat", _set("numerics.backend", 5), ()),
    "gamma-half-rational": (
        "solve", "fractional", None, ("--backend", "rational")),
    "all-zero-coefficient": ("solve", "heat", _set(
        "terms.0.coefficient.0.value", "0"), ()),
    "profile-r-zero": ("estimate", "heat", _set("estimation.r", "0"),
                       ("--mode", "nagumo_profile")),
    "precision-23": ("solve", "heat", None, ("--precision", "23")),
    "z-degree-count": ("solve", "heat", None, ("--z-degree", "10,10")),
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


def test_wrong_solution_names_the_first_mismatch(capsys, monkeypatch):
    # u_2 of u_t = u_zz gains z^3/7, so the operator stays right and the
    # solution is wrong: (P u)_n = (n+1) u_{n+1} - D_z^2 u_n puts 2/7 z^3 in
    # (P u)_1, the first non-zero coefficient, and -6/7 z in (P u)_2, the
    # largest l1 norm
    recurrence = solver._normalised_recurrence

    def wrong(problem):
        u = recurrence(problem)
        u[2] = u[2].add(PolySeries(1, {(3,): Fraction(1, 7)}))
        return u

    monkeypatch.setattr(solver, "_normalised_recurrence", wrong)
    code, out, err = run(capsys, "solve", PROBLEMS / "heat.json",
                         "--t-order", "6", "--z-degree", "20")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "SolveError"
    assert payload["message"].startswith(
        "(P u)_1 - f_1 is 2/7 at gamma=(3,), the first non-zero coefficient; "
        "exact residual is 6/7, not 0")


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


# A fresh interpreter runs solve and estimate, then prints its exit codes and
# which of numpy and mpmath it has loaded.
FRESH_RUN = """
import contextlib, io, json, sys
import momentpde.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([cmd, *sys.argv[1:]]) for cmd in ("solve", "estimate")]
loaded = {name.split(".")[0] for name in sys.modules} & {"numpy", "mpmath"}
print(json.dumps([codes, sorted(loaded)]))
"""


@pytest.mark.parametrize("flags, loaded", [
    ((), []),
    (("--backend", "bigfloat"), ["mpmath"]),
])
def test_fresh_run_loads_no_numpy_and_mpmath_only_for_bigfloat(flags, loaded):
    src = str(Path(momentpde.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, str(PROBLEMS / "heat.json"), *flags],
        capture_output=True, text=True, env=env, check=True)
    assert json.loads(result.stdout) == [[0, 0], loaded]


def test_table_must_cover_the_output_degree(capsys, tmp_path):
    # u_t = -z^2 D_z u with u(0, z) = z^3: u_n has degree n + 3, and a table
    # on the differentiated axis must hold m up to that degree; u_4 = 15 z^7
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
        "truncation": {"t_order": 5, "z_degree": [20]},
        "numerics": {"backend": "rational"},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", path)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "SequenceError"
    assert "m(8)" in payload["message"]
    code, out, _ = run(capsys, "solve", path, "--t-order", "4")
    assert code == 0
    assert json.loads(out)["entries"][4]["coefficients"] == [
        {"powers": [7], "value": "15"}]


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
# bigfloat`, through the u-basis loop; those were recorded before that loop
# and pde.apply came to share one walk over the operator's parts, and they
# cover t- and z-dependent coefficients and the q-factorial on that path.
# A "-pN" case adds `--precision N`; the 40- and 48-bit cases were recorded
# before the big-float kernels took their zero tests by truthiness, shared
# one radius-power table and made `sub` and a constant-left `multiply` one
# pass, and they pin rounding and cancellation, which are frequent there.
SOLVE_DIGESTS = {
    "fractional": "cd6390ce3d6de159a5fd97581613c5aca5cd4e56e54001fe4603d39a79c3a784",
    "fractional-p40": "99eb4dfed9e00f79c7383c916d7496e170fbd86a991444893c5c6d6372e6531d",
    "heat": "4ba598d74e5bed6c2b429ad0f94422585fceec71e7502cf88d2f55195473b8e5",
    "heat-bigfloat": "886488a7efe4b09d10b29da6626d3bc1367b25a3a71e7ff881bcfb42f9adec3c",
    "heat2d": "d7b78cfa8d3c67b54a6fb59f0fba513771510f462ff71148111ef4e70a8e83ba",
    "heat2d-bigfloat": "cae5885083cd37509146fd2780f34283ab891c0aef445e478c29a57e1c0fe458",
    "heat2d-bigfloat-p48": "fdb46cbe4f6e76c4cd1c74c89b2efaaefe4e2c31d1f15d7218ad5a26d0a5285e",
    "heat_exp": "9f426feea8ab973cdd1ab24f3f606f267a40feebd882c3e595e0d1164958cb81",
    "heat_exp-bigfloat": "470ccfe2d9690ea926fed0f409f6c2f617431d86c376160e9a28fb3a0cc4363e",
    "heat_tcoeff": "da9f202ef54c41c90a9c91edddb423cf492922b3109f5d28d1a425ab98033c80",
    "heat_tcoeff-bigfloat": "7b96f0637d665e1ea7d3cdf708c06b82d20f853b2d51bee5fe3e600563717bf1",
    "qdiff": "904b87cc08ff4fc19ef724659cb67271b945c6bd348bb89c7a791c9e59d45b51",
    "qdiff-bigfloat": "41ae1925a4c4627e83d552963017496c7a30f66876a5451ed109ca23e012ca8e",
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
ESTIMATE_DIGESTS = {
    ("fractional", "nagumo_profile"): "bce354924952dd0867167b2bf497ea4b8df6161e463d62bd4d28f3720059bcfd",
    ("fractional", "sup_proxy"): "a23c9899f0c26f2f8f8b7bb3dcb7b3b084efebf4e257b5984baceb53474d3142",
    ("heat", "nagumo_profile"): "9d9e0b60c9cc67b94b31b8b9abf75adf8d1d25278aa4b20598d23441cf692e78",
    ("heat", "sup_proxy"): "62e9f4ed80907634cfe8c947e1df5c157d62d0d565cd353a5bc95b1621ac3eb7",
    ("heat2d", "nagumo_profile"): "1f35bf34e12795cf8ff8eb3fff9a590fd49cfc53a598ee5de6e05598701b3fdf",
    ("heat2d", "sup_proxy"): "93b8377c9c7130a3927f537cb2df8dac8743c9160e645f5c6308e3dfd42018b7",
    ("heat_exp", "nagumo_profile"): "f8e0a0d9a76afa4594c4e908899a22a710f63e6c8f72e33a49db81ec14038821",
    ("heat_exp", "sup_proxy"): "6a29a73c5972e9ed642ef3da29e742fc841b4afd578c1bd1426caccc35c93967",
    ("heat_tcoeff", "nagumo_profile"): "b8c2342f23f6f14b3f202b7fba82ad73124ecdb9ac4dfcd7763c36d7c946d621",
    ("heat_tcoeff", "sup_proxy"): "7cd90e69059ba3d93ce9cb0ab16ab445031b20c35b1239cbc9e13024c574e54c",
    ("qdiff", "nagumo_profile"): "4a307710f4b71835ba798b7932f60222d13aed16528650722f8265bef08f0a60",
    ("qdiff", "sup_proxy"): "19328f634acba804c0f17f9b00f10a5150598da96cb53c41875ac19d15aa587c",
}


@pytest.mark.parametrize("name, mode", sorted(ESTIMATE_DIGESTS))
def test_estimate_output_matches_recorded_digest(name, mode, capsys):
    code, out, _ = run(capsys, "estimate", PROBLEMS / f"{name}.json",
                       "--mode", mode)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ESTIMATE_DIGESTS[name, mode]


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
