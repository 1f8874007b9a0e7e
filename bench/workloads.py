"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Every workload is a closed loop of one single-threaded process that runs one
operation at a time.  The seed picks one entry of the workload's `choices`;
the CLI receives only the generated problem file (or, for `check`, the
chosen battery seed).  The choices of one workload are variants of equal
arithmetic cost -- the problem mirrored by z -> -z and, in two variables,
the two variables exchanged -- so that the seed changes the outputs but not
the work, and runs on different seeds measure the same thing.

The recorded outputs in expected.json were produced by the program at the
commit that added the benchmark; an operation fails when its output differs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBLEMS = HERE / "problems"
EXPECTED_PATH = HERE / "expected.json"

# Relative tolerance on the recorded s_hat (a least-squares fit in doubles).
S_HAT_RTOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


@dataclass
class Operation:
    """One repetition: CLI argument lists, each writing one output file."""

    key: str                          # the seed's choice, as recorded
    problem: Path | None              # input file given to load_problem
    commands: list[tuple[str, list[str], Path]]  # (label, argv, output)


@dataclass
class Workload:
    name: str
    why: str
    choices: tuple[str, ...]
    # span names the layer map assigns to this workload (see README.md)
    spans: tuple[str, ...]
    exact: bool = True
    template: str | None = None
    truncation: dict = field(default_factory=dict)
    window: tuple[int, int] | None = None
    estimate_flags: tuple[str, ...] = ()
    check_s_hat: bool = False
    instances: int = 0

    def choice(self, seed: int) -> str:
        return self.choices[seed % len(self.choices)]

    # -- inputs -----------------------------------------------------------

    def problem_doc(self, key: str) -> dict:
        """The problem document for one choice `[swap:][mirror:]RATIO`: the
        template with geometric initial data of that ratio.  `swap:`
        exchanges the first two variables; `mirror:` substitutes z -> -z,
        which negates the ratio and the odd part of every coefficient."""
        doc = json.loads((PROBLEMS / self.template).read_text(encoding="utf-8"))
        *flags, ratio = key.split(":")
        if "mirror" in flags:
            ratio = str(-Fraction(ratio))
            for term in doc["terms"]:
                for mono in term["coefficient"]:
                    if (sum(mono["z_powers"]) + sum(term["alpha"])) % 2:
                        mono["value"] = str(-Fraction(mono["value"]))
        if "swap" in flags:
            for term in doc["terms"]:
                term["alpha"] = term["alpha"][::-1]
                for mono in term["coefficient"]:
                    mono["z_powers"] = mono["z_powers"][::-1]
        doc["initial"] = [{"generator": "geometric", "coefficient": ratio}]
        doc["truncation"] = dict(self.truncation)
        if self.window is not None:
            doc["estimation"]["window"] = list(self.window)
        return doc

    def prepare(self, seed: int, workdir: Path) -> Operation:
        key = self.choice(seed)
        if self.template is None:
            out = workdir / "check.json"
            argv = ["check", "--seed", key, "--instances", str(self.instances),
                    "--out", str(out)]
            return Operation(key, None, [("check", argv, out)])
        problem = workdir / "problem.json"
        problem.write_text(json.dumps(self.problem_doc(key), indent=2),
                           encoding="utf-8")
        solve_out = workdir / "solve.json"
        estimate_out = workdir / "estimate.json"
        return Operation(key, problem, [
            ("solve", ["solve", str(problem), "--out", str(solve_out)],
             solve_out),
            ("estimate", ["estimate", str(problem), *self.estimate_flags,
                          "--out", str(estimate_out)], estimate_out),
        ])

    # -- checks -----------------------------------------------------------

    def check(self, op: Operation, results: dict, first: dict,
              expected: dict) -> list[str]:
        """Failures of one operation; empty when every check holds.

        results maps each command label to (exit code, output bytes or None).
        first holds the run's first digest per label and is filled on the
        first call.  expected is this workload's entry of expected.json.
        """
        failures = []
        recorded = expected.get(op.key, {})
        for label, (code, data) in results.items():
            if code != 0:
                failures.append(f"{label}: exit code {code}")
                continue
            if data is None:
                failures.append(f"{label}: no output written")
                continue
            try:
                doc = json.loads(data)
            except ValueError:
                failures.append(f"{label}: output is not JSON")
                continue
            if label == "estimate":
                failures += self._check_estimate(doc, recorded)
                continue
            digest = sha256(data)
            first.setdefault(label, digest)
            if digest != first[label]:
                failures.append(f"{label}: output differs from the run's first")
            if digest != recorded.get(f"{label}_sha256"):
                failures.append(f"{label}: output differs from the recorded one")
            if label == "solve" and self.exact and doc.get("residual_max") != "0":
                failures.append(f"solve: residual_max {doc.get('residual_max')}")
            if label == "check" and doc.get("all_pass") is not True:
                failures.append("check: battery reports a failed inequality")
        return failures

    def _check_estimate(self, doc: dict, recorded: dict) -> list[str]:
        failures = []
        if doc.get("verdict") != "PASS":
            failures.append(f"estimate: verdict {doc.get('verdict')}")
        if self.exact and doc.get("residual_max") != "0":
            failures.append(f"estimate: residual_max {doc.get('residual_max')}")
        if self.check_s_hat:
            want = recorded.get("s_hat")
            got = doc.get("s_hat")
            if not isinstance(got, float) or want is None or \
                    abs(got - want) > S_HAT_RTOL * abs(want):
                failures.append(f"estimate: s_hat {got} != recorded {want}")
        return failures


# Spans every solver workload records (see tracer.SPANS for the full list).
_SOLVER_SPANS = (
    "cli.solve", "cli.estimate", "problem_io.load", "problem_io.serialize",
    "pde.validate", "pde.apply", "solver.solve", "solver.residual",
    "series.init", "series.add", "series.scale", "series.multiply",
    "series.moment_derive", "series.ell1_norm", "moments.value",
    "moments.ratio", "estimator.verify", "estimator.fit", "polygon.k1",
)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="heat-exact",
        why="big-rational solve, residual, serialisation and exact Nagumo "
            "profile of u_t = u_zz; fraction-free storage and log-norms "
            "should show here",
        choices=("2/3", "mirror:2/3"),
        template="heat.json",
        truncation={"t_order": 64, "z_degree": [192]},
        window=(32, 64),
        estimate_flags=("--mode", "nagumo_profile"),
        spans=_SOLVER_SPANS + ("nagumo.profile", "nagumo.norm"),
    ),
    Workload(
        name="fractional-bigfloat",
        why="same solver layers on 256-bit floats (Caputo-type Gamma(1+n/2)); "
            "bypass for exact-arithmetic changes, shows per-call overhead",
        choices=("2/3", "mirror:2/3"),
        exact=False,
        template="fractional.json",
        truncation={"t_order": 64, "z_degree": [112]},
        window=(32, 64),
        check_s_hat=True,
        spans=_SOLVER_SPANS,
    ),
    Workload(
        name="heat2d-exact",
        why="two-variable problem with t- and z-dependent coefficients: many "
            "small rationals and real 2-D convolutions, dict/tuple overhead",
        choices=("2/3", "mirror:2/3", "swap:2/3", "swap:mirror:2/3"),
        template="heat2d.json",
        truncation={"t_order": 8, "z_degree": [20, 20]},
        spans=_SOLVER_SPANS,
    ),
    Workload(
        name="norm-battery",
        why="the norm-inequality battery of the check command: thousands of "
            "tiny series, no solver; predicted unchanged by solver work",
        choices=("23", "26"),
        instances=300,
        spans=("cli.check", "nagumo.battery", "nagumo.checks", "nagumo.norm",
               "series.init", "series.multiply", "series.moment_derive",
               "series.ell1_norm", "moments.ratio"),
    ),
)}
