"""Acceptance suite: end-to-end criteria at their stated tolerances.

Each test prints one PASS/FAIL line (run with -s to see them) and enforces
its runtime budget.  The problem fixtures under tests/problems/ are the same
files the CLI documentation uses.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from momentpde import (
    CauchyProblem,
    FactorialPower,
    GammaSequence,
    MomentPDE,
    OperatorTerm,
    PolySeries,
    QFactorial,
    RationalBackend,
    TimeSeries,
    build,
    k1_inverse,
    lemma_battery,
    load_problem,
    solve,
    verify_theorem,
)

from helpers import linear_combination_solution

F = Fraction
PROBLEMS = Path(__file__).parent / "problems"


class Criterion:
    """Times a criterion, prints its verdict line, enforces the budget."""

    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.label}]: {verdict} "
              f"({elapsed:.2f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed <= self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_heat_gevrey_order():
    with Criterion(1, "heat equation Gevrey order", 10):
        problem = load_problem(PROBLEMS / "heat.json")
        assert k1_inverse(problem.pde) == F(1)
        assert build(problem.pde).k1_inverse == F(1)
        solution = solve(problem)
        assert solution.residual_max == 0
        for n in range(41):
            assert solution.coefficient(n).coefficient((0,)) == \
                F(math.factorial(2 * n), math.factorial(n))
        report = verify_theorem(problem, solution)  # fixture: ell-1 proxy
        assert report.mode == "sup_proxy"
        assert 0.9 <= report.s_hat <= 1.1
        assert report.passed


def test_criterion_2_upper_bound_not_tight():
    with Criterion(2, "entire data, bound not tight", 10):
        problem = load_problem(PROBLEMS / "heat_exp.json")
        solution = solve(problem)
        assert solution.residual_max == 0
        # u_n = e^z / n! on every stored degree
        for n in range(0, 41, 5):
            u_n = solution.coefficient(n)
            top = u_n.valid[0]
            assert top == 120 - 2 * n
            for k in range(0, top + 1, max(1, top // 7)):
                assert u_n.coefficient((k,)) == \
                    F(1, math.factorial(k) * math.factorial(n))
        report = verify_theorem(problem, solution)
        assert report.k1_inverse == 1
        assert -0.1 <= report.s_hat <= 0.1
        assert report.passed


def test_criterion_3_valuation_shift():
    with Criterion(3, "coefficient t on the z-derivatives", 10):
        problem = load_problem(PROBLEMS / "heat_tcoeff.json")
        assert k1_inverse(problem.pde) == F(1, 2)
        assert build(problem.pde).k1_inverse == F(1, 2)
        solution = solve(problem)
        assert solution.residual_max == 0
        report = verify_theorem(problem, solution)
        assert 0.4 <= report.s_hat <= 0.65
        assert report.passed


def test_criterion_4_fractional_time():
    with Criterion(4, "fractional time sequence", 20):
        problem = load_problem(PROBLEMS / "fractional.json")
        assert k1_inverse(problem.pde) == F(1, 2)
        solution = solve(problem)
        ctx = problem.backend.ctx
        for n in range(31):
            got = solution.coefficient(n).coefficient((0,))
            want = ctx.factorial(n) / ctx.gamma(1 + ctx.mpf(n) / 2)
            assert abs(float((got - want) / want)) <= 1e-20
        report = verify_theorem(problem, solution)
        assert 0.4 <= report.s_hat <= 0.6
        assert report.passed


def test_criterion_5_order_zero_time_sequence():
    with Criterion(5, "q-difference equation", 5):
        problem = load_problem(PROBLEMS / "qdiff.json")
        assert k1_inverse(problem.pde) == F(0)
        solution = solve(problem)
        assert solution.residual_max == 0
        m0 = problem.pde.m0
        for n in range(41):
            assert solution.coefficient(n).coefficient((0,)) == 1 / m0.value(n)
        report = verify_theorem(problem, solution)
        assert -0.05 <= report.s_hat <= 0.05
        assert report.passed


def test_criterion_6_lemma_battery():
    with Criterion(6, "norm inequality battery", 60):
        report = lemma_battery(seed=7, instances=1000)
        vandermonde = report["vandermonde"]
        assert (vandermonde["p_max"], vandermonde["q_max"]) == (10, 10)
        assert vandermonde["n_max"] == 50
        assert vandermonde["passed"], vandermonde
        for sweep in ("submultiplicative", "derivative_bound", "shift_bound",
                      "sup_bound"):
            assert report[sweep]["count"] == 1000
            assert report[sweep]["passed"], report[sweep]
        assert report["norm_of_one"]["count"] == 20
        assert report["norm_of_one"]["passed"]
        assert report["all_pass"]


def _random_polynomial(rng, num_vars, max_degree=3, max_terms=4) -> PolySeries:
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(num_vars))
        coeffs[exps] = coeffs.get(exps, 0) + F(rng.randint(-6, 6),
                                               rng.randint(1, 3))
    return PolySeries(num_vars, coeffs)


def _random_problem_pair(rng, t_order=12):
    num_vars = rng.randint(1, 2)
    M = rng.randint(1, 2)
    m0 = rng.choice([FactorialPower(1), FactorialPower(2),
                     QFactorial(F(1, 2)), GammaSequence(1)])
    m = [rng.choice([FactorialPower(1), FactorialPower(2)])
         for _ in range(num_vars)]
    terms = []
    for _ in range(rng.randint(0, 3)):
        j = rng.randint(0, M)
        ord_t = rng.randint(max(0, j - M + 1), 2)
        alpha = tuple(rng.randint(0, 2) for _ in range(num_vars))
        entries = [PolySeries.zero(num_vars)] * ord_t
        poly = _random_polynomial(rng, num_vars, max_degree=1)
        entries.append(poly if not poly.is_zero()
                       else PolySeries.constant(num_vars, F(1)))
        terms.append(OperatorTerm(j, alpha,
                                  TimeSeries(entries, tail_exact=True)))
    pde = MomentPDE(M, m0, m, terms)

    def problem():
        rhs = TimeSeries(
            [_random_polynomial(rng, num_vars, max_degree=2)
             for _ in range(rng.randint(1, 3))],
            tail_exact=True,
        )
        initial = [_random_polynomial(rng, num_vars) for _ in range(M)]
        return CauchyProblem(pde, rhs, initial, t_order, (40,) * num_vars,
                             RationalBackend())

    return problem(), problem()


def test_criterion_7_residual_oracle():
    with Criterion(7, "exact residuals and linearity on random problems", 60):
        rng = random.Random(20250811)
        for _ in range(200):
            prob_a, prob_b = _random_problem_pair(rng)
            sol_a = solve(prob_a)
            sol_b = solve(prob_b)
            assert sol_a.residual_max == 0
            assert sol_b.residual_max == 0
            combined = solve(linear_combination_solution(prob_a, prob_b))
            for n in range(combined.t_order + 1):
                expected = sol_a.coefficient(n).add(sol_b.coefficient(n))
                assert combined.coefficient(n).coeffs == expected.coeffs


def test_criterion_8_profile_bound():
    with Criterion(8, "norm-profile growth bound", 10):
        problem = load_problem(PROBLEMS / "heat.json", {
            "mode": "nagumo_profile", "r": F(1, 2), "window": (20, 40)})
        solution = solve(problem)
        report = verify_theorem(problem, solution)
        assert report.alpha0 == (3,)
        assert report.s_hat <= 1.0 + 0.15
        assert report.passed
