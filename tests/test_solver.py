"""The coefficient recurrence, residual oracle, and solution diagnostics."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from momentpde import (
    BigFloatBackend,
    CauchyProblem,
    FactorialPower,
    FormalSolution,
    GammaSequence,
    MomentPDE,
    OperatorTerm,
    PolySeries,
    ProductSequence,
    QFactorial,
    RationalBackend,
    SolveError,
    TableSequence,
    TimeSeries,
    ValidationError,
    build,
    geometric_series,
    k1_inverse,
    residual,
    solve,
    solver,
    validate,
)
from momentpde.backends import scalar_to_fraction
from momentpde.problem_io import load_problem, problem_from_dict
from momentpde.solver import _derive, _integer_recurrence, _summed

from helpers import (
    fraction_residual,
    linear_combination_solution,
    recurrence_reference,
    with_values,
    zero_rhs,
)

F = Fraction
PROBLEMS = Path(__file__).parent / "problems"
FIXTURES = ("fractional", "heat", "heat2d", "heat2d_var", "heat_exp",
            "heat_half", "heat_tcoeff", "qdiff")


def constant_coeff(value, num_vars=1) -> TimeSeries:
    return TimeSeries([PolySeries.constant(num_vars, F(value))], tail_exact=True)


def heat_pde() -> MomentPDE:
    return MomentPDE(1, FactorialPower(1), [FactorialPower(1)],
                     [OperatorTerm(0, (2,), constant_coeff(-1))])


def problem(pde, initial, rhs=None, t_order=10, z_caps=(30,), backend=None,
            num_vars=1) -> CauchyProblem:
    return CauchyProblem(
        pde=pde,
        rhs=rhs if rhs is not None else zero_rhs(num_vars),
        initial=initial,
        t_order=t_order,
        z_caps=z_caps,
        backend=backend or RationalBackend(),
    )


def test_heat_with_square_data():
    # hand recurrence: u1 = d_z^2 u0 / 1 = 2, then everything vanishes
    sol = solve(problem(heat_pde(), [PolySeries(1, {(2,): F(1)})]))
    assert sol.coefficient(0).coeffs == {(2,): F(1)}
    assert sol.coefficient(1).coeffs == {(0,): F(2)}
    assert all(sol.coefficient(n).is_zero() for n in range(2, 11))
    assert sol.residual_max == 0


def test_q_difference_ode():
    m0 = QFactorial(F(1, 2))
    pde = MomentPDE(1, m0, [FactorialPower(1)],
                    [OperatorTerm(0, (0,), constant_coeff(-1))])
    sol = solve(problem(pde, [PolySeries.constant(1, F(1))], z_caps=(0,),
                        t_order=20))
    assert sol.coefficient(2).coefficient((0,)) == F(2, 3)
    for n in range(21):
        assert sol.coefficient(n).coefficient((0,)) == 1 / m0.value(n)
    assert sol.residual_max == 0


def test_heat_geometric_closed_form():
    sol = solve(problem(heat_pde(), [geometric_series(1, 1, (40,))],
                        t_order=12, z_caps=(40,)))
    # closed form: d^{2n}(1/(1-z)) at 0 is (2n)!, divided by n!
    for n in range(13):
        assert sol.coefficient(n).coefficient((0,)) == \
            F(math.factorial(2 * n), math.factorial(n))
    assert sol.residual_max == 0


def test_heat_geometric_small_n_direct_recurrence():
    # independent oracle: run the recurrence by hand on dense lists
    cap = 12
    u = [F(1) for _ in range(cap + 1)]  # 1/(1-z) coefficients
    hand = [list(u)]
    for n in range(1, 4):
        prev = hand[-1]
        nxt = [
            F((k + 2) * (k + 1), 1) * prev[k + 2] / n
            if k + 2 <= cap and prev[k + 2] is not None else None
            for k in range(cap + 1)
        ]
        hand.append(nxt)
    sol = solve(problem(heat_pde(), [geometric_series(1, 1, (cap,))],
                        t_order=3, z_caps=(cap,)))
    for n in range(4):
        for k in range(cap - 2 * n + 1):
            assert sol.coefficient(n).coefficient((k,)) == hand[n][k]


def test_fractional_closed_form():
    backend = BigFloatBackend(256)
    m0 = GammaSequence(F(1, 2), backend)
    pde = MomentPDE(
        1, m0, [FactorialPower(1, backend)],
        [OperatorTerm(0, (1,), TimeSeries(
            [PolySeries.constant(1, backend.scalar(-1))], tail_exact=True))],
    )
    phi = geometric_series(1, 1, (40,)).map_coefficients(backend.scalar)
    sol = solve(problem(pde, [phi], t_order=20, z_caps=(40,), backend=backend))
    ctx = backend.ctx
    for n in range(21):
        got = sol.coefficient(n).coefficient((0,))
        want = ctx.factorial(n) / ctx.gamma(1 + ctx.mpf(n) / 2)
        assert abs(float((got - want) / want)) < 1e-70


def test_zero_problem_gives_zero():
    sol = solve(problem(heat_pde(), [PolySeries.zero(1)]))
    assert all(sol.coefficient(n).is_zero() for n in range(11))


def test_bigfloat_residual_within_precision_budget():
    backend = BigFloatBackend(256)
    m0 = GammaSequence(F(1, 2), backend)
    pde = MomentPDE(
        1, m0, [FactorialPower(1, backend)],
        [OperatorTerm(0, (1,), TimeSeries(
            [PolySeries.constant(1, backend.scalar(-1))], tail_exact=True))],
    )
    phi = geometric_series(1, 1, (60,)).map_coefficients(backend.scalar)
    prob = problem(pde, [phi], t_order=25, z_caps=(60,), backend=backend)
    sol = solve(prob)
    # first-order rounding budget: data magnitude times the operation count
    # per coefficient, at the working precision (with a wide safety margin)
    scale = max(float(sol.coefficient(n).ell1_norm(backend.scalar(1)))
                for n in range(26))
    budget = scale * prob.t_order * 2.0 ** (-backend.precision_bits + 16)
    assert 0 <= float(sol.residual_max) <= budget


def test_inhomogeneous_polynomial_rhs():
    # d_t u = f with f = 1 + t and zero data: u = t + t^2/2
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [])
    rhs = TimeSeries(
        [PolySeries.constant(1, F(1)), PolySeries.constant(1, F(1))],
        tail_exact=True,
    )
    sol = solve(problem(pde, [PolySeries.zero(1)], rhs=rhs, t_order=6))
    assert sol.coefficient(1).coefficient((0,)) == 1
    assert sol.coefficient(2).coefficient((0,)) == F(1, 2)
    assert sol.coefficient(3).is_zero()
    assert sol.residual_max == 0


def test_high_t_derivative_with_compensating_valuation():
    # P = d_t + t^2 d_t^2 (j = 2 > M = 1, ord_t = 2 so q = 1), f = t, u(0) = 0.
    # Comparing t^n coefficients by hand: u_{n+1}(n+1) + u_n n(n-1) = f_n,
    # giving u_2 = 1/2, u_3 = -1/3, u_4 = 1/2, u_5 = -6/5.
    coeff = TimeSeries([PolySeries.zero(1), PolySeries.zero(1),
                        PolySeries.constant(1, F(1))], tail_exact=True)
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)],
                    [OperatorTerm(2, (0,), coeff)])
    rhs = TimeSeries([PolySeries.zero(1), PolySeries.constant(1, F(1))],
                     tail_exact=True)
    sol = solve(problem(pde, [PolySeries.zero(1)], rhs=rhs, t_order=8))
    got = [sol.coefficient(n).coefficient((0,)) for n in range(6)]
    assert got == [0, 0, F(1, 2), F(-1, 3), F(1, 2), F(-6, 5)]
    assert sol.residual_max == 0


def test_solver_requires_validation():
    term = OperatorTerm(2, (0,), constant_coeff(1))  # violates the valuation
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [term])
    with pytest.raises(ValidationError):
        solve(problem(pde, [PolySeries.constant(1, F(1))]))


def test_corrupted_solution_has_positive_residual():
    prob = problem(heat_pde(), [PolySeries(1, {(2,): F(1)})])
    sol = solve(prob)
    values = [sol.coefficient(n) for n in range(sol.t_order + 1)]
    values[1] = values[1].add(PolySeries.constant(1, F(1, 7)))
    assert residual(prob, with_values(prob, sol, values)) > 0


def test_validity_exhaustion_is_flagged_not_fatal():
    # degree-4 truncated data burns 2 degrees per step: trusted up to n = 2
    phi = geometric_series(1, 1, (4,))
    sol = solve(problem(heat_pde(), [phi], t_order=6, z_caps=(4,)))
    assert sol.valid_t_order == 2
    assert sol.valid_t_order < sol.t_order
    entries = sol.coefficients.entries
    assert entries[2].valid == (0,) and not entries[2].is_exhausted()
    assert entries[3].valid == (-2,) and entries[3].is_exhausted()
    assert sol.coefficient(1).valid == (2,)


def test_initial_conditions_reasserted():
    # M = 2 problem: u_0 = phi_0, u_1 = phi_1 / m0(1)
    pde = MomentPDE(2, FactorialPower(1), [FactorialPower(1)],
                    [OperatorTerm(0, (1,), constant_coeff(-1))])
    phi0 = PolySeries(1, {(1,): F(3)})
    phi1 = PolySeries(1, {(0,): F(5)})
    sol = solve(problem(pde, [phi0, phi1], t_order=8))
    assert sol.coefficient(0).coeffs == phi0.coeffs
    assert sol.coefficient(1).coeffs == phi1.coeffs  # m0(1) = 1
    assert sol.residual_max == 0


def _gamma_t_document(backend: str) -> dict:
    """u_tt = u_z for the t-sequence m0(n) = (2n)!, so m0(1) = 2, with data
    over 3 and 7."""
    return {
        "variables": 1,
        "moment": {"t": {"kind": "gamma", "s": "2"},
                   "z": [{"kind": "factorial_power", "s": "1"}]},
        "M": 2,
        "terms": [{"j": 0, "alpha": [1], "coefficient": [
            {"t_power": 0, "z_powers": [0], "value": "-1"}]}],
        "initial": [[{"z_powers": [1], "value": "2/3"}],
                    [{"z_powers": [0], "value": "5/7"},
                     {"z_powers": [2], "value": "1"}]],
        "truncation": {"t_order": 8, "z_degree": [30]},
        "numerics": {"backend": backend, "precision_bits": 64},
    }


@pytest.mark.parametrize("backend", ["rational", "bigfloat"])
def test_initial_data_are_checked_on_the_values(backend, monkeypatch):
    # solve reads u_j * m0(j) back from the values of u_j: it passes on the
    # solver's own u_1 = phi_1 / 2 and raises on a u_1 off by a factor 2
    problem = problem_from_dict(_gamma_t_document(backend))
    solution = solve(problem)
    if backend == "rational":
        assert solution.denominators[:2] == (3, 14)
        assert solution.coefficient(1) == problem.initial[1].scale(F(1, 2))
    recurrence = solver._integer_recurrence

    def corrupted(problem):
        numerators, denominators = recurrence(problem)
        if problem.backend.exact:
            denominators[1] *= 2
        else:
            numerators[1] = numerators[1].scale(2)
        return numerators, denominators
    monkeypatch.setattr(solver, "_integer_recurrence", corrupted)
    with pytest.raises(SolveError, match="^initial condition 1 not reproduced"):
        solve(problem)


@pytest.mark.parametrize("name, precision", [
    ("heat2d_var", 256), ("heat_exp", 40), ("mixed2d", 256)])
def test_bigfloat_residual_sees_a_derivative_the_recurrence_does_not_share(
        name, precision, monkeypatch):
    # the recurrence differentiates in its own pass, so a moment_derive
    # that drops a key, which only pde.apply calls, lifts the residual from
    # rounding to far above 2^(-precision/2): a wrong walk on one side shows
    problem = load_problem(PROBLEMS / f"{name}.json", {
        "backend": "bigfloat", "precision_bits": precision})
    tolerance = problem.backend.residual_tolerance  # 2^(-precision/2)
    assert solve(problem).residual_max <= tolerance
    derive = PolySeries.moment_derive

    def dropping(self, axis, seq, order=1):
        out = derive(self, axis, seq, order)
        return PolySeries._trusted(out.num_vars, dict(
            list(out.coeffs.items())[1:]), out.valid)
    monkeypatch.setattr(PolySeries, "moment_derive", dropping)
    assert solve(problem).residual_max > tolerance


# Bits the big-float solve loses against the exact one, per fixture at its
# shipped size: precision + log2 of the largest relative error over every
# stored (n, gamma) of the trusted prefix, at 40, 53 and 256 bits.  Measured
# with bits_lost below and rounded up in the sixth decimal; a change to the
# big-float arithmetic must not raise any of them.  Big float running the
# exact mode's recurrence, each u_n(gamma) one rounding of its sum, lowered
# those of heat, two_segment, third_order, heat_tcoeff and heat2d_var.
BITS_LOST = {
    "heat": (3.656988, 3.554305, 3.489465),
    "two_segment": (3.614800, 3.040200, 3.058226),
    "gamma_z2": (4.059183, 3.345756, 3.330975),
    "third_order": (3.095324, 2.555935, 2.591969),
    "heat_tcoeff": (2.898454, 2.556647, 2.639918),
    "heat2d_var": (1.778097, 1.888520, 2.016680),
    "mixed2d": (2.255788, 1.453420, 1.968076),
    "transport_z2": (2.580493, 0.820444, 2.799134),
}


def bits_lost(exact: FormalSolution, rounded: FormalSolution,
              precision: int) -> float:
    """precision + log2 max |rounded - exact| / |exact| over the trusted
    prefix; every stored key must be stored on both sides."""
    assert rounded.valid_t_order == exact.valid_t_order
    worst = F(0)
    for n in range(exact.valid_t_order + 1):
        want = exact.coefficient(n).coeffs
        got = rounded.coefficient(n).coeffs
        assert got.keys() == want.keys(), n
        for gamma, value in want.items():
            error = abs(scalar_to_fraction(got[gamma]) - value) / abs(value)
            worst = max(worst, error)
    if not worst:
        return -math.inf
    return precision + math.log2(worst.numerator) - math.log2(worst.denominator)


@pytest.mark.parametrize("name", list(BITS_LOST))
def test_bigfloat_loses_no_more_bits_than_recorded(name):
    exact = solve(load_problem(PROBLEMS / f"{name}.json"))
    for precision, recorded in zip((40, 53, 256), BITS_LOST[name]):
        rounded = solve(load_problem(
            PROBLEMS / f"{name}.json",
            {"backend": "bigfloat", "precision_bits": precision}))
        assert bits_lost(exact, rounded, precision) <= recorded, precision


# -- randomized suites --------------------------------------------------------


def random_polynomial(rng, num_vars, max_degree=3, max_terms=4) -> PolySeries:
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(num_vars))
        coeffs[exps] = coeffs.get(exps, 0) + F(rng.randint(-6, 6),
                                               rng.randint(1, 3))
    return PolySeries(num_vars, coeffs)


def random_problem(rng: random.Random, t_order=8):
    num_vars = rng.randint(1, 2)
    M = rng.randint(1, 2)
    m0 = rng.choice([FactorialPower(1), FactorialPower(2),
                     QFactorial(F(1, 2)), GammaSequence(1)])
    m = [rng.choice([FactorialPower(1), FactorialPower(2)])
         for _ in range(num_vars)]
    terms = []
    for _ in range(rng.randint(0, 3)):
        j = rng.randint(0, M)
        alpha = tuple(rng.randint(0, 2) for _ in range(num_vars))
        ord_t = rng.randint(max(0, j - M + 1), 2)
        entries = [PolySeries.zero(num_vars)] * ord_t
        entries.append(random_polynomial(rng, num_vars, max_degree=1))
        if entries[-1].is_zero():
            entries[-1] = PolySeries.constant(num_vars, F(1))
        terms.append(OperatorTerm(j, alpha, TimeSeries(entries, tail_exact=True)))
    pde = MomentPDE(M, m0, m, terms)

    def data():
        rhs_entries = [random_polynomial(rng, num_vars, max_degree=2)
                       for _ in range(rng.randint(1, 3))]
        rhs = TimeSeries(rhs_entries, tail_exact=True)
        initial = [random_polynomial(rng, num_vars) for _ in range(M)]
        return rhs, initial

    rhs_a, init_a = data()
    rhs_b, init_b = data()
    prob_a = CauchyProblem(pde, rhs_a, init_a, t_order,
                           (30,) * num_vars, RationalBackend())
    prob_b = CauchyProblem(pde, rhs_b, init_b, t_order,
                           (30,) * num_vars, RationalBackend())
    return prob_a, prob_b


def test_randomized_residuals_and_linearity():
    rng = random.Random(1234)
    for _ in range(40):
        prob_a, prob_b = random_problem(rng)
        sol_a = solve(prob_a)
        sol_b = solve(prob_b)
        assert sol_a.residual_max == 0
        assert sol_b.residual_max == 0
        combined = solve(linear_combination_solution(prob_a, prob_b))
        for n in range(combined.t_order + 1):
            lhs = combined.coefficient(n)
            rhs = sol_a.coefficient(n).add(sol_b.coefficient(n))
            assert lhs.coeffs == rhs.coeffs


def q_plane(first, second) -> CauchyProblem:
    """u_t = (1 + z1/3) D_z1 D_z2 u - (z2/2) D_z1^2 D_z2 u on the
    z-sequences (first, second), data 1/((1 - z1/2)(1 - z2/2)): two moving
    axes in every derivative, alpha = (1, 1) and (2, 1), under z-dependent
    coefficients."""
    pde = MomentPDE(1, FactorialPower(1), [first, second], [
        OperatorTerm(0, (1, 1), TimeSeries([PolySeries(2, {
            (0, 0): F(-1), (1, 0): F(-1, 3)})], tail_exact=True)),
        OperatorTerm(0, (2, 1), TimeSeries([PolySeries(2, {
            (0, 1): F(1, 2)})], tail_exact=True)),
    ])
    return problem(pde, [geometric_series(2, F(1, 2), (12, 9))], t_order=5,
                   z_caps=(12, 9), num_vars=2)


def test_integer_recurrence_matches_u_basis_loop():
    # P's walk solved for u_n through pde.apply is the reference.  Beyond
    # the random problems: truncated data that runs out of validity; a
    # q-factorial z-sequence with a z-dependent coefficient, whose shift
    # ratios m(gamma)/m(gamma - beta) are not integers; q-factorials on both
    # axes of a two-variable operator, whose multipliers on each moving axis
    # are not integers; a z-sequence table shorter than the data on an
    # axis that no term differentiates; and the heat fixture on data
    # 1/(1 - 2z/3), the exact benchmark's regime, where every step from
    # u_1 on divides out a content > 1 and u_n(gamma)'s reduced denominator
    # grows with gamma.
    tilted = MomentPDE(1, FactorialPower(1), [QFactorial(F(2, 3))], [
        OperatorTerm(0, (1,), TimeSeries(
            [PolySeries(1, {(0,): F(-1), (1,): F(-1, 2)})], tail_exact=True)),
    ])
    short_table = MomentPDE(
        1, FactorialPower(1), [FactorialPower(1), TableSequence(["1", "2"], 1)],
        [OperatorTerm(0, (1, 0), constant_coeff(-1, num_vars=2))])
    doc = json.loads((PROBLEMS / "heat.json").read_text(encoding="utf-8"))
    doc["initial"] = [{"generator": "geometric", "coefficient": "2/3"}]
    geometric = problem_from_dict(doc, {"t_order": 24, "z_degree": [72]})
    problems = [
        geometric,
        problem(heat_pde(), [geometric_series(1, 1, (4,))], t_order=6,
                z_caps=(4,)),
        problem(tilted, [geometric_series(1, F(-3, 5), (9,))], t_order=9,
                z_caps=(9,)),
        problem(short_table, [geometric_series(2, F(1, 2), (6, 5))],
                t_order=5, z_caps=(6, 5), num_vars=2),
        q_plane(QFactorial(F(2, 3)), QFactorial(F(1, 2))),
    ]
    rng = random.Random(4321)
    for _ in range(30):
        problems.extend(random_problem(rng))
    empty = 0
    for prob in problems:
        reference = recurrence_reference(prob)
        numerators, denominators = _integer_recurrence(prob)
        assert len(numerators) == len(denominators) == len(reference) \
            == prob.t_order + 1
        for n, (want, got, d) in enumerate(zip(reference, numerators,
                                               denominators)):
            assert all(type(x) is int for x in got.coeffs.values()), n
            assert {g: F(x, d) for g, x in got.coeffs.items()} == want.coeffs, n
            assert got.valid == want.valid, n
            # d_n is the least denominator: the lcm of the reduced ones, and
            # 1 for an empty u_n.  So the denominators a step passes through
            # never reach the output.
            assert d == math.lcm(*(v.denominator for v in want.coeffs.values())), n
            empty += not want.coeffs
            if prob is geometric:
                values = list(want.coeffs.values())
                assert values[0].denominator < values[-1].denominator, n
    assert empty


@pytest.mark.parametrize("c, values, want", [
    # content 1: d is c's denominator, each value c.numerator * x
    (F(5, 6), [1, 7, 4], ([5, 35, 20], 6)),
    # content gcd(12, 4, 6, 12) = 2, though the top value alone gives 12
    (F(-5, 12), [4, 6, 12], ([-10, -15, -30], 6)),
    # an integral c: over 1, where no content is left to divide out
    (F(-3), [2, 5], ([-6, -15], 1)),
    # no value: an empty sum over 1
    (F(5, 12), [], ([], 1)),
], ids=["content_1", "content_2", "integral_c", "empty"])
def test_one_exact_group_is_summed_over_its_least_denominator(c, values,
                                                              want):
    # the sum c * x of one group, its content gcd(den, x...) divided out in
    # the same pass: ints in key order over the least denominator
    items = [((g,), x) for g, x in enumerate(values)]
    nums, den = _summed([(c, items)], RationalBackend())
    assert (list(nums.values()), den) == want
    assert list(nums) == [g for g, _ in items]
    assert all(type(x) is int for x in nums.values())
    assert {g: F(x, den) for g, x in nums.items()} == {g: c * x
                                                        for g, x in items}


def test_a_derivative_fills_a_table_only_for_the_keys_earlier_axes_keep():
    # u_t = D_z1 D_z2 u with data z2^6 + z1 z2 and a four-value z2-table:
    # D_z1 drops z2^6, so D_z2 reads m(1)/m(0) only, in the recurrence as
    # in pde.apply's chain of one-axis passes.  u_1 = 1 and u_n = 0 after.
    pde = MomentPDE(1, FactorialPower(1),
                    [FactorialPower(1), TableSequence(["1", "1", "2", "6"], 1)],
                    [OperatorTerm(0, (1, 1), constant_coeff(-1, num_vars=2))])
    data = PolySeries(2, {(0, 6): F(1), (1, 1): F(1)}, (None, None))
    sol = solve(problem(pde, [data], t_order=3, z_caps=(6, 6), num_vars=2))
    assert [sol.coefficient(n).coeffs for n in range(4)] == [
        data.coeffs, {(0, 0): 1}, {}, {}]


def test_every_exact_numerator_is_stored_in_ascending_key_order():
    # so every derivative the residual multiplies arrives sorted: the
    # initial numerators are sorted once, a step that merged more than one
    # group sorts its sum, and one group is a translate of sorted keys.  The
    # random problems give unsorted data and right-hand sides, some of them
    # with no term, where the forced group is the only one.
    bench = json.loads((Path(__file__).parents[1] / "bench" / "problems"
                        / "heat2d.json").read_text(encoding="utf-8"))
    bench["initial"] = [{"generator": "geometric", "coefficient": "2/3"}]
    bench["truncation"] = {"t_order": 8, "z_degree": [20, 20]}
    problems = [load_problem(path) for path in sorted(PROBLEMS.glob("*.json"))]
    problems.append(problem_from_dict(bench))
    rng = random.Random(2121)
    for _ in range(20):
        problems.extend(random_problem(rng))
    exact = [prob for prob in problems if prob.backend.exact]
    assert len(exact) > 50
    for prob in exact:
        numerators, _ = _integer_recurrence(prob)
        for n, entry in enumerate(numerators):
            assert list(entry.coeffs) == sorted(entry.coeffs), n


def test_two_variable_derive_equals_the_generic_form():
    # the unpacked two-variable keys of the exact derivative against the
    # sliced keys of the same numerators lifted to three variables, with
    # non-integral multipliers on the second axis: key for key, in order
    seqs = (FactorialPower(2), QFactorial(F(2, 3)))
    nums = {(a, b): (a - 2 * b + 7) * (1 + (a + b) % 3)
            for a in range(7) for b in range(6) if a - 2 * b + 7}
    lifted = {g + (0,): x for g, x in nums.items()}
    for alpha in ((1, 0), (3, 0), (0, 1), (0, 2), (2, 2), (3, 1), (7, 0)):
        items, den = _derive(seqs, nums, alpha)
        want = _derive(seqs + (FactorialPower(1),), lifted, alpha + (0,))
        assert ([(g + (0,), x) for g, x in items], den) == want, alpha
        assert items or alpha == (7, 0)


def test_heat2d_closed_form():
    # u_t = d_z1^2 u + d_z2^2 u with data 1/((1 - z1)(1 - z2)):
    # u_{n,gamma} = sum over a + b = n of
    #     (gamma1 + 2a)! (gamma2 + 2b)! / (gamma1! gamma2! a! b!)
    prob = load_problem(PROBLEMS / "heat2d.json")
    sol = solve(prob)
    fact = math.factorial
    assert sol.residual_max == 0
    assert sol.valid_t_order == sol.t_order
    for n in range(sol.t_order + 1):
        entry = sol.coefficient(n)
        top = prob.z_caps[0] - 2 * n
        assert entry.valid == (top, top)
        box = {(g1, g2) for g1 in range(top + 1) for g2 in range(top + 1)}
        assert set(entry.coeffs) == box
        for g1, g2 in box:
            want = sum(
                F(fact(g1 + 2 * a) * fact(g2 + 2 * (n - a)),
                  fact(g1) * fact(g2) * fact(a) * fact(n - a))
                for a in range(n + 1)
            )
            assert entry.coeffs[(g1, g2)] == want


def _closed_form_fixture(name, k1_inv, value):
    """Solve tests/problems/<name>.json and check every trusted coefficient
    against value(n, gamma) on its trusted box (keys where value is 0 are
    not stored), and the hull's and the closed form's 1/k1."""
    prob = load_problem(PROBLEMS / f"{name}.json")
    sol = solve(prob)
    assert sol.residual_max == 0
    assert sol.valid_t_order == sol.t_order
    for n in range(sol.t_order + 1):
        entry = sol.coefficient(n)
        box = [()]
        for top, cap in zip(entry.valid, prob.z_caps):  # None: exact
            box = [g + (k,) for g in box
                   for k in range(cap + 1 if top is None else top + 1)]
        want = {g: v for g in box if (v := value(n, g))}
        assert entry.coeffs == want, n
    assert build(prob.pde).k1_inverse == k1_inverse(prob.pde) == k1_inv
    return sol


def test_third_order_closed_form():
    # u_t = d_z^3 u with data 1/(1 - z): u_n(gamma) = (gamma + 3n)!/(gamma! n!),
    # trusted up to z^(80 - 3n); the derivative reads order-3 multiplier lists
    fact = math.factorial
    sol = _closed_form_fixture(
        "third_order", 2,
        lambda n, g: F(fact(g[0] + 3 * n), fact(g[0]) * fact(n)))
    assert [sol.coefficient(n).valid for n in (0, 24)] == [(80,), (8,)]


def test_gamma_z2_closed_form():
    # u_t = D_z u on the z-sequence m(n) = (2n)! (gamma, s = 2) with data
    # 1/(1 - z): u_n(gamma) = m(gamma + n)/(m(gamma) n!) = (2 gamma + 2n)!/
    # ((2 gamma)! n!), trusted up to z^(80 - n); 1/k1 = s - s0 = 1
    fact = math.factorial
    sol = _closed_form_fixture(
        "gamma_z2", 1,
        lambda n, g: F(fact(2 * g[0] + 2 * n), fact(2 * g[0]) * fact(n)))
    assert [sol.coefficient(n).valid for n in (0, 40)] == [(80,), (40,)]


def test_heat_half_closed_form():
    # u_t = u_zz / 2 with data 1/(1 - z): u_n(gamma) = (gamma + 2n)!/(gamma!
    # n! 2^n), trusted up to z^(120 - 2n); the operator's coefficient -1/2 is
    # not an integer, so pde.apply clears its denominator in the residual
    fact = math.factorial
    sol = _closed_form_fixture(
        "heat_half", 1,
        lambda n, g: F(fact(g[0] + 2 * n), fact(g[0]) * fact(n) * 2 ** n))
    assert [sol.coefficient(n).valid for n in (0, 40)] == [(120,), (40,)]


def test_transport_z2_closed_form():
    # u_t = z^2 d_z u with data 1/(1 - z): u = (1 - tz)/(1 - z - tz), so
    # u_n(gamma) = C(gamma - 1, n) for gamma >= 1, and u_n(0) = 1 only at
    # n = 0; the coefficient z^2 is a beta = (2,) shift of D_z u_{n-1}
    sol = _closed_form_fixture(
        "transport_z2", 0,
        lambda n, g: math.comb(g[0] - 1, n) if g[0] else int(n == 0))
    assert [sol.coefficient(n).valid for n in (0, 24)] == [(60,), (36,)]


def test_mixed2d_closed_form():
    # u_t = d_z1 d_z2 u with data 1/((1 - z1)(1 - z2)):
    # u_n(gamma) = (gamma1 + n)! (gamma2 + n)! / (gamma1! gamma2! n!), two
    # moving axes in every key of the derivative
    fact = math.factorial
    sol = _closed_form_fixture(
        "mixed2d", 1,
        lambda n, g: F(fact(g[0] + n) * fact(g[1] + n),
                       fact(g[0]) * fact(g[1]) * fact(n)))
    assert [sol.coefficient(n).valid for n in (0, 12)] == [(24, 24), (12, 12)]


# Closed forms of two problems of t-order M = 2, both of 1/k1 = 1
SECOND_ORDER = {
    # u_tt = d_z^4 u, u(0, z) = 1/(1 - z), u_t(0, z) = 0: u_n(gamma) =
    # (gamma + 2n)!/(gamma! n!) for even n, trusted up to z^(100 - 2n), and
    # every odd u_n is exactly 0
    "wave_z4": lambda n, g: 0 if n % 2 else F(
        math.factorial(g[0] + 2 * n), math.factorial(g[0]) * math.factorial(n)),
    # u_tt = d_t d_z^2 u, u(0, z) = 0, u_t(0, z) = 1/(1 - z): u_{n+1}(gamma) =
    # (gamma + 2n)!/(gamma! n! (n + 1)), trusted up to z^(102 - 2n); the
    # term's j = 1 weighs each part by m0(n-p)/m0(n-p-1)
    "wave_tz2": lambda n, g: n and F(
        math.factorial(g[0] + 2 * n - 2),
        math.factorial(g[0]) * math.factorial(n - 1) * n),
}


@pytest.mark.parametrize("name", sorted(SECOND_ORDER))
def test_second_order_in_t_closed_form(name):
    sol = _closed_form_fixture(name, 1, SECOND_ORDER[name])
    first = 0 if name == "wave_z4" else 1  # the entry of the data
    assert [sol.coefficient(n).valid for n in (first, 40)] == [
        (100,), (20,) if name == "wave_z4" else (22,)]
    assert sol.coefficient(1 - first).valid == (None,)


@pytest.mark.parametrize("precision", (24, 53, 256))
@pytest.mark.parametrize("name", sorted(SECOND_ORDER))
def test_second_order_in_t_in_big_float(name, precision):
    # the big-float recurrence of M = 2, with its m0(n-p)/m0(n-p-j) step on
    # wave_tz2: every trusted coefficient, stored where the exact one is,
    # lies within a relative 2^(16 - precision) of it
    exact = solve(load_problem(PROBLEMS / f"{name}.json"))
    rounded = solve(load_problem(PROBLEMS / f"{name}.json", {
        "backend": "bigfloat", "precision_bits": precision}))
    assert bits_lost(exact, rounded, precision) <= 16


def perturbed(problem: CauchyProblem, solution: FormalSolution, n: int,
              value) -> FormalSolution:
    """The solution with value added at the lowest stored key of u_n."""
    values = [solution.coefficient(k) for k in range(solution.t_order + 1)]
    entry = values[n]
    key = min(entry.coeffs, default=(0,) * entry.num_vars)
    values[n] = entry.add(PolySeries(entry.num_vars, {
        key: problem.backend.scalar(value)}))
    return with_values(problem, solution, values)


def test_residual_on_one_integer_scale_matches_the_fraction_route():
    # solver.residual applies P to the stack scaled by one integer D and
    # divides by D; the reference applies P to the solution's own values.
    # Same value and type on the solutions and on perturbed ones.
    # Beyond the fixtures and the random problems: a z-sequence n!·[n]_q!
    # (order 1, so the problem validates and solve's gate runs) under a
    # z-dependent coefficient, whose weight and derivative ratios are not
    # integers, and such sequences on both moving axes of q_plane.
    tilted = MomentPDE(
        1, FactorialPower(1), [ProductSequence(FactorialPower(1),
                                               QFactorial(F(2, 3)))],
        [OperatorTerm(0, (1,), TimeSeries(
            [PolySeries(1, {(0,): F(-1), (1,): F(-1, 2)})], tail_exact=True))])
    plane = q_plane(ProductSequence(FactorialPower(1), QFactorial(F(2, 3))),
                    ProductSequence(FactorialPower(1), QFactorial(F(1, 2))))
    fixtures = [load_problem(PROBLEMS / f"{name}.json") for name in FIXTURES]
    problems = fixtures + [problem(tilted, [geometric_series(1, F(-3, 5), (9,))],
                                   t_order=9, z_caps=(9,)), plane]
    rng = random.Random(2468)
    for _ in range(15):
        problems.extend(random_problem(rng))
    for prob in problems:
        sol = solve(prob)  # in exact mode a non-zero residual raises
        variants = [sol] + [
            perturbed(prob, sol, n, value)
            for n, value in ((prob.pde.M, F(1, 7)), (0, F(-2)),
                             (sol.t_order, F(5, 3)))]
        for candidate in variants:
            want = fraction_residual(prob, candidate)
            got = residual(prob, candidate)
            assert got == want
            assert type(got) is type(want)
        if prob in fixtures or prob.pde is tilted or prob is plane:
            assert residual(prob, variants[1]) > 0


def _sequence_parts(seq):
    """seq and every sequence it is built from."""
    yield seq
    for name in ("lhs", "rhs", "num", "den"):
        part = getattr(seq, name, None)
        if part is not None:
            yield from _sequence_parts(part)


@pytest.mark.parametrize("backend", ["rational", "bigfloat"])
@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_every_scalar_is_in_the_backend_domain(path, backend):
    # the kernels read their arithmetic off one value (backends module
    # docstring), which holds because every scalar a problem and its
    # solution hold is in the backend's domain: an mpf of the backend's
    # shared context in big float, an int or a Fraction in exact mode
    problem = load_problem(path, {"backend": backend})
    pde = problem.pde
    series = [entry for term in pde.terms for entry in term.coeff.entries]
    series += [a for _, row in pde._parts for a, _ in row]
    series += [*problem.rhs.entries, *problem.initial]
    values = []
    if validate(problem).passed:
        solution = solve(problem)
        series += solution.coefficients.entries
        values.append(solution.residual_max)
    else:  # a sequence with no rational values, such as Gamma(1 + n/2)
        assert backend == "rational"
    values += [v for entry in series for v in entry.coeffs.values()]
    sequences = {id(part): part for seq in (pde.m0, *pde.m)
                 for part in _sequence_parts(seq)}
    for seq in sequences.values():
        # the ratios too, which a solve need not have read
        values += [*seq._values, *map(seq.ratio, range(len(seq._values) - 1))]
        for table in seq._multipliers.values():
            values += table
    if backend == "bigfloat":
        mpf = problem.backend.ctx.mpf
        outside = [v for v in values if type(v) is not mpf]
    else:
        outside = [v for v in values if type(v) is not int
                   and type(v) is not Fraction]
    assert values and not outside
