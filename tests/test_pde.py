"""Operator terms, validation, and operator application."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from momentpde import (
    BigFloatBackend,
    CauchyProblem,
    FactorialPower,
    GammaSequence,
    MomentPDE,
    OperatorTerm,
    PolySeries,
    RationalBackend,
    TableSequence,
    TimeSeries,
    validate,
)
from momentpde.problem_io import load_problem

from helpers import add_time_series

F = Fraction
PROBLEMS = Path(__file__).parent / "problems"
BENCH_PROBLEMS = Path(__file__).parent.parent / "bench" / "problems"


def constant_coeff(value, num_vars=1) -> TimeSeries:
    return TimeSeries(
        [PolySeries.constant(num_vars, F(value))], tail_exact=True
    )


def heat_pde(coefficient=-1) -> MomentPDE:
    term = OperatorTerm(0, (2,), constant_coeff(coefficient))
    return MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [term])


def make_problem(pde, initial, t_order=8, z_caps=(20,),
                 backend=None) -> CauchyProblem:
    return CauchyProblem(
        pde=pde,
        rhs=TimeSeries.zero(pde.num_vars),
        initial=initial,
        t_order=t_order,
        z_caps=z_caps,
        backend=backend or RationalBackend(),
    )


def test_ord_t_from_data():
    # coefficient t*(1+z): vanishes to first order at t=0
    t_times = TimeSeries(
        [PolySeries.zero(1), PolySeries(1, {(0,): F(1), (1,): F(1)})],
        tail_exact=True,
    )
    assert OperatorTerm(0, (1,), t_times).ord_t == 1
    assert OperatorTerm(0, (0,), constant_coeff(-1)).ord_t == 0


def test_zero_coefficient_rejected():
    zero = TimeSeries([PolySeries.zero(1)], tail_exact=True)
    with pytest.raises(ValueError, match="dropped"):
        OperatorTerm(0, (1,), zero)


def test_validate_heat_passes():
    pde = heat_pde()
    problem = make_problem(pde, [PolySeries(1, {(2,): F(1)})])
    report = validate(problem)
    assert report.passed
    assert pde.q_table() == {(0, (2,)): 1}


def test_validate_valuation_failure():
    # j=2 with M=1 and a constant coefficient: ord 0 < j - M + 1 = 2
    term = OperatorTerm(2, (0,), constant_coeff(1))
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [term])
    problem = make_problem(pde, [PolySeries.constant(1, F(1))])
    report = validate(problem)
    assert not report.passed
    names = {c.name for c in report.checks if not c.passed}
    assert "assumption.valuations" in names
    assert "assumption.q_positive" in names
    assert report.analysis_ok  # polygon still meaningful


def test_validate_low_z_order_failure():
    backend = BigFloatBackend(64)
    m1 = GammaSequence(F(1, 2), backend)  # order 1/2 < 1
    term = OperatorTerm(0, (1,), TimeSeries(
        [PolySeries.constant(1, backend.scalar(-1))], tail_exact=True))
    pde = MomentPDE(1, FactorialPower(1, backend), [m1], [term])
    problem = make_problem(pde, [PolySeries.constant(1, backend.scalar(1))],
                           backend=backend)
    report = validate(problem)
    assert not report.passed
    assert {c.name for c in report.checks if not c.passed} == {"assumption.z_orders"}


def test_validate_backend_feasibility():
    # gamma(1/2) values are irrational: the rational backend must refuse
    seq = GammaSequence(F(1, 2), BigFloatBackend(64))
    seq.backend = RationalBackend()
    pde = MomentPDE(1, seq, [FactorialPower(1)],
                    [OperatorTerm(0, (1,), constant_coeff(-1))])
    problem = make_problem(pde, [PolySeries.constant(1, F(1))])
    report = validate(problem)
    assert any(c.name == "backend.feasible" and not c.passed
               for c in report.checks)


def test_validate_warns_on_order_zero_time_sequence():
    from momentpde import QFactorial

    pde = MomentPDE(1, QFactorial(F(1, 2)), [FactorialPower(1)],
                    [OperatorTerm(0, (0,), constant_coeff(-1))])
    problem = make_problem(pde, [PolySeries.constant(1, F(1))])
    report = validate(problem)
    assert report.passed
    assert any("s0 = 0" in w for w in report.warnings)


def test_validate_warns_when_a_table_fits_another_order():
    # heat_table declares order 3/2 for m(n) = (n+1)!, whose ratios fit
    # order 0.97 over the upper half of its 49 values
    report = validate(load_problem(PROBLEMS / "heat_table.json"))
    assert report.passed
    assert [w for w in report.warnings if "table" in w] == [
        "moment.z[0]: the table's values fit order 0.97 over their upper "
        "half, not the declared 3/2 (tolerance 1/4); the Newton polygon and "
        "1/k1 use the declared order"]
    # n! declared 1 fits 1 exactly; two values leave no ratio to fit
    fact = [str(math.factorial(n)) for n in range(8)]
    assert TableSequence(fact, 1).fitted_order() == 1
    assert TableSequence(["1", "2"], 1).fitted_order() is None
    for table in (TableSequence(fact, 1), TableSequence(["1", "2"], 5)):
        pde = MomentPDE(1, FactorialPower(1), [table],
                        [OperatorTerm(0, (1,), constant_coeff(-1))])
        assert validate(make_problem(
            pde, [PolySeries.constant(1, F(1))])).warnings == []
    # no other fixture and no benchmark input carries the warning
    bench = sorted(BENCH_PROBLEMS.glob("*.json"))
    assert bench
    for path in sorted(PROBLEMS.glob("*.json")) + bench:
        if path.name != "heat_table.json":
            warnings = validate(load_problem(path)).warnings
            assert not [w for w in warnings if "table" in w], path


def test_validate_initial_count():
    pde = heat_pde()
    problem = make_problem(pde, [])
    report = validate(problem)
    assert any(c.name == "structure.initial_count" and not c.passed
               for c in report.checks)


def test_validate_coefficient_truncation_depth():
    # a truncated (non-polynomial) coefficient must reach the working t-order
    coeff = TimeSeries([PolySeries.constant(1, F(1))] * 3, tail_exact=False)
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)],
                    [OperatorTerm(0, (1,), coeff)])
    problem = make_problem(pde, [PolySeries.constant(1, F(1))], t_order=8)
    report = validate(problem)
    assert any(c.name == "structure.coefficient_truncation" and not c.passed
               for c in report.checks)
    deep = make_problem(pde, [PolySeries.constant(1, F(1))], t_order=3)
    assert validate(deep).passed


def test_apply_heat_solution_is_zero():
    # u = z^2 + 2t solves u_t = u_zz; found by the hand recurrence u1 = d^2 u0
    pde = heat_pde()
    u = TimeSeries([
        PolySeries(1, {(2,): F(1)}),
        PolySeries(1, {(0,): F(2)}),
        PolySeries.zero(1),
        PolySeries.zero(1),
    ])
    out = pde.apply(u)
    assert all(out.coefficient(n).is_zero() for n in range(out.t_order + 1))


def test_apply_exponential_fixed_point():
    # d_t applied to sum t^n/n! returns the same series, truncated
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [])
    u = TimeSeries([
        PolySeries.constant(1, F(1, math.factorial(n))) for n in range(8)
    ])
    out = pde.apply(u)
    for n in range(out.t_order + 1):
        assert out.coefficient(n).coefficient((0,)) == F(1, math.factorial(n))


def test_apply_identity_term():
    # P = d_t^1 ... plus the term a=1, j=0, alpha=0 adds u itself
    term = OperatorTerm(0, (0,), constant_coeff(1))
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [term])
    bare = MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [])
    u = TimeSeries([PolySeries(1, {(k,): F(k + 1)}) for k in range(5)])
    with_term = pde.apply(u)
    without = bare.apply(u)
    for n in range(with_term.t_order + 1):
        expected = without.coefficient(n).add(u.coefficient(n))
        assert with_term.coefficient(n).coeffs == expected.coeffs


@pytest.mark.parametrize("coefficient", [
    pytest.param(-1, id="heat"), pytest.param(F(-1, 2), id="heat_half")])
def test_apply_is_linear(coefficient):
    # with -1/2 (heat_half), pde.apply clears the denominator 2 and divides
    # the surviving keys by it
    pde = heat_pde(coefficient)
    u = TimeSeries([PolySeries(1, {(k,): F(1, k + 1)}) for k in range(5)])
    v = TimeSeries([PolySeries(1, {(k + 1,): F(2)}) for k in range(5)])
    lhs = pde.apply(add_time_series(u, v))
    rhs = add_time_series(pde.apply(u), pde.apply(v))
    for n in range(lhs.t_order + 1):
        assert lhs.coefficient(n).coeffs == rhs.coefficient(n).coeffs


def test_apply_requires_enough_t_order():
    pde = heat_pde()
    with pytest.raises(ValueError):
        pde.apply(TimeSeries([PolySeries.constant(1, F(1))]))


def test_apply_rejects_a_term_reaching_past_the_stack():
    # An unvalidated operator: j = 2 > M = 1 on a constant coefficient, so
    # q = -1 and (P u)_2 reads u_4 from a stack that stops at t-order 3.
    term = OperatorTerm(2, (0,), constant_coeff(1))
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [term])
    assert term.q(pde.M) == -1
    u = TimeSeries([PolySeries.constant(1, F(1)) for _ in range(4)])
    with pytest.raises(ValueError, match="needed t-coefficient 4"):
        pde.apply(u)


def test_apply_reads_a_truncated_coefficient_no_further_than_its_order():
    # An unvalidated operator whose coefficient stops at t^1 with unknown
    # higher terms: (P u)_2 needs its t^2 coefficient, which TimeSeries
    # refuses as it refuses any read past a truncation.
    coeff = TimeSeries([PolySeries.constant(1, F(-1))] * 2, tail_exact=False)
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)],
                    [OperatorTerm(0, (2,), coeff)])
    u = TimeSeries([PolySeries(1, {(k,): F(1) for k in range(6)})
                    for _ in range(4)])
    with pytest.raises(IndexError, match="beyond truncation order 1"):
        pde.apply(u)


def _recording(monkeypatch, name: str) -> list:
    """Record the receiver of every PolySeries.<name> call."""
    calls = []
    method = getattr(PolySeries, name)

    def recorded(self, *args):
        calls.append(self)
        return method(self, *args)

    monkeypatch.setattr(PolySeries, name, recorded)
    return calls


@pytest.mark.parametrize("name, backend, lcm", [
    ("heat", "rational", 1),
    ("heat_half", "rational", 2),
    ("heat2d_var", "rational", 6),     # -1/2 z1 and -1/3 z2
    ("heat2d_var", "bigfloat", 1),     # mpf values are not cleared
])
def test_coefficient_denominator_is_cleared_once(name, backend, lcm,
                                                  monkeypatch):
    problem = load_problem(PROBLEMS / f"{name}.json", {"backend": backend})
    pde = problem.pde
    assert pde.coefficient_denominator == lcm
    # the walk multiplies by L * a_k (or its negative, where the sign of a
    # negative constant is folded), as ints where L is not 1, and by the
    # same series on every call: the operator clears each entry once
    entries = [entry for term in pde.terms for entry in term.coeff.entries
               if not entry.is_zero()]
    multipliers = [({g: sign * lcm * v for g, v in entry.coeffs.items()},
                    entry.valid) for entry in entries for sign in (1, -1)]
    nv = pde.num_vars
    u = TimeSeries([PolySeries(nv, {(k,) * nv: problem.backend.scalar(k + 1)
                                    for k in range(6)}) for _ in range(4)])
    lefts = _recording(monkeypatch, "multiply")
    first = pde.apply(u)
    calls = len(lefts)
    assert calls and all((a.coeffs, a.valid) in multipliers for a in lefts)
    if lcm != 1:
        assert all(type(v) is int for a in lefts for v in a.coeffs.values())
    second = pde.apply(u)
    assert all(a is b for a, b in zip(lefts[:calls], lefts[calls:], strict=True))
    assert [e.coeffs for e in first.entries] == [e.coeffs for e in second.entries]


@pytest.mark.parametrize("backend", ["rational", "bigfloat"])
def test_t_shift_factor_is_memoised(backend):
    pde = load_problem(PROBLEMS / "heat2d_var.json", {"backend": backend}).pde
    m0 = pde.m0
    for n, j in ((0, 1), (3, 0), (5, 2)):
        factor = pde.t_shift_factor(n, j)
        assert factor == m0.value(n + j) / m0.value(n)
        assert pde.t_shift_factor(n, j) is factor


def _same_items(a: PolySeries, b: PolySeries) -> bool:
    """Same keys in the same order, same types, and the same _mpf_ tuple
    for an mpf or else the same value."""
    return a.valid == b.valid and [
        (g, type(v), getattr(v, "_mpf_", v)) for g, v in a.coeffs.items()
    ] == [(g, type(v), getattr(v, "_mpf_", v)) for g, v in b.coeffs.items()]


@pytest.mark.parametrize("precision", [None, 24, 53, 256],
                         ids=["fraction", "p24", "p53", "p256"])
@pytest.mark.parametrize("c", [F(-1), F(-1, 2), F(-3), F(2, 3)], ids=str)
@pytest.mark.parametrize("j", [0, 1])
def test_folded_sign_gives_the_bits_of_the_plain_add_and_sub(c, precision, j,
                                                             monkeypatch):
    # apply multiplies by |c| (times L) and subtracts a negative constant's
    # part where it adds the others: each (P u)_n must be what adding the
    # plain part a * D^2 u_{n+j} * w to the principal part gives, bit for
    # bit and key for key, also where L = 2 or 3 scales the sum.  For j = 1
    # the part reads u_{n+1} at the principal part's weight, so u_{n+1} is
    # set to cancel the plain part at keys 0, 4 and 8.
    rng = random.Random(f"{c}-{precision}-{j}")
    if precision is None:
        backend = RationalBackend()
        m0 = FactorialPower(1)

        def value():
            return F(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 6))
    else:
        backend = BigFloatBackend(precision)
        m0 = GammaSequence(F(1, 2), backend)

        def value():
            man = rng.getrandbits(precision) | 1
            return backend.ctx.ldexp(backend.ctx.mpf(rng.choice((1, -1)) * man),
                                     rng.randint(-2 * precision, 20))
    mz = FactorialPower(1, backend)
    a = PolySeries.constant(1, backend.scalar(c))
    term = OperatorTerm(j, (2,), TimeSeries([a], tail_exact=True))
    pde = MomentPDE(1, m0, [mz], [term])
    # the supports differ from entry to entry, so keys of one side are
    # missing from the other
    stack = [PolySeries(1, {(k,): value() for k in range(14) if (k + i) % 3},
                        (13,)) for i in range(5)]
    cancelled = {}
    if j:
        for n in range(4):
            u = stack[n + 1]
            d = u.moment_derive(0, mz, 2).coeffs
            keys = [(g,) for g in (0, 4, 8) if (g,) in u.coeffs and (g,) in d]
            cancelled[n] = keys
            stack[n + 1] = PolySeries(1, {**u.coeffs, **{
                g: -(a.coeffs[(0,)] * d[g]) for g in keys}}, u.valid)
        assert all(cancelled.values())
    wants = [stack[n + 1].scale(m0.value(n + 1) / m0.value(n)).add(
        a.multiply(stack[n + j].moment_derive(0, mz, 2)).scale(
            m0.value(n + j) / m0.value(n))) for n in range(4)]
    lefts = _recording(monkeypatch, "multiply")
    applied = pde.apply(TimeSeries(stack))
    for n, want in enumerate(wants):
        assert _same_items(applied.coefficient(n), want), n
        assert not set(cancelled.get(n, ())) & set(want.coeffs), n
    folded = {(0,): abs(a.coeffs[(0,)]) * pde.coefficient_denominator}
    assert len(lefts) == 4 and all(left.coeffs == folded for left in lefts)


def test_the_fold_is_computed_once_per_coefficient_entry(monkeypatch):
    negations = _recording(monkeypatch, "neg")
    a = PolySeries.constant(1, F(-1, 2))
    b = PolySeries(1, {(1,): F(-1)})  # not constant: multiplied as it is
    term = OperatorTerm(0, (2,), TimeSeries([a, b], tail_exact=True))
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [term])
    # L = 2: the ints of 2a, negated once, as the operator is built
    assert [x.coeffs for x in negations] == [{(0,): -1}]
    u = TimeSeries([PolySeries(1, {(k,): F(k + 1, 3) for k in range(8)})
                    for _ in range(4)])
    lefts = _recording(monkeypatch, "multiply")
    for _ in range(2):
        applied = pde.apply(u)
        for n in range(applied.t_order + 1):
            want = u.coefficient(n + 1).scale(n + 1).add(
                a.multiply(u.coefficient(n).moment_derive(0, FactorialPower(1), 2)))
            if n:
                want = want.add(b.multiply(
                    u.coefficient(n - 1).moment_derive(0, FactorialPower(1), 2)))
            assert applied.coefficient(n).coeffs == want.coeffs
    assert len(negations) == 1
    walked = [left.coeffs for left in lefts if left is not a and left is not b]
    assert walked == [{(0,): 1}] + [{(0,): 1}, {(1,): -2}] * 2 \
        + [{(0,): 1}] + [{(0,): 1}, {(1,): -2}] * 2
