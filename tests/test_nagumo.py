"""Norm evaluation and the executable inequality battery."""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpde import (
    BigFloatBackend,
    FactorialPower,
    NagumoParams,
    ParameterError,
    PolySeries,
    check_derivative_bound,
    check_shift_bound,
    check_submultiplicative,
    check_sup_bound,
    check_vandermonde,
    geometric_series,
    lemma_battery,
    load_problem,
    nagumo,
    nagumo_norm,
    nagumo_profile,
    solve,
)
from momentpde.backends import log_scalar
from momentpde.estimator import alpha0
from momentpde.nagumo import _leq, random_polynomial
from momentpde.problem_io import problem_from_dict

from helpers import evaluate, zero_rhs

F = Fraction
PROBLEMS = Path(__file__).parent / "problems"


def params(alpha, r, s):
    return NagumoParams(tuple(alpha), r, tuple(s))


def norm(f, alpha, r, s):
    return nagumo_norm(f, params(alpha, r, s))


# -- norm values --------------------------------------------------------------


def test_exact_norm_equals_full_scan():
    # The exact path screens candidates by their log; its value must be the
    # exact maximum of the docstring formula over the whole support.
    def full_scan(f, alpha, r, s):
        best = F(0)
        for gamma, value in f.coeffs.items():
            cand = abs(value) * r ** (sum(gamma) + sum(alpha))
            for g, a, si in zip(gamma, alpha, s):
                cand *= F(math.factorial(g) * math.factorial(a - 1),
                          math.factorial(g + a - 1)) ** int(si)
            best = max(best, cand)
        return best

    rng = random.Random(11)
    cases = []
    for _ in range(300):
        nv = rng.randint(1, 3)
        f = random_polynomial(rng, nv, max_total_degree=rng.choice([3, 12]))
        alpha = tuple(rng.randint(1, 6) for _ in range(nv))
        r = rng.choice([F(1, 4), F(1, 2), F(1), F(3)])
        s = tuple(F(rng.randint(1, 3)) for _ in range(nv))
        cases.append((f, alpha, r, s))
    # exact ties: with alpha = 1 every weight is 1, and 2^k (1/2)^(k+1) is
    # the same for every k
    cases.append((PolySeries(1, {(k,): F(2) ** k for k in range(8)}),
                  (1,), F(1, 2), (F(1),)))
    # large, closely spaced candidates of a heat-equation coefficient
    heat = PolySeries(1, {(g,): F(math.factorial(g + 40), math.factorial(g))
                          for g in range(60)}, (59,))
    cases.append((heat, (20,), F(1, 2), (F(1),)))
    # numerators past 2^800 in the coefficients and the radius, two axes
    big = PolySeries(2, {(g, h): F((-1) ** g * math.factorial(g + h + 200),
                                   math.factorial(g) * 7 ** h)
                         for g in range(12) for h in range(5)})
    assert min(v.numerator.bit_length() for v in big.coeffs.values()) > 800
    cases.append((big, (5, 2), F(2 ** 810 + 1, 3 ** 520), (F(2), F(3))))
    for f, alpha, r, s in cases:
        result = nagumo_norm(f, params(alpha, r, s))
        assert isinstance(result, Fraction)
        assert result == full_scan(f, alpha, r, s)


def test_norm_of_one_is_r_to_alpha():
    one = PolySeries.constant(2, F(1))
    for r in (F(1, 4), F(1, 2), F(2)):
        for alpha in ((1, 1), (2, 3)):
            assert norm(one, alpha, r, (1, 1)) == r ** sum(alpha)


def test_norm_single_monomial():
    # f = z with alpha = (1): weight r^2 * (1! 0!/1!)^1 = r^2
    f = PolySeries(1, {(1,): F(1)})
    assert norm(f, (1,), F(1, 3), (1,)) == F(1, 9)


def test_norm_z_squared_alpha_two():
    # f = z^2, alpha = (2): r^4 * (2! 1!/3!) = r^4/3
    f = PolySeries(1, {(2,): F(1)})
    r = F(1, 2)
    assert norm(f, (2,), r, (1,)) == r ** 4 / 3


def test_norm_zero_index_is_ell1():
    f = PolySeries(1, {(0,): F(2), (1,): F(3)})
    assert norm(f, (0,), F(1, 2), (1,)) == F(7, 2)


def test_norm_fractional_s_close_to_exact():
    # s = 3/2 with alpha > 1 goes through the log path; cross-check against
    # direct per-coefficient evaluation in floats
    f = PolySeries(1, {(2,): F(3), (4,): F(-5)})
    r = F(1, 2)
    got = norm(f, (2,), r, (F(3, 2),))
    expect = max(
        abs(c) * float(r) ** (g + 2)
        * (math.factorial(g) * 1 / math.factorial(g + 1)) ** 1.5
        for (g,), c in f.coeffs.items()
    )
    assert abs(got - expect) < 1e-12 * expect


def test_norm_float_path_stays_finite_past_double_range():
    # the mpf coefficient goes through the log path; its norm is ~1e400/4,
    # far above the largest double
    ctx = BigFloatBackend(128).ctx
    f = PolySeries(1, {(1,): ctx.mpf("1e400")})
    res = nagumo_norm(f, params((1,), F(1, 2), (1,)))
    assert isinstance(res, mpmath.mpf)
    assert mpmath.isfinite(res)
    assert abs(log_scalar(res) - (400 * math.log(10) - 2 * math.log(2))) < 1e-9


def test_norm_past_double_range_does_not_read_the_global_precision():
    # the mpf past e^700 is exp of a double's log at 53 bits, and the log
    # of an mpf is 53 bits too, in every state of mpmath's global context
    ctx = BigFloatBackend(128).ctx
    f = PolySeries(1, {(1,): ctx.mpf("1e400"), (3,): ctx.mpf("-3e390")})
    p = params((1,), F(1, 2), (1,))
    expected = nagumo_norm(f, p)
    prec = mpmath.mp.prec
    for low in (12, 30, 200):
        with mpmath.workprec(low):
            got = nagumo_norm(f, p)
            assert log_scalar(got) == log_scalar(expected)
        assert got._mpf_ == expected._mpf_
        assert mpmath.mp.prec == prec


def test_mixed_multi_index_rejected():
    with pytest.raises(ParameterError):
        params((1, 0), F(1, 2), (1, 1))


def test_low_order_rejected():
    with pytest.raises(ParameterError):
        params((1,), F(1, 2), (F(1, 2),))


@pytest.mark.parametrize("alpha, r, s, message", [
    ((1, 2), F(1, 2), (1,), "alpha and s must have equal length"),
    ((-1,), F(1, 2), (1,), "alpha components must be >= 0"),
    ((1, 0), F(1, 2), (1, 1), "mixed multi-index (1, 0): components must "
                               "be all >= 1 or all zero"),
    ((1,), F(0), (1,), "radius r must be positive"),
    ((1, 1), F(1, 2), (F(1), F(1, 2)),
     "order vector (Fraction(1, 1), Fraction(1, 2)) must have entries >= 1"),
])
def test_params_errors_keep_their_messages(alpha, r, s, message):
    with pytest.raises(ParameterError) as info:
        NagumoParams(alpha, r, s)
    assert str(info.value) == message


def test_params_take_s_as_fractions_once():
    exact = (F(1), F(3, 2))
    assert NagumoParams((1, 1), F(1, 2), exact).s is exact
    parsed = NagumoParams([2, 1], F(1, 2), [1, "3/2"])
    assert parsed.alpha == (2, 1) and parsed.s == exact
    assert all(type(v) is F for v in parsed.s)
    # no variables at all is still a (zero-index) parameter set
    assert NagumoParams((), F(1, 2), ()).is_zero_index
    assert NagumoParams((0, 0), F(1, 2), (1, 2)).is_zero_index
    assert not NagumoParams((1, 3), F(1, 2), (1, 2)).is_zero_index


def test_checks_refuse_truncated_input():
    truncated = geometric_series(1, 1, (5,))
    with pytest.raises(ParameterError):
        check_shift_bound(truncated, (1,), (1,), F(1, 2), (1,))


# -- norm axioms --------------------------------------------------------------


@st.composite
def polys(draw, num_vars=2):
    n_terms = draw(st.integers(1, 5))
    coeffs = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(num_vars))
        coeffs[exps] = F(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    return PolySeries(num_vars, coeffs)


@given(f=polys(), g=polys(), c=st.integers(-7, 7))
@settings(max_examples=50, deadline=None)
def test_norm_axioms(f, g, c):
    p = params((2, 1), F(1, 2), (1, 1))
    nf = nagumo_norm(f, p)
    ng = nagumo_norm(g, p)
    assert nagumo_norm(f.scale(c), p) == abs(c) * nf
    assert nagumo_norm(f.add(g), p) <= nf + ng
    if not f.is_zero():
        assert nf > 0


# -- the inequality checks ----------------------------------------------------


def test_vandermonde_examples():
    # p = q = 1, n = 3: every summand is 1, so the sum is 4 = C(4,3)
    assert sum(math.comb(k, k) * math.comb(3 - k, 3 - k) for k in range(4)) == 4
    assert check_vandermonde(1, 1, 3).all_equal
    # direct both-sides summation: p=2, q=3, n=2 gives 15 = C(6,2)
    lhs = sum(math.comb(k + 1, k) * math.comb(2 - k + 2, 2 - k) for k in range(3))
    assert lhs == 15 == math.comb(6, 2)
    assert check_vandermonde(2, 3, 2).all_equal
    assert check_vandermonde(4, 5, 10).all_equal


def test_submultiplicative_equality_for_ones():
    one = PolySeries.constant(1, F(1))
    assert check_submultiplicative(one, one, (2,), (3,), F(1, 2), (1,))


def test_submultiplicative_scalar_variant_is_exact_homogeneity():
    f = PolySeries(1, {(1,): F(2), (3,): F(-1)})
    c = F(-5, 3)
    g = PolySeries.constant(1, c)
    p = params((2,), F(1, 2), (1,))
    lhs = nagumo_norm(f.multiply(g), p)
    assert lhs == abs(c) * nagumo_norm(f, p)
    assert check_submultiplicative(f, g, (2,), (0,), F(1, 2), (1,))


def test_derivative_bound_equality_case():
    # m = n!, C = 1, f = z, alpha = (1), s = (1): both sides are r^2
    f = PolySeries(1, {(1,): F(1)})
    seq = FactorialPower(1)
    r = F(1, 2)
    lhs = norm(f.moment_derive(0, seq), (2,), r, (1,))
    rhs = norm(f, (1,), r, (1,))
    assert lhs == rhs == r ** 2
    assert check_derivative_bound(f, 0, (1,), r, (1,), seq)


def test_derivative_bound_constant_input():
    f = PolySeries.constant(1, F(4))
    assert check_derivative_bound(f, 0, (2,), F(1, 2), (1,), FactorialPower(1))


def test_shift_bound_examples():
    one = PolySeries.constant(1, F(1))
    assert check_shift_bound(one, (1,), (2,), F(1, 2), (1,))
    f = PolySeries(1, {(2,): F(1)})
    r = F(1, 2)
    # direct evaluation of both sides
    assert norm(f, (2,), r, (1,)) == r ** 4 / 3
    assert norm(f, (1,), r, (1,)) == r ** 3
    assert check_shift_bound(f, (1,), (1,), r, (1,))


def test_sup_bound_zero_index_branch():
    f = PolySeries(1, {(0,): F(1), (3,): F(-2)})
    assert check_sup_bound(f, (0,), F(1, 4), F(1, 2), (1,))


def test_sup_bound_constant_and_random():
    one = PolySeries.constant(2, F(1))
    assert check_sup_bound(one, (2, 1), F(1, 4), F(1, 2), (1, 1))
    rng = random.Random(5)
    for _ in range(25):
        f = random_polynomial(rng, 2, max_total_degree=5, max_terms=8)
        assert check_sup_bound(f, (1, 2), F(1, 4), F(1, 2), (1, F(3, 2)),
                               sample_count=64, seed=11)


def test_sup_bound_rejects_rho_not_below_r():
    f = PolySeries.constant(1, F(1))
    with pytest.raises(ParameterError):
        check_sup_bound(f, (1,), F(1, 2), F(1, 4), (1,))  # rho >= r


def test_classical_nagumo_scale_comparison():
    # one variable, s = 1, integer weight: sampled sup on |z| = rho times
    # (r - rho)^q stays below the norm (the classical normalization)
    rng = random.Random(3)
    r = F(1, 2)
    for _ in range(20):
        f = random_polynomial(rng, 1, max_total_degree=6, max_terms=6)
        for q in (1, 2, 3):
            value = float(nagumo_norm(f, params((q,), r, (1,))))
            for _ in range(16):
                rho = rng.uniform(0.05, 0.45)
                z = rho * complex(math.cos(rng.uniform(0, 6.28)),
                                  math.sin(rng.uniform(0, 6.28)))
                lhs = abs(evaluate(f, (z,))) * (float(r) - rho) ** q
                assert lhs <= value * (1 + 1e-9)


def test_profile_of_zero_and_polynomial_solutions():
    from momentpde import (
        CauchyProblem,
        MomentPDE,
        OperatorTerm,
        RationalBackend,
        TimeSeries,
        nagumo_profile,
        solve,
    )

    coeff = TimeSeries([PolySeries.constant(1, F(-1))], tail_exact=True)
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)],
                    [OperatorTerm(0, (2,), coeff)])

    def run(phi):
        prob = CauchyProblem(pde, zero_rhs(1), [phi], 8, (20,),
                             RationalBackend())
        return solve(prob)

    zeros = nagumo_profile(run(PolySeries.zero(1)), (3,), F(1, 2), (1,))
    assert all(v == 0 for v in zeros)

    square = nagumo_profile(run(PolySeries(1, {(2,): F(1)})), (3,),
                            F(1, 2), (1,))
    assert square[0] > 0 and square[1] > 0
    assert all(v == 0 for v in square[2:])


def test_randomized_sweeps_all_pass():
    report = lemma_battery(seed=123, instances=150)
    assert report["all_pass"], report


def test_battery_is_deterministic():
    a = lemma_battery(seed=9, instances=25)
    b = lemma_battery(seed=9, instances=25)
    assert a == b


# SHA-256 of repr(value) of every nagumo_norm result, one per line, during
# lemma_battery(23, 300) and then lemma_battery(26, 300), recorded before the
# norm went to a single pass: the check digests only see pass/fail flags.
NORM_VALUES_COUNT = 4718
NORM_VALUES_DIGEST = (
    "989fd974d5ae67a78c7f2ff60f85e2311dd130354a3fae14da82392d7f2daded")


def test_battery_norm_values_match_recorded_digest(monkeypatch):
    values = []
    original = nagumo.nagumo_norm

    def recording(f, params):
        result = original(f, params)
        values.append(repr(result))
        return result

    monkeypatch.setattr(nagumo, "nagumo_norm", recording)
    for seed in (23, 26):
        lemma_battery(seed, 300)
    assert len(values) == NORM_VALUES_COUNT
    text = "\n".join(values)
    assert hashlib.sha256(text.encode()).hexdigest() == NORM_VALUES_DIGEST


# SHA-256 of the coefficient dicts (insertion order) of 600 draws from
# random.Random(2024), num_vars cycling 1, 2, 3, then the generator's next
# random(): the battery's instances depend on every draw and its order.
DRAWS_DIGEST = (
    "cd3fcfeba1bced1c02478e5770857162b27c94d270398664897604de6ed6396a")


def test_random_polynomial_draws_match_recorded_digest():
    rng = random.Random(2024)
    lines = [repr(list(random_polynomial(rng, 1 + i % 3).coeffs.items()))
             for i in range(600)]
    lines.append(repr(rng.random()))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == DRAWS_DIGEST


def test_leq_compares_logs_past_the_double_range():
    # both sides overflow a double: inf <= inf must not pass the check
    assert not _leq(mpmath.mpf("1e401"), mpmath.mpf("1e400"))
    assert _leq(mpmath.mpf("1e400"), mpmath.mpf("1e401"))
    assert _leq(mpmath.mpf("1e400"), mpmath.mpf("1e400"))


def test_leq_against_a_fraction_past_the_double_range():
    # float(Fraction(10**401)) raises OverflowError
    assert not _leq(F(10 ** 401), 1.0)
    assert _leq(1.0, F(10 ** 401))
    assert not _leq(F(10 ** 401), mpmath.mpf("1e400"))


# SHA-256 of the exact nagumo_profile values (r = 1/2, alpha0 and s of the
# problem, one `str` per line) of each rational fixture, recorded before the
# norm ranked its candidates in a single pass.
PROFILE_DIGESTS = {
    "heat": "caf2fc996a7f8447522905c11c2c4ab974e30dc728ee6754a6687188af411ecb",
    "heat2d": "bd99c4a55ed775060f8de0670a81807a8db9247e63862ce6fbb153c5abc56a8c",
    "heat_exp": "34fe5fab2ae66c0e2a7b75f3ce824284828a874ccaffc4230875cb40e6364505",
    "heat_tcoeff": "bdaa91e9e16c064bd7e0a140d11ae6b80da3f1717d88df6adbd15974e7ba63d1",
    "qdiff": "652a059306132edb08d81046ae5add0b8c834c77cf4b742c60e13c7f09105c91",
}


@pytest.mark.parametrize("name", sorted(PROFILE_DIGESTS))
def test_exact_profile_matches_recorded_digest(name):
    problem = load_problem(PROBLEMS / f"{name}.json")
    solution = solve(problem)
    values = nagumo_profile(solution, alpha0(problem.pde), F(1, 2),
                            problem.pde.s)
    assert all(isinstance(v, Fraction) for v in values)
    text = "\n".join(str(v) for v in values)
    assert hashlib.sha256(text.encode()).hexdigest() == PROFILE_DIGESTS[name]


@pytest.mark.parametrize("name", ["heat_exp", "heat_table", "heat_tcoeff",
                                  "qdiff"])
def test_profile_of_numerators_equals_the_profile_of_the_values(name):
    # The profile reads ||N_n|| / d_n where the norm is exact, and the
    # reduced values where it is taken over double logs (heat_table's z-table
    # declares order 3/2): either way v_n is the norm of the Fraction values
    # of u_n, of the same value and type.  Data of ratio 2/3 put powers of 3
    # in the denominators.
    doc = json.loads((PROBLEMS / f"{name}.json").read_text())
    doc["initial"][0] = {"generator": "geometric", "coefficient": "2/3"}
    problem = problem_from_dict(doc)
    solution = solve(problem)
    assert any(d != 1 for d in solution.denominators)
    a0 = alpha0(problem.pde)
    got = nagumo_profile(solution, a0, F(1, 2), problem.pde.s)
    for n, result in enumerate(got):
        numerators = solution.coefficients.coefficient(n)
        d = solution.denominators[n]
        values = PolySeries(numerators.num_vars, {
            g: F(x, d) for g, x in numerators.coeffs.items()}, numerators.valid)
        alpha = tuple(n * a for a in a0) if n else (0,) * len(a0)
        want = nagumo_norm(values, params(alpha, F(1, 2), problem.pde.s))
        assert type(result) is type(want), n
        assert result == want, n
    floats = [type(v) is float for v in got[1:]]
    assert all(floats) if name == "heat_table" else not any(floats)
