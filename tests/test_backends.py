"""Scalar backends: parsing, exact powers, and precision guards."""

from __future__ import annotations

import gc
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from momentpde import (
    BackendError,
    BigFloatBackend,
    PrecisionError,
    backends,
    load_problem,
    make_backend,
    solve,
)
from momentpde.backends import (
    exact_pow,
    log_scalar,
    parse_rational,
    scalar_to_fraction,
)
from momentpde.problem_io import _fmt

F = Fraction

PROBLEMS = Path(__file__).parent / "problems"


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-1") == F(-1)
    assert parse_rational("0.5") == F(1, 2)
    assert parse_rational(7) == F(7)
    with pytest.raises(BackendError):
        parse_rational("abc")
    with pytest.raises(BackendError):
        parse_rational("1/0")


def test_make_backend():
    assert make_backend("rational").exact
    assert make_backend("bigfloat", 128).precision_bits == 128
    with pytest.raises(BackendError):
        make_backend("decimal")


def test_exact_pow_integer_only():
    assert exact_pow(F(2, 3), F(3)) == F(8, 27)
    base = F(7, 3)
    assert exact_pow(base, F(1)) is base
    with pytest.raises(BackendError):
        exact_pow(F(2), F(1, 2))


def test_exact_pow_refuses_a_power_past_the_bit_budget(monkeypatch):
    huge = F(10 ** 400)
    with pytest.raises(BackendError, match="exact value unavailable"):
        exact_pow(F(2), huge)
    with pytest.raises(BackendError):
        exact_pow(F(1, 3), -huge)
    # a base of one bit or less has no size to grow
    assert exact_pow(F(1), huge) == 1
    assert exact_pow(F(-1), huge + 1) == -1
    assert exact_pow(F(0), huge) == 0
    # the budget is |exponent| * (bits of the larger part - 1)
    monkeypatch.setattr(backends, "EXACT_BIT_BUDGET", 64)
    assert exact_pow(F(2), F(64)) == 2 ** 64
    assert exact_pow(F(1, 3), F(-64)) == 3 ** 64
    with pytest.raises(BackendError):
        exact_pow(F(2), F(65))
    with pytest.raises(BackendError):
        exact_pow(F(1, 3), F(65))


def test_backends_of_one_precision_share_one_context():
    a, b = BigFloatBackend(160), BigFloatBackend(160)
    assert a.ctx is b.ctx and a.ctx.prec == 160
    assert BigFloatBackend(168).ctx is not a.ctx
    first = load_problem(PROBLEMS / "fractional.json")
    again = load_problem(PROBLEMS / "fractional.json")
    assert first.backend.ctx is again.backend.ctx
    assert first.backend.ctx.prec == 256


def test_a_dropped_big_float_problem_leaves_nothing_to_collect():
    # a context of its own per problem left a few hundred objects in
    # reference cycles each time a problem was dropped
    def load_solve_drop():
        solve(load_problem(PROBLEMS / "fractional.json"))

    load_solve_drop()  # the first load makes the shared context
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        load_solve_drop()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_rational_backend_gamma():
    backend = make_backend("rational")
    assert backend.gamma(5) == 24
    with pytest.raises(BackendError):
        backend.gamma(F(1, 2))


def test_bigfloat_precision_and_finite_guard():
    backend = BigFloatBackend(96)
    third = backend.scalar(F(1, 3))
    assert abs(float(third * 3 - 1)) < 2.0 ** -90
    with pytest.raises(PrecisionError):
        backend.check_finite(backend.ctx.inf)


@pytest.mark.parametrize("precision", [24, 53, 256])
def test_scalar_rounds_a_fraction_once_to_nearest(precision):
    # as mpmath's from_rational rounds p/q; an mpf quotient of the rounded p
    # and q mis-rounded about a third of these 100-bit/100-bit rationals at
    # 24 and 53 bits.  No representable neighbour lies nearer.
    from mpmath.libmp import from_rational, round_nearest

    backend = BigFloatBackend(precision)
    rng = random.Random(precision)
    for _ in range(2000):
        value = F(rng.choice((1, -1)) * rng.getrandbits(100),
                  rng.getrandbits(100) | 1)
        got = backend.scalar(value)
        assert got._mpf_ == from_rational(value.numerator, value.denominator,
                                          precision, round_nearest)
        _, _, exp, bits = got._mpf_
        ulp = F(2) ** (exp + bits - precision)
        assert abs(scalar_to_fraction(got) - value) <= ulp / 2


def test_bigfloat_independent_of_global_mpmath():
    import mpmath

    backend = BigFloatBackend(200)
    old = mpmath.mp.prec
    try:
        mpmath.mp.prec = 30
        value = backend.scalar(F(1, 7)) * backend.scalar(F(1, 11))
        err = abs(float(value - backend.scalar(F(1, 77))))
        assert err < 2.0 ** -190
    finally:
        mpmath.mp.prec = old


def test_log_scalar_handles_huge_fractions():
    huge = F(math.factorial(500), 3)
    expect = math.lgamma(501) - math.log(3)
    assert abs(log_scalar(huge) - expect) < 1e-9


def test_scalar_to_fraction_round_trip():
    backend = BigFloatBackend(64)
    x = backend.scalar(F(-7, 16))  # exactly representable in binary
    assert scalar_to_fraction(x) == F(-7, 16)
    assert scalar_to_fraction(F(2, 3)) == F(2, 3)
    assert scalar_to_fraction(backend.scalar(0)) == 0


def test_an_mpf_exponent_past_the_budget_raises_before_the_power():
    # an mpf's exponent is unbounded: its exact binary value, in the dump
    # too, raises a BackendError rather than form 2^|exponent|
    ctx = BigFloatBackend(53).ctx
    budget = backends.EXACT_BIT_BUDGET
    assert scalar_to_fraction(ctx.ldexp(ctx.mpf(3), budget)) == 3 << budget
    for exp in (budget + 1, 10 ** 400):
        for value in (ctx.ldexp(ctx.mpf(3), exp),
                      ctx.ldexp(ctx.mpf(-3), -exp)):
            for convert in (scalar_to_fraction, _fmt):
                with pytest.raises(BackendError,
                                   match="exact value unavailable$"):
                    convert(value)


def _power_formula(value) -> Fraction:
    """An mpf's rational as man·2^exp in Fraction arithmetic, the formula
    scalar_to_fraction used before it built the rational from shifts."""
    sign, man, exp, _ = value._mpf_
    if man == 0:
        return Fraction(0)
    frac = Fraction(man) * (Fraction(2) ** exp)
    return -frac if sign else frac


def test_scalar_to_fraction_matches_the_power_formula():
    backend = BigFloatBackend(96)
    ctx = backend.ctx
    rng = random.Random(2026)
    values = [backend.scalar(0), ctx.mpf(1), ctx.mpf(-1), ctx.mpf(2) ** 300,
              -ctx.mpf(2) ** -300]
    for _ in range(400):
        man = rng.getrandbits(rng.randint(1, 160)) | 1
        values.append(ctx.ldexp(ctx.mpf(rng.choice((1, -1)) * man),
                                rng.randint(-400, 400)))
    exponents = {v._mpf_[2] for v in values if v}
    assert min(exponents) < 0 <= max(exponents)
    assert any(v < 0 for v in values)
    for value in values:
        got = scalar_to_fraction(value)
        assert type(got) is Fraction
        assert got == _power_formula(value)
    for value in (ctx.inf, -ctx.inf, ctx.nan):
        with pytest.raises(PrecisionError):
            scalar_to_fraction(value)


def test_rational_power_is_the_exact_power():
    # the sequences read m(n) and its ratios from their backend in both
    # modes: the rational backend's power is exact_pow, and its scalar
    # keeps a Fraction as it is
    backend = make_backend("rational")
    third = F(1, 3)
    assert backend.scalar(third) is third
    assert backend.power(6, F(2)) == 36 and type(backend.power(6, F(2))) is F
    assert backend.power(third, F(-3)) == 27
    with pytest.raises(BackendError, match="not an integer"):
        backend.power(2, F(1, 2))
