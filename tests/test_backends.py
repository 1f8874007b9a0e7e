"""Scalar backends: parsing, exact powers, and precision guards."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from momentpde import BackendError, BigFloatBackend, PrecisionError, make_backend
from momentpde.backends import (
    exact_pow,
    log_scalar,
    parse_rational,
    scalar_to_fraction,
)

F = Fraction


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
    assert scalar_to_fraction(backend.zero()) == 0


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
    values = [backend.zero(), ctx.mpf(1), ctx.mpf(-1), ctx.mpf(2) ** 300,
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
