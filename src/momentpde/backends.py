"""Scalar backends: exact rational arithmetic or arbitrary-precision binary floats.

Every problem is solved over a single scalar domain.  The rational backend
works with ``fractions.Fraction`` and is exact; the big-float backend wraps a
private mpmath context with a configurable mantissa (default 256 bits), so
precision does not depend on the global mpmath state.  mpmath is imported
only where an mpf is made or read, so rational runs never load it.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction
from typing import Union


class BackendError(ValueError):
    """The requested value cannot be represented in the active backend."""


class PrecisionError(ArithmeticError):
    """A big-float intermediate became non-finite; increase precision_bits."""


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or a string like "3/4".

    Decimal strings ("0.5") are accepted and converted exactly.
    """
    if isinstance(value, bool):
        raise BackendError(f"not a rational value: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise BackendError(f"not a rational value: {value!r}") from exc
    raise BackendError(f"not a rational value: {value!r}")


def is_mpf(value) -> bool:
    """True for an mpf from any mpmath context (contexts have distinct types)."""
    return hasattr(value, "_mpf_")


def scalar_to_fraction(value) -> Fraction:
    """Exact rational value of a scalar; mpf values are binary rationals."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if is_mpf(value):
        sign, man, exp, _ = value._mpf_
        if man == 0:
            if exp != 0:
                raise PrecisionError("cannot serialize a non-finite value")
            return Fraction(0)
        if sign:
            man = -man
        if exp >= 0:
            return Fraction(man << exp)
        return Fraction(man, 1 << -exp)
    raise BackendError(f"cannot convert {value!r} to an exact rational")


def exact_multiplier(value):
    """An integral Fraction as an int; any other value unchanged."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def mpf_from_fraction(ctx, value: Fraction):
    """value in the mpmath context ctx, rounded once to nearest: the one
    rule for a Fraction into big float (ctx.convert rounds toward zero)."""
    from mpmath.libmp import from_rational, round_nearest

    return ctx.make_mpf(from_rational(value.numerator, value.denominator,
                                      ctx.prec, round_nearest))


@contextlib.contextmanager
def unlimited_int_digits():
    """No limit on int-to-decimal digits inside the block, which only output
    enters: CPython 3.10.7 and later cap str(int) at
    sys.get_int_max_str_digits() (4,300 by default), and parsing keeps that
    cap.  The caller's limit comes back on every exit."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # before 3.10.7: no limit
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def log_scalar(value) -> float:
    """Double-precision natural log of a positive scalar.

    Handles Fractions whose numerator/denominator overflow a double and mpf
    values with huge exponents.
    """
    if isinstance(value, Fraction):
        if value <= 0:
            raise ValueError("log of non-positive value")
        return math.log(value.numerator) - math.log(value.denominator)
    if isinstance(value, int):
        return math.log(value)
    if is_mpf(value):
        import mpmath

        return float(mpmath.log(value))
    return math.log(value)


def exact_pow(base: Fraction, exponent: Fraction) -> Fraction:
    """base**exponent for integer exponents only; exact.  base itself for
    exponent 1."""
    if exponent.denominator != 1:
        raise BackendError(
            f"exponent {exponent} is not an integer; exact power unavailable"
        )
    if exponent == 1:
        return base
    return base ** int(exponent)


class RationalBackend:
    """Exact arithmetic over ``fractions.Fraction``."""

    name = "rational"
    exact = True

    def scalar(self, value) -> Fraction:
        return parse_rational(value)

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def gamma(self, x) -> Fraction:
        x = parse_rational(x)
        if x.denominator != 1 or x < 1:
            raise BackendError(
                f"gamma({x}) is not rational; use the bigfloat backend"
            )
        return Fraction(math.factorial(int(x) - 1))

    def check_finite(self, value: Fraction) -> Fraction:
        return value

    def format(self, value: Fraction) -> str:
        return str(Fraction(value))

    def describe(self) -> dict:
        return {"backend": self.name}

    def __repr__(self) -> str:
        return "RationalBackend()"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalBackend)


class BigFloatBackend:
    """Arbitrary-precision binary floats via a private mpmath context."""

    name = "bigfloat"
    exact = False

    def __init__(self, precision_bits: int = 256):
        if precision_bits < 24:
            raise BackendError("precision_bits must be at least 24")
        import mpmath

        self.precision_bits = int(precision_bits)
        self.ctx = mpmath.mp.clone()
        self.ctx.prec = self.precision_bits

    def scalar(self, value):
        if isinstance(value, str):
            value = parse_rational(value)
        if isinstance(value, Fraction):
            return mpf_from_fraction(self.ctx, value)
        return self.ctx.mpf(value)

    def zero(self):
        return self.ctx.mpf(0)

    def one(self):
        return self.ctx.mpf(1)

    def power(self, base, exponent):
        if isinstance(exponent, Fraction) and exponent.denominator == 1:
            exponent = int(exponent)
        else:
            exponent = self.scalar(exponent)
        return self.check_finite(self.ctx.power(self.scalar(base), exponent))

    def gamma(self, x):
        return self.check_finite(self.ctx.gamma(self.scalar(x)))

    def check_finite(self, value):
        if not self.ctx.isfinite(value):
            raise PrecisionError(
                f"non-finite intermediate at {self.precision_bits} bits; "
                "increase precision_bits"
            )
        return value

    def format(self, value) -> str:
        import mpmath

        digits = max(int(self.precision_bits * 0.30103) + 2, 17)
        return mpmath.nstr(value, digits)

    @property
    def residual_tolerance(self):
        return self.ctx.mpf(2) ** (-(self.precision_bits // 2))

    def describe(self) -> dict:
        return {"backend": self.name, "precision_bits": self.precision_bits}

    def __repr__(self) -> str:
        return f"BigFloatBackend(precision_bits={self.precision_bits})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BigFloatBackend)
            and other.precision_bits == self.precision_bits
        )


Backend = Union[RationalBackend, BigFloatBackend]


def make_backend(name: str, precision_bits: int = 256) -> Backend:
    if name == "rational":
        return RationalBackend()
    if name == "bigfloat":
        return BigFloatBackend(precision_bits)
    raise BackendError(f"unknown backend {name!r} (expected rational|bigfloat)")
