"""Scalar backends: exact rational arithmetic or arbitrary-precision binary floats.

Every problem is solved over a single scalar domain.  The rational backend
works with ``fractions.Fraction`` and is exact; the big-float backend works
in an mpmath context apart from mpmath's global one, with a configurable
mantissa (default 256 bits), so precision does not depend on the global
mpmath state.  mpmath is
imported only where an mpf is made or read, so rational runs never load it.

There is one context per precision, shared by every big-float backend of
that precision (`shared_context`), and its precision never changes after it
is made.  A clone of mpmath's context costs about 0.4 ms and holds a few
hundred objects in reference cycles, so a context per loaded problem left
that many for the cyclic collector each time a problem was dropped.

Raw arithmetic.  The hot big-float kernels, the solver's recurrence and
the sum of pde.MomentPDE.apply (series, solver and pde docstrings) do their
mpf arithmetic through `MpfArith`, the one place that knows mpmath.libmp,
the `_mpf_` tuple and a context's (precision, rounding).  Its bits are
those of the mpf operators, which for x * y on two mpfs call
`libmp.mpf_mul(x._mpf_, y._mpf_, prec, rounding)` with the (prec,
rounding) of x's context, rounding to nearest, and wrap the result in a
new mpf; +, -, unary - and abs call mpf_add, mpf_sub, mpf_neg and mpf_abs
the same way.  MpfArith computes those results itself: the exact product
of the mantissas, or the exact sum of the mantissas aligned to the lower
exponent, rounded half to even at the context's precision into libmp's
canonical tuple (odd mantissa, exact bit count, `fzero` for an exact
zero); abs and neg set the sign bit.  A correctly rounded result is
unique (IEEE 754-2008), so these are libmp's bits, and the libmp calls,
which also dispatch on special values and rounding modes, go.  libmp
stays for a zero or non-finite operand, for a sum whose exponents are
more than 100 bits apart (there mpf_add perturbs in place of forming the
exact sum, and calling it keeps its bits by construction) and for the
one sum of several products.  MpfArith wraps only the value a caller
stores, once, as the context's make_mpf wraps: partial sums, the steps of
a product chain, abs terms, the solver's derivatives between its steps
and apply's running sum stay tuples, and none of the operator's dispatch
runs.  A sum of several products is what mpmath 1.3.0's ctx.fdot
computes: their exact products (mpf_mul without a precision) added by
one mpf_sum, rounded once.  A raw sum is zero when it equals
`libmp.fzero`, which is exactly when the mpf would be falsy; a zero
mantissa alone would not do, as inf and nan have one too.

Every scalar of a problem is in its backend's domain: in big float an mpf
of the backend's shared context, in exact mode an int or a Fraction.
`BigFloatBackend.scalar`, the moment sequences and the problem reader make
every value so, and nothing mixes the domains after.  So a kernel reads its
arithmetic off one operand value (series module docstring) with one
`mpf_arith` lookup: an mpf of a shared context takes the raw path, and any
other value the operators.

Exact values formed from a moment order (`exact_pow`, the factorials of
RationalBackend.gamma and of an integral gamma sequence's ratios) are
checked against one bit budget, `EXACT_BIT_BUDGET`, before they are formed,
so a huge order is a BackendError, not a hang.  So is the 2^|exponent| of
an mpf's exact binary value (`power_of_two`), which the solution dump
prints: a huge order in big float gives mpfs of huge exponents.
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
            return Fraction(man * power_of_two(exp))
        return Fraction(man, power_of_two(-exp))
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
    values with huge exponents; an mpf's log is rounded at 53 bits, apart
    from mpmath's global precision.
    """
    if isinstance(value, Fraction):
        if value <= 0:
            raise ValueError("log of non-positive value")
        return math.log(value.numerator) - math.log(value.denominator)
    if isinstance(value, int):
        return math.log(value)
    if is_mpf(value):
        from mpmath.libmp import mpf_log, round_nearest, to_float

        return to_float(mpf_log(value._mpf_, 53, round_nearest))
    return math.log(value)


# The largest exact value a moment sequence may form, in bits: 2 MiB, about
# five million decimal digits.  A moment value near it is already far past
# what the solver multiplies or the dump prints in reasonable time, while a
# value such as (n+1)^(10^400), from a moment order given as "1e400", could
# never be formed.
EXACT_BIT_BUDGET = 1 << 24


def too_many_bits(what: str) -> BackendError:
    """The error for an exact value past EXACT_BIT_BUDGET.  what names the
    value by sizes only: its numbers may be too long to print."""
    return BackendError(f"{what} passes {EXACT_BIT_BUDGET} bits; exact "
                        "value unavailable")


def power_of_two(k: int) -> int:
    """2^k for k >= 0, the scale of an mpf's exact binary rational; a k
    past the budget raises before the power is formed (an mpf's exponent
    is unbounded, so 2^k may be far too large to form)."""
    if k > EXACT_BIT_BUDGET:
        raise too_many_bits(
            f"the exact value of an mpf with a {k.bit_length()}-bit exponent")
    return 1 << k


def exact_pow(base: Fraction, exponent: Fraction) -> Fraction:
    """base**exponent for integer exponents only; exact.  base itself for
    exponent 1.  A power of at least |exponent| * (bit length of base's
    larger part - 1) bits past the budget raises before it is formed."""
    if exponent.denominator != 1:
        raise BackendError(
            f"exponent {exponent} is not an integer; exact power unavailable"
        )
    if exponent == 1:
        return base
    bits = max(abs(base.numerator).bit_length(), base.denominator.bit_length())
    if abs(exponent.numerator) * (bits - 1) > EXACT_BIT_BUDGET:
        raise too_many_bits(f"a {bits}-bit base to an exponent of "
                            f"{exponent.numerator.bit_length()} bits")
    return base ** int(exponent)


def factorial_bits(m: int) -> int:
    """A lower bound on the bits of m!: m * (log2 m - log2 e) >= m *
    (bit length of m - 3)."""
    return m * (m.bit_length() - 3)


_CONTEXTS: dict = {}  # precision_bits -> the shared mpmath context
_ARITH: dict = {}  # the mpf type of a shared context -> its MpfArith


def shared_context(precision_bits: int):
    """The one mpmath context at precision_bits, made on first use and
    never changed after (module docstring)."""
    ctx = _CONTEXTS.get(precision_bits)
    if ctx is None:
        import mpmath

        ctx = mpmath.mp.clone()
        ctx.prec = precision_bits
        _CONTEXTS[precision_bits] = ctx
        _ARITH[ctx.mpf] = MpfArith(ctx)
    return ctx


class MpfArith:
    """The mpf arithmetic of one shared context on the values' `_mpf_`
    tuples (module docstring), with the bits of the mpf operators.  These
    take and return mpfs of ctx:

    - product(x, y) is x * y;
    - chain(x, factors) is x times each factor in turn, ((x * f1) * f2) ...;
    - norm(values, scales) is abs(v1) + abs(v2) + ..., added in order, or
      abs(v1) * s1 + abs(v2) * s2 + ... where scales are given;
    - combine(items, factor, parts) is P's sum at one t-order
      (pde.MomentPDE.apply): {key: v * factor} over the (key, v) items,
      then each part of parts, a list of (items, negate), added or, with
      negate, subtracted key by key, as add and sub merge: a key whose sum
      is 0 leaves, and a key first met in a part takes its value, negated
      with negate.

    These work on tuples, for the solver's recurrence (solver module
    docstring), with c an mpf and x, y tuples:

    - mul(x, y) is x * y, add(x, y) is x + y, add(x, y, 1) is x - y,
      neg(x) is -x and abs(x) is |x|, each a tuple;
    - scaled(c, items) is {key: c * x} over the (key, x) items;
    - sums(groups) is, over the groups (c, [(key, x)]), the sum of c * x
      per key, in ascending key order and without the keys whose sum is 0.
      A key's one pair is its rounded product; the exact products of
      several are summed by one mpf_sum, rounded once, which is what
      `ctx.fdot` computes (mpmath 1.3.0).

    mul and add round the exact product or sum themselves, in `rounded`,
    and abs and neg set the sign bit; libmp takes only the exceptions of
    the module docstring.  The steps of a chain, the terms and partial
    sums of a norm and the sums of combine and sums stay tuples; each
    result is wrapped once, as the context's make_mpf wraps (inline where
    one call wraps a value per key, and in product, the most frequent)."""

    __slots__ = ("product", "chain", "norm", "combine", "mul", "add", "neg",
                 "abs", "scaled", "sums")

    def __init__(self, ctx):
        from mpmath.libmp import (fzero, mpf_abs, mpf_add, mpf_mul, mpf_neg,
                                  mpf_sum)

        # a shared context keeps mpmath's default rounding, to nearest
        prec, rounding = ctx._prec_rounding
        new, mpf, wrap = object.__new__, ctx.mpf, ctx.make_mpf

        def rounded(sign, man, exp):
            """The tuple of (-1)^sign * man * 2^exp, man > 0, rounded half
            to even at prec bits: odd mantissa, exact bit count."""
            n = man.bit_length() - prec
            if n > 0:
                t = man >> (n - 1)  # the kept bits and the rounding bit
                if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                    man = (t >> 1) + 1
                else:
                    man = t >> 1
                exp += n
            if not man & 1:
                n = (man & -man).bit_length() - 1
                man >>= n
                exp += n
            return sign, man, exp, man.bit_length()

        def mul(x, y):
            xsign, xman, xexp, _ = x
            ysign, yman, yexp, _ = y
            man = xman * yman
            if not man:
                return mpf_mul(x, y, prec, rounding)
            return rounded(xsign ^ ysign, man, xexp + yexp)

        def add(x, y, negate=0):
            xsign, xman, xexp, _ = x
            ysign, yman, yexp, _ = y
            gap = xexp - yexp
            if not (xman and yman) or gap > 100 or gap < -100:
                return mpf_add(x, y, prec, rounding, negate)
            if gap > 0:
                xman <<= gap
                xexp = yexp
            else:
                yman <<= -gap
            if xsign == ysign ^ negate:
                man = xman + yman
            else:
                man = xman - yman
                if man < 0:
                    man = -man
                    xsign ^= 1
                elif not man:
                    return fzero
            return rounded(xsign, man, xexp)

        def neg(x):
            sign, man, exp, bc = x
            if man:
                return sign ^ 1, man, exp, bc
            return mpf_neg(x, prec, rounding)

        def absolute(x):
            sign, man, exp, bc = x
            if man:
                return 0, man, exp, bc
            return mpf_abs(x, prec, rounding)

        def product(x, y):
            value = new(mpf)
            value._mpf_ = mul(x._mpf_, y._mpf_)
            return value

        def chain(x, factors):
            x = x._mpf_
            for factor in factors:
                x = mul(x, factor._mpf_)
            return wrap(x)

        def norm(values, scales=None):
            if scales is None:
                terms = [absolute(v._mpf_) for v in values]
            else:
                terms = [mul(absolute(v._mpf_), s._mpf_)
                         for v, s in zip(values, scales)]
            total = terms[0]
            for term in terms[1:]:
                total = add(total, term)
            return wrap(total)

        def combine(items, factor, parts):
            factor = factor._mpf_
            total = {key: mul(v._mpf_, factor) for key, v in items}
            get = total.get
            for items, negate in parts:
                for key, v in items:
                    x = get(key)
                    if x is None:
                        total[key] = neg(v._mpf_) if negate else v._mpf_
                        continue
                    x = add(x, v._mpf_, negate)
                    if x == fzero:
                        del total[key]
                    else:
                        total[key] = x
            out = {}
            for key, x in total.items():
                value = out[key] = new(mpf)
                value._mpf_ = x
            return out

        def scaled(c, items):
            c = c._mpf_
            out = {}
            for key, x in items:
                value = out[key] = new(mpf)
                value._mpf_ = mul(c, x)
            return out

        def sums(groups):
            pairs = {}
            for c, items in groups:
                c = c._mpf_
                for key, x in items:
                    pairs.setdefault(key, []).append((c, x))
            out = {}
            for key in sorted(pairs):
                cx = pairs[key]
                if len(cx) == 1:
                    (c, x), = cx
                    total = mul(c, x)
                else:
                    total = mpf_sum([mpf_mul(c, x) for c, x in cx], prec,
                                    rounding)
                if total != fzero:
                    value = out[key] = new(mpf)
                    value._mpf_ = total
            return out

        self.product = product
        self.chain = chain
        self.norm = norm
        self.combine = combine
        self.mul = mul
        self.add = add
        self.neg = neg
        self.abs = absolute
        self.scaled = scaled
        self.sums = sums


def mpf_arith(value):
    """The MpfArith of value's shared context, or None where value is not
    an mpf of a shared context (module docstring)."""
    return _ARITH.get(type(value))


class RationalBackend:
    """Exact arithmetic over ``fractions.Fraction``."""

    name = "rational"
    exact = True

    def scalar(self, value) -> Fraction:
        if type(value) is Fraction:
            return value
        return parse_rational(value)

    def power(self, base, exponent: Fraction) -> Fraction:
        return exact_pow(Fraction(base), exponent)

    def gamma(self, x) -> Fraction:
        x = parse_rational(x)
        if x.denominator != 1 or x < 1:
            raise BackendError(
                f"gamma({x}) is not rational; use the bigfloat backend"
            )
        m = int(x) - 1
        if factorial_bits(m) > EXACT_BIT_BUDGET:
            raise too_many_bits(
                f"the factorial of a {m.bit_length()}-bit integer")
        return Fraction(math.factorial(m))

    def format(self, value: Fraction) -> str:
        return str(Fraction(value))

    def describe(self) -> dict:
        return {"backend": self.name}

    def __repr__(self) -> str:
        return "RationalBackend()"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalBackend)


# The mantissa width of a big-float backend whose precision is not given.
DEFAULT_PRECISION = 256


class BigFloatBackend:
    """Arbitrary-precision binary floats in the mpmath context shared by
    every backend of one precision (module docstring)."""

    name = "bigfloat"
    exact = False

    def __init__(self, precision_bits: int = DEFAULT_PRECISION):
        if precision_bits < 24:
            raise BackendError("precision_bits must be at least 24")
        self.precision_bits = int(precision_bits)
        self.ctx = shared_context(self.precision_bits)

    def scalar(self, value):
        if isinstance(value, str):
            value = parse_rational(value)
        if isinstance(value, Fraction):
            return mpf_from_fraction(self.ctx, value)
        return self.ctx.mpf(value)

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


def make_backend(name: str, precision_bits: int = DEFAULT_PRECISION) -> Backend:
    if name == "rational":
        return RationalBackend()
    if name == "bigfloat":
        return BigFloatBackend(precision_bits)
    raise BackendError(f"unknown backend {name!r} (expected rational|bigfloat)")
