"""Truncated multivariate formal power series with validity tracking.

A PolySeries stores a sparse coefficient map over exponent tuples together
with a per-variable validity degree: coefficients with exponent gamma_i <=
valid_i in every variable are exact/trusted.  A validity entry of None means
the series is exactly known to all degrees in that variable (a genuine
polynomial); a finite entry marks a truncation of infinite data.  Truncation
arithmetic is conservative: sums and products keep the componentwise minimum
validity, a generalized derivative of order k in variable j lowers valid_j
by k.

Every PolySeries keeps one invariant: no stored value is zero, and every
stored key lies inside `valid`.  The constructor enforces it on data from
outside (problem files, generators, tests); the arithmetic kernels build
their results through a trusted constructor and keep it by filtering only
where their result can break it.

Two kernels can put a key past their result's validity: `add` (and
`sub`, which is `add`), whose result keeps the componentwise minimum of
the operands' validities, and `multiply`, which moves each right key by a
left key's exponent; the exact recurrence's parts (solver module
docstring) move keys the same way.  All of them truncate through one rule,
`shift_within`.  An operand's keys already lie within its own validity v,
so a key shifted by beta can pass the target validity t only on an axis
where v_i + beta_i passes t_i (a None entry of v counts as unbounded);
there one int compare, key_i <= t_i - beta_i, decides, before the shifted
key is built, and the other axes need no test.  `add` cuts each operand
(`cut`) before its one merge, `combine`, which touches only one whose
validity is the larger on some axis; a key past the common validity lies
in one operand only, so the result is the per-key filter of the merged
dict, key for key and in order.  `multiply` cuts the sorted right operand
once per left monomial and shifts what is kept by that monomial's
exponent, so its pairs meet in the order of the full pair loop, each key's
sum starting from its first pair's product.  The constructor sees keys
from outside and keeps the per-key test on every axis; `__eq__` keeps it
only for operands of different validities, as operands of one validity
store keys inside it.

Key order.  `multiply` reads both operands in ascending key order.  A
kernel that moves every key it keeps by one vector keeps its operand's
order: `moment_derive` (by -k along its axis), `shift_within` (by beta) and
`scale` (by nothing).  So a derivative of a sorted series arrives sorted,
and `multiply`'s sort of it is one run check, n - 1 key compares.  The
exact solver stores every N_n sorted (solver module docstring), so the
derivatives the exact residual multiplies need no real sort.  In two
variables `moment_derive` builds each moved key from the unpacked pair,
(g0 - k, g1) or (g0, g1 - k), as `shift_within` shifts one; one variable
and three or more keep their own forms.

Exact multipliers follow one rule: the kernels apply an integral Fraction
multiplier (the `scale` factor, the `moment_derive` multiplier, and each
value of the left, coefficient operand of `multiply`) as an int, through
`exact_multiplier`.  So int-valued series stay on ints, which is what lets
the exact residual oracle run on one integer scale, while Fraction-valued
and mpf-valued series keep their output types (a Fraction times an int is
still a Fraction; an mpf is passed through).  A derivative of order k
multiplies the coefficient of degree n by m(n)/m(n-k) once, read from the
sequence's order-k multiplier list (moments module docstring), whose
entries were passed through `exact_multiplier` as the list was filled; so
an integral m(n)/m(n-k) of non-integral one-step ratios keeps an int value
an int, where k order-1 passes made it an integral Fraction of the same
value.  The moment values and one-step ratios themselves stay Fractions: an
int m(n) would turn the divisions in QuotientSequence.ratio,
MomentPDE.t_shift_factor and the solver into float divisions.

Raw big float.  Every scalar of a problem is in its backend's domain: in
big float an mpf of the backend's shared context, in exact mode an int or
a Fraction (backends module docstring).  So each kernel reads its
arithmetic off one value, with one `backends.mpf_arith` lookup: the first
stored value of its (left) operand, or the factor of `scale`.  Where that
value is an mpf of a shared context, `scale`, `moment_derive` and
`ell1_norm` do their arithmetic on the values' `_mpf_` tuples through
`backends.MpfArith`, which rounds each exact product and sum half to even
at the context's precision itself and calls libmp only for zero and
non-finite operands and sums across a gap of over 100 bits (backends
module docstring): a correctly rounded result is unique, so every bit is
the mpf operator's, but a value is wrapped into an mpf only where the
result stores it: a stored product is one
`MpfArith.product`, a `moment_derive` of order k one `chain` of its k
steps and an `ell1_norm` one `norm`.  Any other value takes the operator
expressions, which are the int and Fraction paths.  Outside the kernels a
value stays a tuple where no caller sees it, and is wrapped once where it
is stored, by the same rule: the solver's derivatives and sums (solver
module docstring) and the sum of pde.MomentPDE.apply (its docstring),
`MpfArith.combine`, the raw twin of this module's `combine`.  So `add`
has no hot big-float caller, and its `combine` takes the operators.  A
kernel's result is a PolySeries, so it holds mpfs.

The operator paths test a value for zero by truthiness (`not value`), which
answers as `value == 0` for an int, a Fraction and an mpf (mpmath has no
-0, and a NaN is truthy as it is != 0) without converting a 0 into the
value's domain on every test.  `combine` is the one merge of `add`, of
`sub` (its right values subtracted in the pass, with no negated copy) and
of the exact sum of pde.MomentPDE.apply.  A `multiply` whose left operand
is one constant monomial (every operator coefficient that does not depend
on z) is one pass over the right operand, since an mpf product is rounded
once and commutes.  By the constant 1 (an int, or an mpf of the right
values' context) that pass does no arithmetic: it copies the right
operand's items, sorted and restricted to the validity.  The products
would give the same values, as an mpf is already rounded to its context's
precision; pde.MomentPDE.apply forms the parts of an operator coefficient
-1 from the constant 1.  A product of two series whose first values are
Fractions clears each side's denominators into its lcm, sums the pairs
on int numerators, and builds one Fraction(sum, lcm_f * lcm_g) per
surviving key: the same values, still Fractions where they are integral,
in the same key order.  Any other pair of operands (an int or an mpf first
value on either side) takes the generic loop.

`ell1_norm` multiplies |f_gamma| by r^|gamma| read from a table of powers
of r by degree, which a caller that takes many norms at one r (the
zero-index profile of `nagumo.nagumo_profile`) shares across its calls.
For mpf values at a Fraction radius each table entry is rounded to nearest
once, by `backends.mpf_from_fraction`, the rule BigFloatBackend.scalar
follows; an mpf times the Fraction itself would round it toward zero.  At
r = 1 the multiply is skipped for mpf values: abs(v) is already rounded to
the context's precision, and times 1 it stays what it is.  Both forms run
raw where the values are mpfs of a shared context.  An
int-valued series (an exact solution's numerators) at a Fraction radius p/q
is summed on ints, sum of |f_gamma| p^d q^(top-d) with d = |gamma| and top
the largest d, and divided by q^top once: the same Fraction, with none
built per term.  A Fraction-valued series takes the same sum on the numerators
L * f_gamma over the values' lcm L, divided by L * q^top.

Operations are pure; values are treated as immutable after construction.
Iteration over coefficients is in sorted exponent order so that big-float
summations are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Optional

from .backends import (exact_multiplier, is_mpf, mpf_arith,
                       mpf_from_fraction, parse_rational)
from .moments import MomentSequence

Exponents = tuple[int, ...]
Validity = tuple[Optional[int], ...]


class DimensionMismatch(ValueError):
    """Operands disagree on the number of variables."""


def min_validity(a: Validity, b: Validity) -> Validity:
    out = []
    for x, y in zip(a, b):
        if x is None:
            out.append(y)
        elif y is None:
            out.append(x)
        else:
            out.append(min(x, y))
    return tuple(out)


def key_limit(valid: Validity) -> tuple:
    """valid with None as unbounded: a key lies within valid exactly when
    all(map(operator.le, key, key_limit(valid)))."""
    return tuple(math.inf if v is None else v for v in valid)


def shift_within(items, beta: Exponents, valid: Validity, target: Validity):
    """The pairs (key + beta, value) of items whose shifted key lies within
    target, in items' order, for (key, value) pairs whose keys all lie
    within valid: items itself where no key moves or drops.

    A shifted key can leave target only on an axis i where valid_i + beta_i
    passes target_i; there key_i <= target_i - beta_i decides, one int
    compare per key before the shifted key is built, and every other axis
    needs no test (module docstring)."""
    for i, (v, b, t) in enumerate(zip(valid, beta, target)):
        if t is not None and (v is None or v + b > t):
            bound = t - b
            items = [pair for pair in items if pair[0][i] <= bound]
    if not any(beta):
        return items
    if len(beta) == 2:  # unpacked: about a quarter of tuple(map(...))'s cost
        b0, b1 = beta
        return [((g0 + b0, g1 + b1), x) for (g0, g1), x in items]
    return [(tuple(map(operator.add, g, beta)), x) for g, x in items]


class PolySeries:
    """Sparse truncated power series in num_vars variables."""

    __slots__ = ("num_vars", "coeffs", "valid")

    def __init__(self, num_vars: int, coeffs: dict | None = None,
                 valid: Iterable[Optional[int]] | None = None):
        if num_vars < 1:
            raise DimensionMismatch("need at least one variable")
        self.num_vars = num_vars
        if valid is None:
            valid_t: Validity = (None,) * num_vars
        else:
            valid_t = tuple(valid)
            if len(valid_t) != num_vars:
                raise DimensionMismatch(
                    f"validity vector has {len(valid_t)} entries for "
                    f"{num_vars} variables"
                )
        self.valid = valid_t
        limit = key_limit(valid_t)
        stored: dict[Exponents, object] = {}
        if coeffs:
            for exponents, value in coeffs.items():
                exponents = tuple(exponents)
                if len(exponents) != num_vars:
                    raise DimensionMismatch(
                        f"exponent {exponents} has wrong arity for "
                        f"{num_vars} variables"
                    )
                if any(g < 0 for g in exponents):
                    raise ValueError(f"negative exponent in {exponents}")
                if value == 0:
                    continue
                if not all(map(operator.le, exponents, limit)):
                    continue
                stored[exponents] = value
        self.coeffs = stored

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, num_vars: int, coeffs: dict, valid: Validity) -> "PolySeries":
        """Wrap kernel output that already keeps the class invariant."""
        out = object.__new__(cls)
        out.num_vars = num_vars
        out.coeffs = coeffs
        out.valid = valid
        return out

    @classmethod
    def zero(cls, num_vars: int, valid=None) -> "PolySeries":
        return cls(num_vars, {}, valid)

    @classmethod
    def constant(cls, num_vars: int, value, valid=None) -> "PolySeries":
        return cls(num_vars, {(0,) * num_vars: value}, valid)

    # -- queries ----------------------------------------------------------

    def coefficient(self, exponents: Exponents):
        return self.coeffs.get(tuple(exponents), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        """True when the series is exactly known to all degrees."""
        return all(v is None for v in self.valid)

    def is_exhausted(self) -> bool:
        """True when no coefficient at all is trusted in some variable."""
        return any(v is not None and v < 0 for v in self.valid)

    def degree(self, axis: int) -> int:
        """Largest stored exponent in the given variable (-1 for zero)."""
        return max(map(operator.itemgetter(axis), self.coeffs), default=-1)

    def __eq__(self, other) -> bool:
        """Coefficient-wise equality on the common valid region."""
        if not isinstance(other, PolySeries):
            return NotImplemented
        if self.num_vars != other.num_vars:
            return False
        if self.valid == other.valid:
            return self.coeffs == other.coeffs
        limit = key_limit(min_validity(self.valid, other.valid))
        for key in set(self.coeffs) | set(other.coeffs):
            if all(map(operator.le, key, limit)):
                if self.coeffs.get(key, 0) != other.coeffs.get(key, 0):
                    return False
        return True

    __hash__ = None  # mutable-dict payload and region-based equality

    def __repr__(self) -> str:
        terms = ", ".join(f"{e}:{v}" for e, v in sorted(self.coeffs.items())[:6])
        more = "..." if len(self.coeffs) > 6 else ""
        return f"PolySeries({self.num_vars}, {{{terms}{more}}}, valid={self.valid})"

    # -- arithmetic ---------------------------------------------------------

    def _check_same_vars(self, other: "PolySeries"):
        if self.num_vars != other.num_vars:
            raise DimensionMismatch(
                f"{self.num_vars} vs {other.num_vars} variables"
            )

    def add(self, other: "PolySeries", *, negate: bool = False) -> "PolySeries":
        """self + other, or self - other when negate is set (as `sub`): the
        one merge `combine` of both operands cut to their common validity."""
        self._check_same_vars(other)
        valid = min_validity(self.valid, other.valid)
        return PolySeries._trusted(self.num_vars, combine(
            self.cut(valid), 1, [(other.cut(valid), negate)]), valid)

    def cut(self, valid: Validity):
        """The items of self whose keys lie within valid, a validity no
        larger than self's on any axis, in self's order (`shift_within`)."""
        return shift_within(self.coeffs.items(), (0,) * self.num_vars,
                            self.valid, valid)

    def neg(self) -> "PolySeries":
        return PolySeries._trusted(
            self.num_vars, {k: -v for k, v in self.coeffs.items()}, self.valid
        )

    def sub(self, other: "PolySeries") -> "PolySeries":
        return self.add(other, negate=True)

    def scale(self, factor) -> "PolySeries":
        if factor == 1:
            return self  # values are immutable; v * 1 == v in both backends
        if factor == 0:
            return PolySeries._trusted(self.num_vars, {}, self.valid)
        factor = exact_multiplier(factor)
        arith = mpf_arith(factor)
        if arith is None:
            out = {k: v * factor for k, v in self.coeffs.items()}
        else:  # raw (module docstring)
            product = arith.product
            out = {k: product(v, factor) for k, v in self.coeffs.items()}
        return PolySeries._trusted(self.num_vars, out, self.valid)

    def multiply(self, other: "PolySeries") -> "PolySeries":
        """Cauchy product truncated to the componentwise minimum validity."""
        self._check_same_vars(other)
        valid = min_validity(self.valid, other.valid)
        right = sorted(other.coeffs.items())
        if len(self.coeffs) == 1 and not any(next(iter(self.coeffs))):
            # a constant left operand: one pass, one product per key
            (zero, va), = self.coeffs.items()
            va = exact_multiplier(va)
            right = shift_within(right, zero, other.valid, valid)
            if va == 1:
                out = dict(right)  # 1 * v is v: no product to round
            else:
                out = {eb: v for eb, vb in right if (v := va * vb)}
            return PolySeries._trusted(self.num_vars, out, valid)
        left = sorted(self.coeffs.items())
        fractions = (left and right and type(left[0][1]) is Fraction
                     and type(right[0][1]) is Fraction)
        if fractions:  # Fraction by Fraction: the pair sums run on ints
            (left, lcm_f), (right, lcm_g) = cleared(left), cleared(right)
        else:
            left = [(ea, exact_multiplier(va)) for ea, va in left]
        out = {}
        get = out.get
        for ea, va in left:
            for key, vb in shift_within(right, ea, other.valid, valid):
                v = get(key)
                out[key] = va * vb if v is None else v + va * vb
        if fractions:
            denominator = lcm_f * lcm_g
            out = {k: Fraction(v, denominator) for k, v in out.items() if v}
        else:
            out = {k: v for k, v in out.items() if v}
        return PolySeries._trusted(self.num_vars, out, valid)

    __add__ = add
    __sub__ = sub
    __mul__ = multiply
    __neg__ = neg

    # -- analysis -----------------------------------------------------------

    def moment_derive(self, axis: int, seq: MomentSequence,
                      order: int = 1) -> "PolySeries":
        """Generalized derivative of order k = order in one variable.

        The output coefficient at gamma is f(gamma + k e_axis) times
        m(gamma_axis + k)/m(gamma_axis); for m(n) = n! and k = 1 this is the
        classical partial derivative.  Validity in the axis drops by k, and
        keys of degree below k in the axis drop out.  It is one pass over
        the coefficients on the sequence's order-k multiplier list and
        equals k order-1 passes value for value: in big-float mode each
        value is multiplied by the one-step ratios one at a time,
        (v * r(n-1)) * r(n-2) ..., so every mpf rounds as in k order-1
        passes; on the raw path (module docstring) the steps stay tuples
        and only the last is wrapped.
        """
        if not 0 <= axis < self.num_vars:
            raise DimensionMismatch(f"axis {axis} out of range")
        if order == 0:
            return self  # values are immutable
        k = order
        items = self.coeffs.items()
        top = self.degree(axis)
        arith = mpf_arith(next(iter(self.coeffs.values()), None))
        if arith is not None:
            # raw (module docstring): each value times its k steps in turn
            steps = seq.multipliers(1, top)
            if self.num_vars == 1 and k == 1:
                product = arith.product
                out = {(n - 1,): product(v, steps[n - 1])
                       for (n,), v in items if n}
            else:
                chain = arith.chain
                out = {e[:axis] + (n - k,) + e[axis + 1:]:
                       chain(v, reversed(steps[n - k:n]))
                       for e, v in items if (n := e[axis]) >= k}
        else:
            table = seq.multipliers(k, top)
            if self.num_vars == 1:
                out = {(n - k,): v * table[n - k] for (n,), v in items if n >= k}
            elif self.num_vars == 2 and axis == 0:  # unpacked, as shift_within
                out = {(g0 - k, g1): v * table[g0 - k]
                       for (g0, g1), v in items if g0 >= k}
            elif self.num_vars == 2:
                out = {(g0, g1 - k): v * table[g1 - k]
                       for (g0, g1), v in items if g1 >= k}
            else:
                out = {e[:axis] + (e[axis] - k,) + e[axis + 1:]:
                       v * table[e[axis] - k] for e, v in items if e[axis] >= k}
        valid = self.valid
        if valid[axis] is not None:
            valid = valid[:axis] + (valid[axis] - k,) + valid[axis + 1:]
        return PolySeries._trusted(self.num_vars, out, valid)

    def ell1_norm(self, r, powers: dict | None = None):
        """Sum of |f_gamma|·r^|gamma| over stored coefficients, added in
        sorted exponent order.

        This is the alpha = 0 member of the modified Nagumo family.  powers
        maps a degree d to r^d as the values are multiplied by it, filled
        here; a caller that takes many norms at one r, over values of one
        scalar domain, passes one dict to all of them (module docstring).
        Int or Fraction values at a Fraction radius are summed on ints and
        do not read it.
        """
        if not r > 0:
            raise ValueError("radius r must be positive")
        items = sorted(self.coeffs.items())
        if not items:
            return r * 0  # zero in the scalar domain of r
        first = items[0][1]
        if type(r) is Fraction and type(first) in (int, Fraction):
            # sum of |N| p^d q^(top - d), over L q^top, at r = p/q; the
            # sum is exact whichever values are cleared
            numerators, lcm = (cleared(items) if type(first) is Fraction
                               else (items, 1))
            p, q = r.numerator, r.denominator
            degrees = [sum(e) for e, _ in numerators]
            top = max(degrees)
            return Fraction(sum(abs(x) * p ** d * q ** (top - d)
                                for d, (_, x) in zip(degrees, numerators)),
                            lcm * q ** top)
        # at r = 1, abs(v) of an mpf is rounded to its context's precision,
        # so * 1 keeps it and no power is read
        plain = is_mpf(first) and r == 1
        scales = ()
        if not plain:
            # each Fraction power goes into big float rounded to nearest
            ctx = (type(first).context
                   if is_mpf(first) and type(r) is Fraction else None)
            if powers is None:
                powers = {}
            scales = []
            for exponents, _ in items:
                d = sum(exponents)
                p = powers.get(d)
                if p is None:
                    p = r ** d
                    if ctx is not None:
                        p = mpf_from_fraction(ctx, p)
                    powers[d] = p
                scales.append(p)
        arith = mpf_arith(first)
        if arith is not None:  # raw (module docstring)
            return arith.norm([v for _, v in items], None if plain else scales)
        terms = ([abs(v) for _, v in items] if plain else
                 [abs(v) * p for (_, v), p in zip(items, scales)])
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    def map_coefficients(self, fn) -> "PolySeries":
        return PolySeries(
            self.num_vars, {k: fn(v) for k, v in self.coeffs.items()}, self.valid
        )


def combine(items, factor, parts) -> dict:
    """The sum of pde.MomentPDE.apply at one t-order on int, Fraction or
    mpf values, the operators' twin of `backends.MpfArith.combine`:
    {key: v * factor} over the (key, v) items, then each part of parts, a
    list of (items, negate), added or, with negate, subtracted key by key.
    A key whose sum is 0 leaves, and a key first met in a part takes its
    value, negated with negate.  An integral Fraction factor multiplies as
    an int, and a factor 1 copies the items (module docstring)."""
    factor = exact_multiplier(factor)
    total = dict(items) if factor == 1 else {k: v * factor for k, v in items}
    get = total.get
    for part, negate in parts:
        for key, v in part:
            x = get(key)
            if x is None:
                total[key] = -v if negate else v
            elif (x := x - v if negate else x + v):
                total[key] = x
            else:
                del total[key]
    return total


def common_denominator(values) -> int:
    """The least common denominator of int or Fraction values, taken two
    arguments at a time, as math.lcm(*values) holds every one at once."""
    scale = 1
    for value in values:
        scale = math.lcm(scale, value.denominator)
    return scale


def cleared(items, scale: int = 0) -> tuple[list, int]:
    """Int or Fraction values, as (key, value) pairs in a list or a dict's
    items view, as ints over a common multiple of their denominators: the
    pairs (key, scale * value), and scale.  scale defaults to the values'
    least common denominator; a given one must be a multiple of every
    denominator."""
    if not scale:
        scale = common_denominator(map(operator.itemgetter(1), items))
    return [(key, value.numerator * (scale // value.denominator))
            for key, value in items], scale


# -- builtin generators for infinite initial data ---------------------------


def geometric_series(num_vars: int, ratio, caps: Iterable[int]) -> PolySeries:
    """Coefficients ratio^|gamma| up to the caps: the product of 1/(1 - c·z_i).

    For one variable this is the geometric series 1/(1 - c·z).
    """
    caps = tuple(caps)
    c = parse_rational(ratio) if isinstance(ratio, (str, int)) else ratio
    powers = [c ** d for d in range(sum(caps) + 1)]  # c^d once per degree d
    coeffs = {exponents: powers[sum(exponents)]
              for exponents in _box(caps)}
    return PolySeries(num_vars, coeffs, caps)


def exponential_series(num_vars: int, rate, caps: Iterable[int]) -> PolySeries:
    """Coefficients rate^|gamma| / prod(gamma_i!): exp(c·(z_1+...+z_N))."""
    caps = tuple(caps)
    c = parse_rational(rate) if isinstance(rate, (str, int)) else rate
    coeffs: dict[Exponents, object] = {}
    for exponents in _box(caps):
        denom = 1
        for g in exponents:
            denom *= math.factorial(g)
        coeffs[exponents] = c ** sum(exponents) * Fraction(1, denom)
    return PolySeries(num_vars, coeffs, caps)


def _box(caps: Exponents):
    """All exponent tuples within the per-variable caps."""
    if len(caps) == 1:
        for g in range(caps[0] + 1):
            yield (g,)
        return
    head = caps[0]
    for rest in _box(caps[1:]):
        for g in range(head + 1):
            yield (g,) + rest


# -- time-indexed stacks -----------------------------------------------------


class TimeSeries:
    """A truncated power series in t with PolySeries coefficients.

    tail_exact marks a series whose coefficients beyond the stored range are
    exactly zero (a polynomial in t), as opposed to a truncation of unknown
    higher-order data.
    """

    __slots__ = ("entries", "tail_exact")

    def __init__(self, entries: Iterable[PolySeries], tail_exact: bool = False):
        entries = tuple(entries)
        if not entries:
            raise ValueError("a TimeSeries needs at least the t^0 entry")
        nv = entries[0].num_vars
        for e in entries:
            if e.num_vars != nv:
                raise DimensionMismatch("entries disagree on variable count")
        self.entries = entries
        self.tail_exact = tail_exact

    @property
    def t_order(self) -> int:
        return len(self.entries) - 1

    @property
    def num_vars(self) -> int:
        return self.entries[0].num_vars

    def coefficient(self, n: int) -> PolySeries:
        """The t^n coefficient; exact zero beyond the range when tail_exact."""
        if n < 0:
            raise IndexError("negative t index")
        if n <= self.t_order:
            return self.entries[n]
        if self.tail_exact:
            return PolySeries._trusted(self.num_vars, {},
                                       (None,) * self.num_vars)
        raise IndexError(
            f"t-coefficient {n} beyond truncation order {self.t_order}"
        )

    def reach(self, n: int) -> int:
        """The last index up to n that may hold a non-zero coefficient: the
        stored t-order when tail_exact cuts below n, n otherwise (a truncated
        series keeps raising past its range)."""
        if self.tail_exact and self.t_order < n:
            return self.t_order
        return n

    def ord_t(self) -> int:
        """Smallest n with a nonzero t^n coefficient."""
        for n, entry in enumerate(self.entries):
            if not entry.is_zero():
                return n
        raise ValueError(
            "series is identically zero up to truncation; term must be dropped"
        )

    def __repr__(self) -> str:
        return (
            f"TimeSeries(t_order={self.t_order}, num_vars={self.num_vars}, "
            f"tail_exact={self.tail_exact})"
        )
