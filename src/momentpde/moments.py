"""Gevrey-type moment sequences.

A moment sequence here is a positive sequence m(n) with m(0) = 1 and a
declared order s, meaning aⁿ·n!^s ≤ m(n) ≤ Aⁿ·n!^s for some constants
a, A > 0.  The regular variant additionally sandwiches the consecutive
ratio m(n+1)/m(n) between a·(n+1)^s and A·(n+1)^s.  These sequences drive
both the generalized derivatives (factorials give the classical one,
Γ(1+sn) the Caputo-type fractional one, [n]_q! the q-difference one) and
the growth bookkeeping of the solver.

Sequences are immutable after construction.  Values are memoized; a
one-step ratio m(n+1)/m(n) is computed on each call, in closed form where
the kind has one and as a quotient of memoized values otherwise.
The generalized derivative of order k multiplies the coefficient of degree n
by m(n)/m(n-k), so each sequence also keeps one multiplier list per order k:
entry g of the order-k list is m(g+k)/m(g).  The lists are filled on demand,
up to the degree a caller asks for, from the one-step ratios, each read once
per sequence; an entry is passed through exact_multiplier, so in exact mode
it is the exact product with an integral Fraction as an int (an mpf is left
as it is).  Two readers use the lists: the derivative kernel, and the exact
recurrence, which differentiates its int numerators in its own pass over
the same lists.  Every value and ratio comes from the backend (its scalar,
power or gamma, or their products and quotients), so each is in the
backend's domain (backends module docstring); in exact mode value() and
ratio() keep returning Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .backends import (
    Backend,
    BackendError,
    RationalBackend,
    exact_multiplier,
    log_scalar,
    parse_rational,
)


class SequenceError(ValueError):
    """Invalid sequence parameters or out-of-range evaluation."""


def _order_value(order) -> Fraction:
    order = parse_rational(order)
    if order < 0:
        raise SequenceError(f"sequence order must be >= 0, got {order}")
    return order


class MomentSequence:
    """Base class; concrete kinds implement _compute_value, and override
    _compute_ratio where the ratio has a closed form."""

    kind = "abstract"

    def __init__(self, order: Fraction, backend: Backend | None):
        self.order = _order_value(order)
        if backend is None:
            if not self.is_rational_exact():
                raise BackendError(
                    f"{self.kind} sequence is not rational-valued; "
                    "pass a BigFloatBackend"
                )
            backend = RationalBackend()
        self.backend = backend
        self._values: list = []
        self._multipliers: dict[int, list] = {}
        self._regularity: dict[int, tuple] = {}

    # -- kind-specific hooks ------------------------------------------------

    def is_rational_exact(self) -> bool:
        raise NotImplementedError

    def _compute_value(self, n: int):
        raise NotImplementedError

    def _compute_ratio(self, n: int):
        return self.value(n + 1) / self.value(n)

    # -- public surface -----------------------------------------------------

    def feasible_in_backend(self) -> bool:
        return self.backend.exact is False or self.is_rational_exact()

    def value(self, n: int):
        """m(n).  Memoized; m(0) = 1 by construction.  A value the backend
        cannot form (in exact mode, an irrational power or Γ) raises the
        backend's BackendError."""
        if n < 0:
            raise SequenceError(f"sequence index must be >= 0, got {n}")
        values = self._values
        while len(values) <= n:
            k = len(values)
            v = self.backend.scalar(1) if k == 0 else self._compute_value(k)
            if not v > 0:
                raise SequenceError(f"{self.kind}: m({k}) = {v} is not positive")
            values.append(v)
        return values[n]

    def ratio(self, n: int):
        """m(n+1)/m(n), computed on each call; consistent with value() by
        construction."""
        if n < 0:
            raise SequenceError(f"sequence index must be >= 0, got {n}")
        return self._compute_ratio(n)

    def multipliers(self, k: int, top: int) -> list:
        """The order-k multiplier list (k >= 1), filled at least up to entry
        top - k: entry g is m(g+k)/m(g) (module docstring).  Filling it reads
        ratio(0) .. ratio(top - 1), each once per sequence, so a table too
        short for degree top raises SequenceError here."""
        steps = self._multipliers.setdefault(1, [])
        while len(steps) < top:
            steps.append(exact_multiplier(self.ratio(len(steps))))
        if k == 1:
            return steps
        table = self._multipliers.setdefault(k, [])
        for g in range(len(table), top - k + 1):
            r = steps[g]
            for step in steps[g + 1:g + k]:
                r = r * step
            table.append(exact_multiplier(r))
        return table

    def regularity_constants(self, n_max: int):
        """Empirical (c, C): extremes of ratio(n)/(n+1)^s over 0 <= n <= n_max.

        C is the constant the derivative-bound inequality consumes.
        Memoized per n_max.
        """
        if n_max < 1:
            raise SequenceError("n_max must be >= 1")
        known = self._regularity.get(n_max)
        if known is not None:
            return known
        lo = hi = None
        for n in range(n_max + 1):
            q = self.ratio(n) / self.backend.power(n + 1, self.order)
            lo = q if lo is None or q < lo else lo
            hi = q if hi is None or q > hi else hi
        known = self._regularity[n_max] = (lo, hi)
        return known


class FactorialPower(MomentSequence):
    """m(n) = n!^s."""

    kind = "factorial_power"

    def __init__(self, s, backend: Backend | None = None):
        self.s = _order_value(s)
        super().__init__(self.s, backend)

    def is_rational_exact(self) -> bool:
        return self.s.denominator == 1

    def _compute_value(self, n: int):
        return self.backend.power(math.factorial(n), self.s)

    def _compute_ratio(self, n: int):
        return self.backend.power(n + 1, self.s)


class GammaSequence(MomentSequence):
    """m(n) = Γ(1 + s·n); for integer s this is (s·n)! exactly."""

    kind = "gamma"

    def __init__(self, s, backend: Backend | None = None):
        self.s = _order_value(s)
        super().__init__(self.s, backend)

    def is_rational_exact(self) -> bool:
        return self.s.denominator == 1

    def _compute_value(self, n: int):
        return self.backend.gamma(1 + self.s * n)


class QFactorial(MomentSequence):
    """m(n) = [n]_q! with [k]_q = (1 - q^k)/(1 - q), 0 < q < 1.  Order 0."""

    kind = "q_factorial"

    def __init__(self, q, backend: Backend | None = None):
        self.q = parse_rational(q)
        if not 0 < self.q < 1:
            raise SequenceError(f"q must lie in (0,1), got {self.q}")
        super().__init__(Fraction(0), backend)

    def is_rational_exact(self) -> bool:
        return True

    def bracket(self, k: int) -> Fraction:
        """[k]_q = 1 + q + ... + q^(k-1)."""
        return self.backend.scalar((1 - self.q ** k) / (1 - self.q))

    def _compute_value(self, n: int):
        return self.value(n - 1) * self.bracket(n)

    def _compute_ratio(self, n: int):
        return self.bracket(n + 1)


class ProductSequence(MomentSequence):
    """Pointwise product; orders add."""

    kind = "product"

    def __init__(self, lhs: MomentSequence, rhs: MomentSequence,
                 backend: Backend | None = None):
        if backend is None:
            backend = lhs.backend
        if lhs.backend != backend or rhs.backend != backend:
            raise SequenceError("product factors must share one backend")
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(lhs.order + rhs.order, backend)

    def is_rational_exact(self) -> bool:
        return self.lhs.is_rational_exact() and self.rhs.is_rational_exact()

    def _compute_value(self, n: int):
        return self.lhs.value(n) * self.rhs.value(n)

    def _compute_ratio(self, n: int):
        return self.lhs.ratio(n) * self.rhs.ratio(n)


class QuotientSequence(MomentSequence):
    """Pointwise quotient; orders subtract (result must stay >= 0)."""

    kind = "quotient"

    def __init__(self, num: MomentSequence, den: MomentSequence,
                 backend: Backend | None = None):
        if backend is None:
            backend = num.backend
        if num.backend != backend or den.backend != backend:
            raise SequenceError("quotient parts must share one backend")
        if num.order < den.order:
            raise SequenceError(
                f"quotient order {num.order}-{den.order} would be negative"
            )
        self.num = num
        self.den = den
        super().__init__(num.order - den.order, backend)

    def is_rational_exact(self) -> bool:
        return self.num.is_rational_exact() and self.den.is_rational_exact()

    def _compute_value(self, n: int):
        return self.num.value(n) / self.den.value(n)

    def _compute_ratio(self, n: int):
        return self.num.ratio(n) / self.den.ratio(n)


class TableSequence(MomentSequence):
    """Finite table of values with a declared order.

    Meant for experimentation; excluded from theorem-level claims.  Past the
    table, value(n) raises SequenceError.  Both recurrences differentiate
    u_0 .. u_{T-1} and read m(d) up to their top degree on an axis that some
    term differentiates, so a table on such an axis must reach that degree
    there; the residual check differentiates the same coefficients.
    """

    kind = "table"

    def __init__(self, values, order, backend: Backend | None = None):
        if not values:
            raise SequenceError("table must not be empty")
        self._raw = [parse_rational(v) for v in values]
        if self._raw[0] != 1:
            raise SequenceError("table must start with m(0) = 1")
        if any(v <= 0 for v in self._raw):
            raise SequenceError("table values must be positive")
        super().__init__(_order_value(order), backend)

    def is_rational_exact(self) -> bool:
        return True

    def fitted_order(self) -> float | None:
        """The order the values show over the upper half of the table: the
        least-squares slope of log(m(n+1)/m(n)) against log(n+1) for
        len // 2 <= n < len - 1, since a sequence of order s has ratios of
        about A (n+1)^s.  None when that half holds fewer than two ratios."""
        raw = self._raw
        points = [(math.log(n + 1), log_scalar(raw[n + 1] / raw[n]))
                  for n in range(len(raw) // 2, len(raw) - 1)]
        if len(points) < 2:
            return None
        mx = math.fsum(x for x, _ in points) / len(points)
        my = math.fsum(y for _, y in points) / len(points)
        return (math.fsum((x - mx) * (y - my) for x, y in points)
                / math.fsum((x - mx) ** 2 for x, _ in points))

    def _compute_value(self, n: int):
        if n >= len(self._raw):
            raise SequenceError(
                f"table holds {len(self._raw)} values; m({n}) is out of range"
            )
        return self.backend.scalar(self._raw[n])
