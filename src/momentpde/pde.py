"""Moment PDE operators and Cauchy problems.

An operator P = D_t^M + sum over a finite term set of a_{j,alpha}(t,z) *
D_t^j * D_z^alpha, where every derivative is a generalized (moment)
derivative driven by its own sequence.  The standing assumptions checked by
validate() are: all z-orders at least 1, a finite term set, and the t-order
of vanishing of each coefficient at least max(0, j - M + 1), which makes the
shifted valuation q = ord_t - j + M at least 1 for every term and keeps the
coefficient recurrence well-founded.

MomentPDE.apply is P's one walk over its parts, and the residual check of
both backends runs it.  The solver's recurrence enumerates the same parts
on its own (solver module docstring), so the check compares two walks.

A CauchyProblem also holds the settings of its order estimate in an
EstimationConfig, which checks them when the problem is made.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .backends import Backend, BackendError, mpf_arith, parse_rational
from .moments import MomentSequence
from .nagumo import ParameterError
from .series import (
    DimensionMismatch,
    Exponents,
    PolySeries,
    TimeSeries,
    cleared,
    min_validity,
    shift_within,
)


class ValidationError(ValueError):
    """Raised when an operation requires a validated problem and checks fail."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"problem validation failed: {failed}")


class OperatorTerm:
    """One term a_{j,alpha}(t,z) * D_t^j * D_z^alpha."""

    __slots__ = ("t_derivative", "z_derivatives", "coeff", "ord_t")

    def __init__(self, t_derivative: int, z_derivatives: Exponents,
                 coeff: TimeSeries):
        if t_derivative < 0:
            raise ValueError("t-derivative order must be >= 0")
        if any(a < 0 for a in z_derivatives):
            raise ValueError("z-derivative orders must be >= 0")
        self.t_derivative = t_derivative                # j
        self.z_derivatives = tuple(z_derivatives)       # alpha
        self.coeff = coeff                              # a_{j,alpha}
        # Valuation is computed from the stored data, never declared.
        self.ord_t = coeff.ord_t()

    def q(self, principal_order: int) -> int:
        """Shifted valuation ord_t - j + M, the first recurrence index fed."""
        return self.ord_t - self.t_derivative + principal_order

    def key(self) -> tuple:
        return (self.t_derivative, self.z_derivatives)


class MomentPDE:
    """The operator D_t^M + sum of coefficient terms."""

    def __init__(self, principal_order: int, m0: MomentSequence,
                 m: list[MomentSequence], terms: list[OperatorTerm]):
        if principal_order < 1:
            raise ValueError("principal t-order M must be >= 1")
        self.M = principal_order
        self.m0 = m0
        self.m = tuple(m)
        self.terms = tuple(terms)
        if not self.m:
            raise DimensionMismatch("need at least one z variable sequence")
        values = [v for term in self.terms for entry in term.coeff.entries
                  for v in entry.coeffs.values()]
        # L of apply: 1 in big float
        L = (math.lcm(*(v.denominator for v in values))
             if m0.backend.exact else 1)
        self.coefficient_denominator = L
        # (term, [(a_k as the walk multiplies by it, negated)]) per term
        self._parts = []
        for term in self.terms:
            row = []
            for a in term.coeff.entries:
                if L != 1:
                    a = PolySeries._trusted(a.num_vars, dict(
                        cleared(a.coeffs.items(), L)[0]), a.valid)
                negated = (len(a.coeffs) == 1 and not any(next(iter(a.coeffs)))
                           and next(iter(a.coeffs.values())) < 0)
                row.append((a.neg() if negated else a, negated))
            self._parts.append((term, row))

    @property
    def num_vars(self) -> int:
        return len(self.m)

    @property
    def s0(self) -> Fraction:
        return self.m0.order

    @property
    def s(self) -> tuple[Fraction, ...]:
        return tuple(seq.order for seq in self.m)

    def q_table(self) -> dict[tuple, int]:
        return {term.key(): term.q(self.M) for term in self.terms}

    # -- operator application -------------------------------------------

    def t_shift_factor(self, n: int, j: int):
        """m0(n+j)/m0(n): the weight of coefficient n of D_t^j, an exact 1
        for j = 0.  The values are memoized in m0."""
        if not j:
            return 1
        return self.m0.value(n + j) / self.m0.value(n)

    def apply(self, u: TimeSeries) -> TimeSeries:
        """P applied to u, truncated to t-order u.t_order - M: P's walk.

        Coefficient n of P u is u_{n+M} * m0(n+M)/m0(n), the principal
        part, plus every part a_k * D_t^j D_z^alpha u_i of the terms: u_i is
        u's coefficient i = n - k + j, k runs from ord_t(a) to the last index
        a may hold up to n, and the part is a_k * D_z^alpha u_i *
        m0(i)/m0(i-j).  D_z^alpha u_i is formed once per (i, alpha).

        Each a_k is taken from a table built once per operator, as the walk
        multiplies by it:

        - L (`coefficient_denominator`) is the lcm of the denominators of
          every coefficient value of P.  Where it is not 1, the walk scales
          the principal part by L, forms each part from the ints of L * a_k,
          so the kernels apply them as ints (series module docstring) and an
          int-valued u (the exact residual's D * u) keeps int sums wherever
          the moment ratios are integers, and divides by L last, once per
          key that survives the sum: a key that cancels is never divided, so
          on a correct solution of P u = 0 the check builds no Fraction per
          coefficient.  In big float L is 1 (an mpf times L and back would
          round), and L = 1 adds no arithmetic.
        - An entry that is one constant c < 0 (u_t = D_z^2 u is
          P = D_t + a * D_z^2 with a = -1) is stored as -c, so a product by
          -c = 1 does no arithmetic (series module docstring), and its part
          is subtracted where the others are added.  No bit moves: mpmath
          rounds to nearest, which is symmetric, so (-c) * x rounds to
          -(c * x), and x - y is computed as x + (-y); a key missing from
          the sum gets the same value either way, and exact values are
          exact.

        The walk reads its arithmetic off one value, the principal part's
        weight m0(n+M)/m0(n).  In exact mode the principal part is scaled
        and each part added by the kernels, one `add` at a time.  In big
        float (P u)_n is one `backends.MpfArith.combine`: the principal
        part's products and the running sum stay `_mpf_` tuples, with the
        roundings of scale and add, and each value is
        wrapped into an mpf once, at the end.  The principal part and the
        parts are cut first to the validity of the whole sum, the
        componentwise minimum of theirs, which keeps the keys and values
        that cutting the running sum at each add keeps.  Only the sum is
        on tuples: each part is still the kernels' moment_derive, multiply
        and scale, as the recurrence's are not, so the residual check
        compares the solver's own derivatives with the kernels'; in a
        big-float solve this walk is the one caller of moment_derive and
        multiply.
        """
        if u.t_order < self.M:
            raise ValueError(
                f"need t-order >= {self.M}, got {u.t_order}"
            )
        if u.num_vars != self.num_vars:
            raise DimensionMismatch("u has the wrong number of variables")
        L = self.coefficient_denominator
        stack = u.entries
        derived: dict[tuple[int, Exponents], PolySeries] = {}
        out = []
        for n in range(u.t_order - self.M + 1):
            factor = self.t_shift_factor(n, self.M)
            principal = stack[n + self.M]
            arith = mpf_arith(factor)
            if arith is None:
                acc = principal.scale(factor if L == 1 else L * factor)
            parts = []  # big float: summed at the end (docstring)
            for term, row in self._parts:
                j, alpha = term.key()
                for k in range(term.ord_t, term.coeff.reach(n) + 1):
                    if k == len(row):
                        term.coeff.coefficient(k)  # past a truncation: raises
                    a, negated = row[k]
                    if a.is_zero():
                        continue
                    i = n - k + j
                    if i >= len(stack):
                        raise ValueError(
                            "u is truncated too low for this term; "
                            f"needed t-coefficient {i}"
                        )
                    d = derived.get((i, alpha))
                    if d is None:
                        d = stack[i]
                        for axis, (order, seq) in enumerate(zip(alpha, self.m)):
                            if order:
                                d = d.moment_derive(axis, seq, order)
                        derived[i, alpha] = d
                    part = a.multiply(d).scale(self.t_shift_factor(i - j, j))
                    if arith is None:
                        acc = acc.add(part, negate=negated)
                    else:
                        parts.append((part, negated))
            if arith is not None:  # raw: one sum on tuples (docstring)
                valid = principal.valid
                for part, _ in parts:
                    valid = min_validity(valid, part.valid)
                zero = (0,) * self.num_vars

                def within(f: PolySeries):
                    return shift_within(f.coeffs.items(), zero, f.valid, valid)

                out.append(PolySeries._trusted(self.num_vars, arith.combine(
                    within(principal), factor,
                    [(within(part), negated) for part, negated in parts]),
                    valid))
                continue
            if L != 1:
                acc = PolySeries._trusted(acc.num_vars, {
                    g: Fraction(v, L) for g, v in acc.coeffs.items()}, acc.valid)
            out.append(acc)
        return TimeSeries(out, tail_exact=False)


class EstimationConfig:
    """The settings of the order estimate (estimator.verify_theorem), checked
    here alone; ParameterError names one out of range.  The defaults: radius
    r = 1/2 of the Nagumo profile and rho = 1/4 of the ell-1 proxy (each
    positive, in either mode), tolerance 3/20 (a rational), mode sup_proxy
    (or nagumo_profile), and window None, the upper half of the trusted
    range, else (lo, hi) with 0 <= lo <= hi."""

    __slots__ = ("r", "rho", "tolerance", "mode", "window")

    def __init__(self, r=Fraction(1, 2), rho=Fraction(1, 4),
                 tolerance=Fraction(3, 20), mode="sup_proxy", window=None):
        self.r = _rational("r", r, positive=True)
        self.rho = _rational("rho", rho, positive=True)
        self.tolerance = _rational("tolerance", tolerance)
        if mode not in ("sup_proxy", "nagumo_profile"):
            raise ParameterError(
                f"mode must be sup_proxy or nagumo_profile, got {mode!r}")
        self.mode = mode
        if window is not None and not (
                isinstance(window, (list, tuple)) and len(window) == 2
                and all(type(x) is int for x in window)
                and 0 <= window[0] <= window[1]):
            raise ParameterError(
                f"window must be [lo, hi] with 0 <= lo <= hi, got {window!r}")
        self.window = None if window is None else tuple(window)


def _rational(name: str, value, positive: bool = False) -> Fraction:
    try:
        value = parse_rational(value)
    except BackendError as exc:
        raise ParameterError(f"{name}: {exc}") from None
    if positive and not value > 0:
        raise ParameterError(f"{name} must be positive, got {value}")
    return value


class CauchyProblem:
    """A moment PDE with right-hand side, initial data, and truncation."""

    def __init__(self, pde: MomentPDE, rhs: TimeSeries,
                 initial: list[PolySeries], t_order: int,
                 z_caps: Exponents, backend: Backend,
                 estimation: EstimationConfig | None = None):
        self.pde = pde
        self.rhs = rhs
        self.initial = tuple(initial)
        self.t_order = t_order
        self.z_caps = tuple(z_caps)
        self.backend = backend
        self.estimation = estimation or EstimationConfig()

    @property
    def num_vars(self) -> int:
        return self.pde.num_vars


class ValidationCheck(NamedTuple):
    name: str
    passed: bool
    message: str


class ValidationReport(NamedTuple):
    checks: list[ValidationCheck]
    warnings: list[str]

    @property
    def passed(self) -> bool:
        """All checks pass: the problem qualifies for solving and estimates."""
        return all(c.passed for c in self.checks)

    @property
    def analysis_ok(self) -> bool:
        """Structure is sound: polygon analysis is meaningful even if the
        z-order or valuation assumptions fail."""
        return all(c.passed for c in self.checks if c.name.startswith("structure"))

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "analysis_ok": self.analysis_ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "message": c.message}
                for c in self.checks
            ],
            "warnings": list(self.warnings),
        }


# How far the order a table's values fit (TableSequence.fitted_order) may lie
# from its declared order before validate warns.  m(n) = (n+1)! fits 0.97
# over 49 values and n! fits 1 exactly, so a table of order 1 declared 3/2
# or 1/2 is off by about 1/2.
TABLE_ORDER_TOLERANCE = Fraction(1, 4)


def validate(problem: CauchyProblem) -> ValidationReport:
    """Check the standing assumptions and the structural consistency."""
    checks: list[ValidationCheck] = []
    warnings: list[str] = []
    pde = problem.pde
    nv = pde.num_vars

    def check(name: str, passed: bool, message: str):
        checks.append(ValidationCheck(name, bool(passed), message))

    # structure: dimensions and truncation
    dims_ok = problem.rhs.num_vars == nv and all(
        phi.num_vars == nv for phi in problem.initial
    ) and all(
        len(t.z_derivatives) == nv and t.coeff.num_vars == nv
        for t in pde.terms
    ) and len(problem.z_caps) == nv
    check("structure.dimensions", dims_ok,
          "all series share the problem's variable count"
          if dims_ok else "variable-count mismatch between problem parts")
    check("structure.initial_count", len(problem.initial) == pde.M,
          f"{pde.M} initial polynomials expected, "
          f"got {len(problem.initial)}")
    check("structure.truncation", problem.t_order >= pde.M
          and all(c >= 0 for c in problem.z_caps),
          f"t_order={problem.t_order}, z caps={problem.z_caps}")

    # (a) z-orders at least 1
    bad_s = [str(s) for s in pde.s if s < 1]
    check("assumption.z_orders", not bad_s,
          "all z-sequence orders are >= 1" if not bad_s
          else f"z-sequence orders below 1: {bad_s} (analysis-only mode)")

    # (c) coefficient valuations, and positivity of the shifted valuation q
    val_msgs = []
    q_msgs = []
    for term in pde.terms:
        j = term.t_derivative
        need = max(0, j - pde.M + 1)
        if term.ord_t < need:
            val_msgs.append(
                f"term (j={j}, alpha={term.z_derivatives}): "
                f"ord_t={term.ord_t} < {need}"
            )
        if term.q(pde.M) < 1:
            q_msgs.append(f"term (j={j}, alpha={term.z_derivatives})")
    check("assumption.valuations", not val_msgs,
          "every ord_t(a) >= max(0, j - M + 1)" if not val_msgs
          else "; ".join(val_msgs))
    check("assumption.q_positive", not q_msgs,
          "every q = ord_t - j + M is >= 1" if not q_msgs
          else "q < 1 for: " + "; ".join(q_msgs))

    # backend feasibility
    seqs = [pde.m0, *pde.m]
    infeasible = [s.kind for s in seqs if not s.feasible_in_backend()]
    check("backend.feasible", not infeasible,
          "all sequences are representable in the chosen backend"
          if not infeasible else
          f"sequences {infeasible} need the bigfloat backend")

    # coefficient and rhs truncations must reach the recurrence's needs
    trunc_msgs = []
    for term in pde.terms:
        if term.coeff.tail_exact:
            continue
        need = problem.t_order - pde.M + term.t_derivative
        if term.coeff.t_order < need:
            trunc_msgs.append(
                f"term (j={term.t_derivative}, alpha={term.z_derivatives}) "
                f"coefficient truncated at {term.coeff.t_order} < {need}"
            )
    if not problem.rhs.tail_exact and problem.rhs.t_order < problem.t_order - pde.M:
        trunc_msgs.append(
            f"rhs truncated at {problem.rhs.t_order} < "
            f"{problem.t_order - pde.M}"
        )
    check("structure.coefficient_truncation", not trunc_msgs,
          "coefficient data reaches the requested t-order"
          if not trunc_msgs else "; ".join(trunc_msgs))

    if pde.s0 == 0:
        warnings.append(
            "s0 = 0: the polygon definition asks for positive orders; "
            "accepted here (needed for q-difference operators), slopes "
            "involving the t-order then carry no s0 weight"
        )

    # a table's declared order, which the polygon reads, against its values
    named = [("moment.t", pde.m0)] + [
        (f"moment.z[{i}]", seq) for i, seq in enumerate(pde.m)]
    for name, seq in named:
        fit = seq.fitted_order() if seq.kind == "table" else None
        if fit is not None and abs(fit - seq.order) > TABLE_ORDER_TOLERANCE:
            warnings.append(
                f"{name}: the table's values fit order {fit:.2f} over their "
                f"upper half, not the declared {seq.order} (tolerance "
                f"{TABLE_ORDER_TOLERANCE}); the Newton polygon and 1/k1 use "
                "the declared order"
            )

    return ValidationReport(checks, warnings)
