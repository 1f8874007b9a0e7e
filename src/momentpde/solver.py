"""Formal power-series solver for moment PDE Cauchy problems.

Writing the solution as a plain stack u(t,z) = sum of u_n(z) t^n, the
initial data fix u_j = phi_j / m0(j) for j < M, and comparing t-coefficients
of P u = f gives, for n >= M,

    u_n = (m0(n-M)/m0(n)) * [ f_n
          - sum over terms, sum over p from q to n of
            a_{j,alpha,p} * (m0(n-p)/m0(n-p-j)) * D_z^alpha u_{n-p} ],

where f_n is the t^n coefficient of t^M f, a_{j,alpha,p} the t^p coefficient
of t^(M-j) a_{j,alpha}, q = ord_t(a) - j + M, and a summand is dropped
whenever n - p - j < 0.  Since q >= 1 for every validated term, the
recurrence only consumes earlier u's.

In exact mode the recurrence runs on the moment-normalised coefficients
w_n(gamma) = m0(n) * m(gamma) * u_n(gamma), with m(gamma) the product of the
z-sequences m_i(gamma_i) over the axes some term differentiates (the other
axes keep weight 1).  A moment derivative is a plain index shift on w, so
the step becomes

    w_n(gamma) = m0(n-M) * m(gamma) * f_n(gamma)
                 - sum over terms, p and the exponents beta of a_p of
                   a_{p,beta} * [m0(n-M)/m0(n-p-j)] * [m(gamma)/m(gamma-beta)]
                   * w_{n-p}(gamma - beta + alpha),

with w_j = m(gamma) * phi_j for j < M.  Each w_n is held as int numerators
over one int denominator and reduced by one gcd per step; the rational
factors are shared by a whole (term, p, beta) part, so the work per
coefficient is integer arithmetic.  The weight shift m(gamma)/m(gamma-beta)
is read from the z-sequences' own multiplier lists (moments module
docstring): on each axis i with beta_i > 0 it is entry gamma_i - beta_i of
the order-beta_i list, fetched once per (term, p, beta) part and indexed
per coefficient.  A part is trusted up to the componentwise minimum of
valid(a_p) and valid(w_{n-p}) - alpha, as in the u-basis kernels, and
u_n = w_n / (m0(n) m(gamma)) is formed once, as reduced Fractions, for
the output, the norms and the residual.  The big-float backend keeps the
u-basis loop: its rounding after every kernel is part of its recorded
output, and the normalised weights would round differently.  That loop is
P's own walk solved for u_n: the parts of (P u)_{n-M} that MomentPDE.parts
yields, formed by MomentPDE.part_former as pde.apply forms them, are
subtracted from f_n and the sum is scaled by m0(n-M)/m0(n).

The residual check re-applies the operator through pde.apply, in the u
basis, and must vanish identically in exact mode.  The gated exact check is
independent of the recurrence because _normalised_step enumerates P's parts
on its own: were it to share P's walk, a wrong t-index range would make the
recurrence and the oracle agree on the wrong operator.  In exact mode the
check puts the whole checked stack over one integer scale: with D the lcm
of every denominator in u_0..u_T and f_0..f_{T-M}, the unchanged pde.apply
gets the int-valued stack N_n = D * u_n, each (P N)_n is compared with
D * f_n on the trusted region, and the residual is the l1 norm over D.  P is
linear, so P N = D * P u and the number is the one the plain u values give;
since the kernels apply integral multipliers as ints (series module
docstring), the check runs on ints wherever the moment ratios are integers,
and builds no Fraction per coefficient there.  A non-zero exact residual
raises SolveError naming the first (n, gamma) where (P u)_n != f_n.  The
big-float backend applies P to its u values as they are; its loop shares
P's walk, so that residual shows rounding, and the tests check the loop
against the exact recurrence.

A wrong validity leaves the values self-consistent, so the residual cannot
see it; the check compares validities as well.  P's principal part passes
u_{n+M}'s validity through, and every other part of (P u)_n is one of the
parts whose minimum the recurrence took, so valid((P u)_n - f_n) must equal
valid(u_{n+M}) at every n from 0 to T-M.  An over-claimed validity makes
the left side the smaller one and raises SolveError naming n and both
vectors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .moments import MomentSequence
from .pde import CauchyProblem, ValidationError, ValidationReport, validate
from .series import (
    Exponents,
    PolySeries,
    TimeSeries,
    Validity,
    key_limit,
    min_validity,
)


class SolveError(ValueError):
    """Inconsistent initial data or a non-zero exact residual found while solving."""


@dataclass
class FormalSolution:
    coefficients: TimeSeries
    valid_t_order: int
    validation: ValidationReport
    residual_max: Optional[object] = None  # set by solve(), always

    def coefficient(self, n: int) -> PolySeries:
        return self.coefficients.coefficient(n)

    @property
    def t_order(self) -> int:
        return self.coefficients.t_order


def solve(problem: CauchyProblem) -> FormalSolution:
    """Run the recurrence up to the problem's t-order.

    When initial data is a truncated expansion, validity degrees shrink as
    derivatives spend them; once a coefficient runs out of trusted degrees
    the solution is marked partially valid (never an error) and later
    entries stay flagged.  The residual is always checked and kept in
    residual_max: in exact mode a non-zero residual raises SolveError, and
    in both modes so does a validity the operator does not reproduce.
    """
    report = validate(problem)
    if not report.passed:
        raise ValidationError(report)
    nmax = problem.t_order
    if problem.backend.exact:
        u = _normalised_recurrence(problem)
    else:
        u = _recurrence(problem)

    coefficients = TimeSeries(u, tail_exact=False)

    valid_t_order = nmax
    for n, entry in enumerate(u):
        if entry.is_exhausted():
            valid_t_order = n - 1
            break

    _assert_initial_conditions(problem, coefficients)

    solution = FormalSolution(
        coefficients=coefficients,
        valid_t_order=valid_t_order,
        validation=report,
    )
    solution.residual_max = residual(problem, solution)
    if problem.backend.exact and solution.residual_max != 0:
        raise SolveError(_mismatch_message(problem, solution))
    return solution


def _mismatch_message(problem: CauchyProblem, solution: FormalSolution) -> str:
    """Name the first (n, gamma) where (P u)_n != f_n, then the residual."""
    scale, differences = _differences(problem, solution)
    n, diff = next((n, diff) for n, diff in differences if not diff.is_zero())
    gamma = min(diff.coeffs)
    return (
        f"(P u)_{n} - f_{n} is {Fraction(diff.coeffs[gamma], scale)} at "
        f"gamma={gamma}, the first non-zero coefficient; exact residual is "
        f"{solution.residual_max}, not 0: the recurrence and the operator "
        "disagree"
    )


def _recurrence(problem: CauchyProblem) -> list[PolySeries]:
    """The u-basis recurrence: P's walk solved for u_n (module docstring)."""
    pde = problem.pde
    m0 = pde.m0
    M = pde.M
    u = [problem.initial[j].scale(1 / m0.value(j)) for j in range(M)]
    form = pde.part_former(u)
    for n in range(M, problem.t_order + 1):
        acc = problem.rhs.coefficient(n - M)  # t^n coefficient of t^M f
        for part in pde.parts(n - M):
            acc = acc.sub(form(*part))
        u.append(acc.scale(m0.value(n - M) / m0.value(n)))
    return u


class _ZWeights:
    """m(gamma) = prod of m_i(gamma_i), memoised.  An axis given None has
    weight 1."""

    def __init__(self, seqs: tuple[Optional[MomentSequence], ...]):
        self.seqs = seqs
        self._values: dict[Exponents, Fraction] = {}

    def value(self, gamma: Exponents) -> Fraction:
        v = self._values.get(gamma)
        if v is None:
            v = Fraction(1)
            for seq, g in zip(self.seqs, gamma):
                if seq is not None:
                    v *= seq.value(g)
            self._values[gamma] = v
        return v


def _over_common_denominator(values: dict) -> tuple[dict, int]:
    """Rationals as (int numerators, their least common denominator)."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator)
            for k, v in values.items()}, den


def _lowered(valid: Validity, alpha: Exponents) -> Validity:
    """valid(D_z^alpha f) from valid(f)."""
    return tuple(None if v is None else v - a for v, a in zip(valid, alpha))


def _normalised_recurrence(problem: CauchyProblem) -> list[PolySeries]:
    """The exact recurrence on w_n = m0(n) m(gamma) u_n (module docstring),
    returned as the plain coefficients u_n."""
    pde = problem.pde
    m0 = pde.m0
    # An axis that no term differentiates keeps weight 1: the shift property
    # is needed only where a derivative acts, and the plain loop never
    # evaluates such an axis's sequence (a table may be shorter than the data).
    weights = _ZWeights(tuple(
        seq if any(term.z_derivatives[i] for term in pde.terms) else None
        for i, seq in enumerate(pde.m)
    ))

    # w_n as (int numerators, int denominator, validity)
    w: list[tuple[dict, int, Validity]] = []
    for phi in problem.initial:
        nums, den = _over_common_denominator(
            {g: weights.value(g) * v for g, v in phi.coeffs.items()})
        w.append((nums, den, phi.valid))
    for n in range(pde.M, problem.t_order + 1):
        w.append(_normalised_step(problem, weights, w, n))

    # u_n(gamma) = w_n(gamma) / (m0(n) m(gamma)); m(gamma) as its
    # (denominator, numerator) pair, looked up once per gamma
    inverse = {}
    for nums, _, _ in w:
        for gamma in nums.keys() - inverse.keys():
            z_weight = weights.value(gamma)
            inverse[gamma] = (z_weight.denominator, z_weight.numerator)
    u = []
    for n, (nums, den, valid) in enumerate(w):
        t_weight = m0.value(n)
        den *= t_weight.numerator
        if t_weight.denominator != 1:
            nums = {g: x * t_weight.denominator for g, x in nums.items()}
        coeffs = {}
        for gamma, num in nums.items():
            zd, zn = inverse[gamma]
            coeffs[gamma] = Fraction(num if zd == 1 else num * zd, den * zn)
        u.append(PolySeries._trusted(pde.num_vars, coeffs, valid))
    return u


def _normalised_step(problem: CauchyProblem, weights: _ZWeights,
                     w: list[tuple[dict, int, Validity]], n: int
                     ) -> tuple[dict, int, Validity]:
    """w_n from w_0 .. w_{n-1}, content-reduced.  It enumerates P's parts
    itself, not through MomentPDE.parts: as the exact recurrence it is the
    side of the gated residual check that must not share pde.apply's walk."""
    pde = problem.pde
    m0 = pde.m0
    M = pde.M
    lead = m0.value(n - M)
    rhs = problem.rhs.coefficient(n - M)
    valid = rhs.valid
    parts = []
    for term in pde.terms:
        j = term.t_derivative
        alpha = term.z_derivatives
        for p in range(term.q(M), term.coeff.reach(n - M) + M - j + 1):
            a_p = term.coeff.coefficient(p - M + j)
            if a_p.is_zero():
                continue
            nums, den, src_valid = w[n - p]
            valid = min_validity(min_validity(valid, a_p.valid),
                                 _lowered(src_valid, alpha))
            shared = lead / (m0.value(n - p - j) * den)
            parts.append((a_p.coeffs, shared, nums, alpha))

    limit = key_limit(valid)
    # every group is (denominator, int factor, [(gamma, int numerator)])
    groups = []
    forced = {g: lead * weights.value(g) * v for g, v in rhs.coeffs.items()
              if all(map(operator.le, g, limit))}
    if forced:
        nums, den = _over_common_denominator(forced)
        groups.append((den, 1, list(nums.items())))
    for a_coeffs, shared, nums, alpha in parts:
        lowered = []
        for kappa, x in nums.items():
            low = tuple(map(operator.sub, kappa, alpha))
            if min(low) >= 0:
                lowered.append((low, x))
        for beta, a in a_coeffs.items():
            c = -a * shared
            if not any(beta):  # m(gamma)/m(gamma) = 1: no weight to look up
                groups.append((c.denominator, c.numerator, [
                    (low, x) for low, x in lowered
                    if all(map(operator.le, low, limit))]))
                continue
            kept = []
            for low, x in lowered:
                gamma = tuple(map(operator.add, low, beta))
                if all(map(operator.le, gamma, limit)):
                    kept.append((gamma, low, x))
            # m(gamma)/m(low) is the product over the moving axes of entry
            # low_i of the axis's order-b_i multiplier list
            tables = [(i, seq.multipliers(b, max(g[i] for g, _, _ in kept)))
                      for i, (seq, b) in enumerate(zip(weights.seqs, beta))
                      if b and seq is not None and kept]
            items = []
            rden = 1
            for gamma, low, x in kept:
                r = 1
                for i, table in tables:
                    r = r * table[low[i]]
                rd = r.denominator
                if rd != 1:
                    rden = math.lcm(rden, rd)
                items.append((gamma, r.numerator, rd, x))
            groups.append((c.denominator * rden, c.numerator, [
                (g, rn * (rden // rd) * x) for g, rn, rd, x in items]))

    common = math.lcm(*(den for den, _, _ in groups))
    acc: dict[Exponents, int] = {}
    for den, factor, items in groups:
        factor *= common // den
        for gamma, x in items:
            acc[gamma] = acc.get(gamma, 0) + factor * x
    acc = {g: x for g, x in acc.items() if x}
    content = math.gcd(common, *acc.values())
    if content != 1:
        acc = {g: x // content for g, x in acc.items()}
    return acc, common // content, valid


def _assert_initial_conditions(problem: CauchyProblem, u: TimeSeries):
    """Re-check D_t^j u (0, z) = phi_j by evaluating the derivative's t^0
    coefficient, u_j * m0(j), against the given data."""
    m0 = problem.pde.m0
    for j in range(problem.pde.M):
        recovered = u.coefficient(j).scale(m0.value(j))
        if not _close(recovered, problem.initial[j], problem.backend):
            raise SolveError(
                f"initial condition {j} not reproduced by the solution"
            )


def _close(a: PolySeries, b: PolySeries, backend) -> bool:
    diff = a.sub(b)
    if backend.exact:
        return diff.is_zero()
    tol = backend.residual_tolerance
    scale = b.ell1_norm(backend.one()) + backend.one()
    return diff.ell1_norm(backend.one()) <= tol * scale


def residual(problem: CauchyProblem, solution: FormalSolution):
    """max over checkable t-orders of ||coefficient_n(P u - f)||_1 at r = 1,
    restricted to the trusted z-region.  Exactly zero in rational mode.
    Raises SolveError when a validity of u disagrees with the operator's
    (module docstring)."""
    scale, differences = _differences(problem, solution)
    worst = problem.backend.zero()
    for _, diff in differences:
        value = diff.ell1_norm(1)
        if value > worst:
            worst = value
    return Fraction(worst, scale) if problem.backend.exact else worst


def _differences(problem: CauchyProblem, solution: FormalSolution):
    """(D, iterator of (n, D * ((P u)_n - f_n))) over the checkable t-orders
    whose difference keeps a trusted region; the iterator raises SolveError
    at the first n where the difference's validity is not u_{n+M}'s.

    In exact mode D is the lcm of every denominator in u_0..u_T and
    f_0..f_{T-M}, and pde.apply gets the int-valued stack D * u_n (module
    docstring); in big-float mode D = 1 and the u values go in as they are.
    """
    pde = problem.pde
    u = solution.coefficients
    rhs = [problem.rhs.coefficient(n)
           for n in range(min(u.t_order, problem.t_order) - pde.M + 1)]
    scale = 1
    if problem.backend.exact:
        scale = math.lcm(*(v.denominator for entry in (*u.entries, *rhs)
                           for v in entry.coeffs.values()))
        u = TimeSeries([_scaled(entry, scale) for entry in u.entries],
                       u.tail_exact)
        rhs = [_scaled(f_n, scale) for f_n in rhs]
    applied = pde.apply(u)

    def differences():
        for n, f_n in enumerate(rhs):
            diff = applied.coefficient(n).sub(f_n)
            claimed = u.entries[n + pde.M].valid
            if diff.valid != claimed:
                raise SolveError(
                    f"(P u)_{n} - f_{n} is trusted up to valid={list(diff.valid)}"
                    f", but u_{n + pde.M} claims valid={list(claimed)}: the "
                    "recurrence's validity and the operator's disagree"
                )
            if not diff.is_exhausted():
                yield n, diff
    return scale, differences()


def _scaled(entry: PolySeries, scale: int) -> PolySeries:
    """scale * entry as ints; scale is a multiple of every denominator."""
    return PolySeries._trusted(entry.num_vars, {
        g: v.numerator * (scale // v.denominator) for g, v in entry.coeffs.items()
    }, entry.valid)
