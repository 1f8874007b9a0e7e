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

One recurrence serves both backends.  It stores u_n = N_n / d_n, with N_n a
PolySeries and d_n one positive int per t-order: in exact mode N_n holds
ints, in big float it holds the values and d_n = 1.  The initial data give
N_j / d_j = phi_j / m0(j), over the least common denominator of phi_j's
values in exact mode.  A step forms, once per (n-p, alpha), D_z^alpha
u_{n-p} as numerators over one denominator, in one pass over the keys per
moving axis i (alpha_i != 0): a key g with g_i >= alpha_i moves to
g_i - alpha_i and its numerator is multiplied by that entry of the
order-alpha_i multiplier list (moments module docstring).  Where the list's
entries up to the keys' top degree hold a Fraction, they are taken over the
lcm of their denominators, which goes into the derivative's denominator; a
big-float list holds mpfs and is read as it is.  A two-variable key moves
as the unpacked pair (g0 - a, g1) or (g0, g1 - a), as series.shift_within
shifts one.  Every N_n is stored in ascending key order: the initial
numerators are sorted once, a step whose sum merged more than one group
sorts it, and a step with one group keeps that group's order.  Such a group
is the sorted forced term or a shift of a derivative of a sorted N_i, and a
derivative or a shift moves every kept key by one vector, which keeps the
order.  So every derivative the residual check multiplies arrives sorted
(series module docstring).  The exponent beta of a_p is a plain index
shift, and the factor c = -a_{p,beta} * [m0(n-M)/m0(n)] *
[m0(n-p)/m0(n-p-j)] over the derivative's denominator is shared by the
whole (term, p, beta) part, so the work per coefficient is one product per
key.  A part is trusted up to the componentwise minimum of valid(a_p) and
valid(u_{n-p}) - alpha, as in the kernels, and u_n up to the minimum over
its parts and f_n.  Each part and f_n are cut to that limit by
series.shift_within, which tests a key only on the axes where its shift by
beta can pass the limit, before the shifted key is built.

In exact mode the parts are summed on ints over the lcm of the factors'
denominators, the sum starting from the first part's products, and the
content is divided out by one gcd, so no prime divides d_n and all of u_n's
numerators.  For each prime power in d_n some u_n(gamma) then keeps it in
its reduced denominator: d_n is the lcm of the reduced denominators of u_n,
the least denominator u_n can be stored over.  So whichever denominators a
step passes through, d_n and the N_n come out the same.  The writer, and
the Nagumo profile and l1 norms wherever the norm is exact, read (N_n, d_n)
as they are; FormalSolution.coefficient builds the values of one u_n for a
caller that wants them.  In big float each u_n(gamma) is one rounding of
the sum of its key's exact products c * x (what the context's fdot
computes), and a lone product is rounded once; its rounding is part of the
recorded output.  The ratio m0(n-p)/m0(n-p-j) is taken only for j > 0, as
an mpf (lead * m0(i)) / m0(i) is not lead.  The big-float recurrence runs
raw (series module docstring), on the arithmetic read off a derivative's
first numerator and off a sum's first factor: between its steps a value is
its `_mpf_` tuple, and it is wrapped into an mpf once, where N_n stores it.
A derivative's pass multiplies with backends.MpfArith.mul, the mpf
operator's rounding without its dispatch, and keeps the tuples; the forced
term and the initial data enter _summed as tuples too.
_summed wraps each value: a step of one group is one MpfArith.scaled, of
several one MpfArith.sums.

The residual check re-applies the operator through pde.apply and must
vanish identically in exact mode.  In both backends the check is
independent of the recurrence because _integer_step enumerates P's parts on
its own and differentiates through its own multiplier-list pass: were it to
share P's walk, a wrong t-index range would make the recurrence and the
oracle agree on the wrong operator.  Both sides cut keys to a validity
through the one truncation helper series.shift_within, which the kernels
also use: it is a rule on keys and validities, not part of P's walk, and
the tests pin it against the per-key test of every axis.  In exact mode the
check puts the whole checked stack over one integer scale: D is the lcm of
d_0..d_T and of the denominators of f_0..f_{T-M}, and the unchanged
pde.apply gets the int-valued stack D * u_n = N_n * (D / d_n).  Since each
d_n is the lcm of u_n's reduced denominators, D is the least common
denominator of every value in the checked stack.  Each (P D u)_n is
compared with D * f_n on the trusted region, and the residual is the l1
norm over D.  P is linear, so P (D u) = D * P u and the number is the one
the plain u values give.  The kernels apply integral multipliers as ints
(series module docstring), and pde.apply keeps an int-valued stack on ints
for rational coefficients as well as integral ones (its docstring).  So the
check runs on ints wherever the moment ratios are integers, and with f = 0
a correct solution builds no Fraction per coefficient.  A non-zero exact
residual raises SolveError naming the first (n, gamma) where (P u)_n !=
f_n.  The big-float backend applies P to its u values as they are.  That
residual is an absolute l1 number and is not gated; it shows rounding, and
a wrong operator or derivative on either side, as the two sides share no
walk over P.

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
from fractions import Fraction
from typing import Optional

from .backends import mpf_arith, unlimited_int_digits
from .moments import MomentSequence
from .pde import CauchyProblem, ValidationError, ValidationReport, validate
from .series import (
    Exponents,
    PolySeries,
    TimeSeries,
    Validity,
    cleared,
    min_validity,
    shift_within,
)


class SolveError(ValueError):
    """Inconsistent initial data or a non-zero exact residual found while solving."""


class FormalSolution:
    """u_n = coefficients_n / denominators[n]: in exact mode int numerators
    over the content-reduced d_n, in big-float mode the values over 1
    (module docstring)."""

    __slots__ = ("coefficients", "denominators", "valid_t_order",
                 "validation", "residual_max")

    def __init__(self, coefficients: TimeSeries, denominators: tuple[int, ...],
                 valid_t_order: int, validation: ValidationReport,
                 residual_max: Optional[object] = None):
        self.coefficients = coefficients
        self.denominators = denominators
        self.valid_t_order = valid_t_order
        self.validation = validation
        self.residual_max = residual_max  # set by solve(), always

    def coefficient(self, n: int) -> PolySeries:
        """u_n, with its values built here when d_n is not 1."""
        entry = self.coefficients.coefficient(n)
        d = self.denominators[n]
        if d == 1:
            return entry
        return PolySeries._trusted(entry.num_vars, {
            g: Fraction(x, d) for g, x in entry.coeffs.items()}, entry.valid)

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
    u, denominators = _integer_recurrence(problem)
    valid_t_order = problem.t_order
    for n, entry in enumerate(u):
        if entry.is_exhausted():
            valid_t_order = n - 1
            break

    solution = FormalSolution(
        coefficients=TimeSeries(u, tail_exact=False),
        denominators=tuple(denominators),
        valid_t_order=valid_t_order,
        validation=report,
    )
    _assert_initial_conditions(problem, solution)
    solution.residual_max = residual(problem, solution)
    if problem.backend.exact and solution.residual_max != 0:
        raise SolveError(_mismatch_message(problem, solution))
    return solution


def _mismatch_message(problem: CauchyProblem, solution: FormalSolution) -> str:
    """Name the first (n, gamma) where (P u)_n != f_n, then the residual,
    printed with no limit on their digits (backends.unlimited_int_digits)."""
    scale, differences = _differences(problem, solution)
    n, diff = next((n, diff) for n, diff in differences if not diff.is_zero())
    gamma = min(diff.coeffs)
    with unlimited_int_digits():
        return (
            f"(P u)_{n} - f_{n} is {Fraction(diff.coeffs[gamma], scale)} at "
            f"gamma={gamma}, the first non-zero coefficient; exact residual "
            f"is {solution.residual_max}, not 0: the recurrence and the "
            "operator disagree"
        )


def _reduced(nums: dict, den: int) -> tuple[dict, int]:
    """nums / den with the content of den and every numerator divided out;
    nums as they are over den = 1, the only denominator in big float."""
    if den == 1:
        return nums, 1
    content = math.gcd(den, *nums.values())
    if content != 1:
        nums = {g: x // content for g, x in nums.items()}
    return nums, den // content


def _summed(groups: list, backend) -> tuple[dict, int]:
    """The sum over the groups (c, [(gamma, x)]) of c * x per key, as
    (numerators in ascending key order, denominator), content-reduced: in
    exact mode the c are taken over the lcm of their denominators and the
    sum runs on ints; in big float the x are `_mpf_` tuples and each value
    is one rounding of its key's pairs, wrapped into an mpf, over 1 (module
    docstring)."""
    common = 1
    if backend.exact:
        common = math.lcm(*(c.denominator for c, _ in groups))
        groups = [(c.numerator * (common // c.denominator), items)
                  for c, items in groups]
    (c, items), *rest = groups
    # a group's keys are distinct, in ascending order, and its values
    # non-zero, so one group needs no zero filter and no sort
    if not rest:
        arith = mpf_arith(c)
        if arith is None:
            return _reduced({gamma: c * x for gamma, x in items}, common)
        return arith.scaled(c, items), 1  # raw (module docstring)
    if not backend.exact:
        return mpf_arith(c).sums(groups), 1
    acc = {gamma: c * x for gamma, x in items}
    for c, items in rest:
        for gamma, x in items:
            acc[gamma] = acc.get(gamma, 0) + c * x
    return _reduced({g: x for g, x in sorted(acc.items()) if x}, common)


def _numerators(items, exact: bool) -> tuple[list, int]:
    """Sorted (gamma, value) pairs as _summed reads them: in exact mode
    ints over the least common denominator of the values, in big float the
    values' `_mpf_` tuples over 1."""
    return cleared(items) if exact else ([(g, x._mpf_) for g, x in items], 1)


def _lowered(valid: Validity, alpha: Exponents) -> Validity:
    """valid(D_z^alpha f) from valid(f)."""
    return tuple(None if v is None else v - a for v, a in zip(valid, alpha))


def _derive(seqs: tuple[MomentSequence, ...], nums: dict,
            alpha: Exponents) -> tuple[list, int]:
    """D_z^alpha of numerators as ([(gamma, numerator)], one int
    denominator), one pass per moving axis i: the keys with gamma_i >=
    alpha_i move to gamma_i - alpha_i and are multiplied by that entry of
    the order-alpha_i multiplier list.  The list is filled to the top degree
    of the keys the earlier axes kept, as moment_derive's chain of one-axis
    passes fills it.  A list holding a Fraction up to there is taken over
    the lcm of its denominators, which goes into the derivative's.  Of mpf
    values the numerators are `_mpf_` tuples, which _summed reads (module
    docstring)."""
    items = list(nums.items())
    keys = nums  # the keys kept by the axes passed so far
    den = 1
    arith = mpf_arith(items[0][1]) if items else None
    if arith is not None:  # raw (module docstring)
        mul = arith.mul
        if len(alpha) > 1 or not alpha[0]:  # else its one pass reads them
            items = [(g, x._mpf_) for g, x in items]
    for i, a in enumerate(alpha):
        if not a:
            continue
        top = max(map(operator.itemgetter(i), keys), default=-1)
        if top < a:
            return [], 1
        table = seqs[i].multipliers(a, top)[:top - a + 1]
        if arith is not None:
            table = [r._mpf_ for r in table]
        elif Fraction in map(type, table):
            scale = math.lcm(*(r.denominator for r in table))
            table = [r.numerator * (scale // r.denominator) for r in table]
            den *= scale
        if arith is not None and len(alpha) == 1:
            items = [((g - a,), mul(x._mpf_, table[g - a]))
                     for (g,), x in items if g >= a]
        elif arith is not None:
            items = [(g[:i] + (g[i] - a,) + g[i + 1:], mul(x, table[g[i] - a]))
                     for g, x in items if g[i] >= a]
        elif len(alpha) == 1:
            items = [((g[0] - a,), x * table[g[0] - a])
                     for g, x in items if g[0] >= a]
        elif len(alpha) == 2 and i == 0:  # unpacked, as shift_within
            items = [((g0 - a, g1), x * table[g0 - a])
                     for (g0, g1), x in items if g0 >= a]
        elif len(alpha) == 2:
            items = [((g0, g1 - a), x * table[g1 - a])
                     for (g0, g1), x in items if g1 >= a]
        else:
            items = [(g[:i] + (g[i] - a,) + g[i + 1:], x * table[g[i] - a])
                     for g, x in items if g[i] >= a]
        keys = map(operator.itemgetter(0), items)
    return items, den


def _integer_recurrence(problem: CauchyProblem
                        ) -> tuple[list[PolySeries], list[int]]:
    """The recurrence of both backends (module docstring): the N_n, int
    numerators in exact mode and the values in big float, and the d_n."""
    pde = problem.pde
    m0 = pde.m0
    exact = problem.backend.exact
    numerators: list[PolySeries] = []
    denominators: list[int] = []
    for j, phi in enumerate(problem.initial):
        items, den = _numerators(sorted(phi.coeffs.items()), exact)
        nums, den = _summed([(1 / (den * m0.value(j)), items)],
                            problem.backend)
        numerators.append(PolySeries._trusted(pde.num_vars, nums, phi.valid))
        denominators.append(den)

    derived: dict[tuple[int, Exponents], tuple[list, int, Validity]] = {}

    def derivative(i: int, alpha: Exponents) -> tuple[list, int, Validity]:
        """D_z^alpha u_i as ([(gamma, numerator)], denominator, validity)."""
        d = derived.get((i, alpha))
        if d is None:
            items, den = _derive(pde.m, numerators[i].coeffs, alpha)
            d = derived[i, alpha] = (items, den * denominators[i],
                                     _lowered(numerators[i].valid, alpha))
        return d

    for n in range(pde.M, problem.t_order + 1):
        entry, den = _integer_step(problem, derivative, n)
        numerators.append(entry)
        denominators.append(den)
    return numerators, denominators


def _integer_step(problem: CauchyProblem, derivative, n: int
                  ) -> tuple[PolySeries, int]:
    """(N_n, d_n) from the derivatives of u_0 .. u_{n-1}, content-reduced.
    It enumerates P's parts itself, not through pde.apply: it is the side
    of the residual check that must not share the operator's walk."""
    pde = problem.pde
    m0 = pde.m0
    M = pde.M
    lead = m0.value(n - M) / m0.value(n)
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
            items, den, src_valid = derivative(n - p, alpha)
            valid = min_validity(min_validity(valid, a_p.valid), src_valid)
            # m0(n-p)/m0(n-p-j) is an exact 1 for j = 0, also in big float
            ratio = m0.value(n - p) / m0.value(n - p - j) if j else 1
            parts.append((a_p.coeffs, lead * ratio / den, items, src_valid))

    # every group is (rational or mpf factor c, [(gamma, numerator)])
    groups = []
    forced = shift_within(sorted(rhs.coeffs.items()), (0,) * pde.num_vars,
                          rhs.valid, valid)
    if forced:
        items, den = _numerators(forced, problem.backend.exact)
        groups.append((lead / den, items))
    for a_coeffs, shared, items, src_valid in parts:
        for beta, a in a_coeffs.items():
            groups.append((-a * shared,
                           shift_within(items, beta, src_valid, valid)))
    if not groups:
        return PolySeries._trusted(pde.num_vars, {}, valid), 1
    nums, den = _summed(groups, problem.backend)
    return PolySeries._trusted(pde.num_vars, nums, valid), den


def _assert_initial_conditions(problem: CauchyProblem,
                               solution: FormalSolution):
    """Re-check D_t^j u (0, z) = phi_j by evaluating the derivative's t^0
    coefficient, u_j * m0(j), on the values of u_j in both backends."""
    m0 = problem.pde.m0
    for j in range(problem.pde.M):
        recovered = solution.coefficient(j).scale(m0.value(j))
        if not _close(recovered, problem.initial[j], problem.backend):
            raise SolveError(
                f"initial condition {j} not reproduced by the solution"
            )


def _close(a: PolySeries, b: PolySeries, backend) -> bool:
    if backend.exact:
        return a == b  # on the common valid region, as a.sub(b) compares
    diff = a.sub(b)
    tol = backend.residual_tolerance
    one = backend.scalar(1)
    scale = b.ell1_norm(one) + one
    return diff.ell1_norm(one) <= tol * scale


def residual(problem: CauchyProblem, solution: FormalSolution):
    """max over checkable t-orders of ||coefficient_n(P u - f)||_1 at r = 1,
    restricted to the trusted z-region.  Exactly zero in rational mode.
    Raises SolveError when a validity of u disagrees with the operator's
    (module docstring)."""
    scale, differences = _differences(problem, solution)
    worst = problem.backend.scalar(0)
    for _, diff in differences:
        value = diff.ell1_norm(1)
        if value > worst:
            worst = value
    return Fraction(worst, scale) if problem.backend.exact else worst


def _differences(problem: CauchyProblem, solution: FormalSolution):
    """(D, iterator of (n, D * ((P u)_n - f_n))) over the checkable t-orders
    whose difference keeps a trusted region; the iterator raises SolveError
    at the first n where the difference's validity is not u_{n+M}'s.

    In exact mode D is the lcm of d_0..d_T and of the denominators of
    f_0..f_{T-M}, and pde.apply gets the int-valued stack
    N_n * (D / d_n) = D * u_n (module docstring); in big-float mode D = 1
    and the u values go in as they are.
    """
    pde = problem.pde
    u = solution.coefficients
    rhs = [problem.rhs.coefficient(n)
           for n in range(min(u.t_order, problem.t_order) - pde.M + 1)]
    scale = 1
    if problem.backend.exact:
        scale = math.lcm(*solution.denominators,
                         *(v.denominator for f_n in rhs
                           for v in f_n.coeffs.values()))
        u = TimeSeries([entry.scale(scale // d) for entry, d
                        in zip(u.entries, solution.denominators)], u.tail_exact)
        rhs = [PolySeries._trusted(f_n.num_vars, dict(
            cleared(f_n.coeffs.items(), scale)[0]), f_n.valid) for f_n in rhs]
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
