"""Helpers shared by several test modules."""

from __future__ import annotations

import math
from fractions import Fraction

from momentpde import (
    CauchyProblem,
    DimensionMismatch,
    FormalSolution,
    PolySeries,
    SolveError,
    TimeSeries,
)
from momentpde.backends import log_scalar


def add_time_series(a: TimeSeries, b: TimeSeries) -> TimeSeries:
    """a + b, kept to the shorter range of a truncated operand; the sum is
    tail_exact only when both operands are."""
    if a.num_vars != b.num_vars:
        raise DimensionMismatch("variable count mismatch")
    hi = max(a.t_order, b.t_order)
    if not (a.tail_exact and b.tail_exact):
        hi = min(
            a.t_order if not a.tail_exact else hi,
            b.t_order if not b.tail_exact else hi,
        )
    out = [a.coefficient(n).add(b.coefficient(n)) for n in range(hi + 1)]
    return TimeSeries(out, a.tail_exact and b.tail_exact)


def linear_combination_solution(problem_a: CauchyProblem,
                                problem_b: CauchyProblem) -> CauchyProblem:
    """The superposed problem (f_a + f_b, phi_a + phi_b) over the same operator.

    Solving it must agree coefficient-wise with the sum of the separate
    solutions; used by the linearity tests.
    """
    if problem_a.pde is not problem_b.pde:
        raise SolveError("superposition needs a shared operator")
    return CauchyProblem(
        pde=problem_a.pde,
        rhs=add_time_series(problem_a.rhs, problem_b.rhs),
        initial=[
            pa.add(pb) for pa, pb in zip(problem_a.initial, problem_b.initial)
        ],
        t_order=min(problem_a.t_order, problem_b.t_order),
        z_caps=problem_a.z_caps,
        backend=problem_a.backend,
        estimation=problem_a.estimation,
    )


def with_values(problem: CauchyProblem, solution: FormalSolution,
                values) -> FormalSolution:
    """The solution with the t-coefficients u_n = values[n], each stored as
    solve stores it: in exact mode int numerators over the least common
    denominator of its values, in big-float mode the values over 1."""
    numerators = []
    denominators = []
    for entry in values:
        den = 1
        if problem.backend.exact:
            den = math.lcm(*(v.denominator for v in entry.coeffs.values()))
            entry = PolySeries(entry.num_vars, {
                g: v.numerator * (den // v.denominator)
                for g, v in entry.coeffs.items()}, entry.valid)
        numerators.append(entry)
        denominators.append(den)
    return FormalSolution(
        TimeSeries(numerators, solution.coefficients.tail_exact),
        tuple(denominators), solution.valid_t_order, solution.validation)


def fraction_residual(problem: CauchyProblem, solution: FormalSolution):
    """The residual through pde.apply on the solution's own values: max over
    checkable t-orders of ||coefficient_n(P u - f)||_1 at r = 1 on the
    trusted region, with no common integer scale.  The reference for
    solver.residual."""
    pde = problem.pde
    values = [solution.coefficient(n) for n in range(solution.t_order + 1)]
    applied = pde.apply(TimeSeries(values, solution.coefficients.tail_exact))
    one = problem.backend.one()
    worst = problem.backend.zero()
    top = min(applied.t_order, problem.t_order - pde.M)
    for n in range(top + 1):
        diff = applied.coefficient(n).sub(problem.rhs.coefficient(n))
        if diff.is_exhausted():
            continue
        value = diff.ell1_norm(one)
        if value > worst:
            worst = value
    return worst


def recurrence_reference(problem: CauchyProblem) -> list[PolySeries]:
    """u_0 .. u_T from pde.apply alone: u_j = phi_j / m0(j), and u_n =
    m0(n-M)/m0(n) * (f_{n-M} - (P u)_{n-M}), with P applied to the stack
    u_0 .. u_{n-1}, 0, since the principal part is the only part of
    (P u)_{n-M} that reads u_n.  The reference for the solver's
    recurrence."""
    pde = problem.pde
    m0 = pde.m0
    M = pde.M
    u = [phi.scale(1 / m0.value(j)) for j, phi in enumerate(problem.initial)]
    for n in range(M, problem.t_order + 1):
        parts = pde.apply(TimeSeries(u + [PolySeries.zero(pde.num_vars)]))
        u.append(problem.rhs.coefficient(n - M).sub(
            parts.coefficient(n - M)).scale(m0.value(n - M) / m0.value(n)))
    return u


def support(f: PolySeries) -> list:
    """The exponents of f's stored coefficients, in ascending order."""
    return sorted(f.coeffs)


def equal_on_common_region(f: PolySeries, g: PolySeries) -> bool:
    """f == g by its definition: at every key within both validities, the
    stored values agree, a key stored on one side only against 0."""
    if f.num_vars != g.num_vars:
        return False
    for key in set(f.coeffs) | set(g.coeffs):
        inside = all(v is None or k <= v
                     for valid in (f.valid, g.valid)
                     for k, v in zip(key, valid))
        if inside and f.coeffs.get(key, 0) != g.coeffs.get(key, 0):
            return False
    return True


def evaluate(f: PolySeries, point) -> complex:
    """f at a point (complex allowed) in double precision."""
    point = tuple(point)
    if len(point) != f.num_vars:
        raise DimensionMismatch("point arity mismatch")
    total = 0j
    for exponents in support(f):
        term = complex(f.coeffs[exponents])
        for z, g in zip(point, exponents):
            if g:
                term *= complex(z) ** g
        total += term
    return total


def least_squares_reference(columns, target) -> list[float]:
    """The exact least-squares solution of columns . c ~ target, by
    Gauss-Jordan elimination of the normal equations over Fractions of the
    given doubles, each coefficient rounded once.  The reference for
    estimate_order."""
    cols = [[Fraction(v) for v in col] for col in columns]
    y = [Fraction(v) for v in target]
    size = len(cols)
    rows = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols]
            + [sum(a * b for a, b in zip(ci, y))] for ci in cols]
    for k in range(size):
        pivot = next(i for i in range(k, size) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(size):
            if i != k and rows[i][k] != 0:
                factor = rows[i][k]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return [float(row[-1]) for row in rows]


def _log(x) -> float:
    """log x, to a double's relative precision also near x = 1 when x is
    exact: the log1p of the exact x - 1."""
    if isinstance(x, (int, Fraction)) and abs(x - 1) < 1:
        return math.log1p(float(x - 1))
    return log_scalar(x)


def ratio_order(norms, order: int = 4, spread: float = 1e-3
                ) -> tuple[float, bool]:
    """The growth order s of norms v_n ~ C A^n n!^s n^kappa (1 + c/n + ...)
    by the ratio method (Domb and Sykes, Proc. R. Soc. A 240 (1957) 214).

    The second log-ratios s_n = log(v_{n+h} v_{n-h} / v_n^2) divided by
    log((n+h)! (n-h)! / n!^2) tend to s with corrections in powers of 1/n,
    which Richardson extrapolation in 1/n over the last k + 1 of them
    removes up to order k: that is R_k.  The step h is the period of the
    non-zero norms, the gcd of the gaps between their indices.  Where the
    three norms are exact the ratio is an exact Fraction and its one log is
    taken as log1p of ratio - 1; otherwise it is a sum of double logs.
    Returns R_order and whether R_2 .. R_order lie within spread of each
    other, the test that the extrapolation converges.  The reference for
    the growth order where the polygon bound is sharp.
    """
    indices = [n for n, v in enumerate(norms) if v > 0]
    h = 0
    for a, b in zip(indices, indices[1:]):
        h = math.gcd(h, b - a)
    top = indices[-1]
    points = []  # (n, s_n) for n = top - h, top - 2h, ..., top - (order + 1)h
    for n in range(top - h, top - (order + 2) * h, -h):
        above, here, below = norms[n + h], norms[n], norms[n - h]
        if all(isinstance(v, (int, Fraction)) for v in (above, here, below)):
            log_ratio = _log(Fraction(above * below) / (here * here))
        else:
            log_ratio = (log_scalar(above) + log_scalar(below)
                         - 2 * log_scalar(here))
        factorials = Fraction(math.factorial(n + h) * math.factorial(n - h),
                              math.factorial(n) ** 2)
        points.append((n, log_ratio / _log(factorials)))
    extrapolants = []
    for k in range(order + 1):
        # the value at 1/n = 0 of the degree-k polynomial in 1/n through the
        # last k + 1 points (Lagrange weights, exact)
        last = points[:k + 1]
        extrapolants.append(math.fsum(
            float(math.prod(Fraction(n_j, n_j - n_i)
                            for n_i, _ in last if n_i != n_j)) * s_j
            for n_j, s_j in last))
    tail = extrapolants[2:]
    return extrapolants[-1], max(tail) - min(tail) <= spread
