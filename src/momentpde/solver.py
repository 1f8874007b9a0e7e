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

The residual check re-applies the operator through an independent code path
(convolution in pde.apply) and must vanish identically in exact mode; a
non-zero exact residual raises SolveError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .pde import CauchyProblem, ValidationError, ValidationReport, validate
from .series import Exponents, PolySeries, TimeSeries


class SolveError(ValueError):
    """Inconsistent initial data or a non-zero exact residual found while solving."""


@dataclass
class FormalSolution:
    coefficients: TimeSeries
    q_table: dict[tuple, int]
    valid_t_order: int
    provenance: dict
    validation: ValidationReport
    residual_max: Optional[object] = None

    def coefficient(self, n: int) -> PolySeries:
        return self.coefficients.coefficient(n)

    @property
    def t_order(self) -> int:
        return self.coefficients.t_order

    def fully_valid(self) -> bool:
        return self.valid_t_order == self.t_order

    def validity_report(self) -> list[dict]:
        """Per-n validity vectors; None marks exact-to-all-degrees."""
        return [
            {
                "n": n,
                "valid": list(self.coefficients.entries[n].valid),
                "trusted": n <= self.valid_t_order,
            }
            for n in range(self.t_order + 1)
        ]


def solve(problem: CauchyProblem, *, compute_residual: bool = True) -> FormalSolution:
    """Run the recurrence up to the problem's t-order.

    When initial data is a truncated expansion, validity degrees shrink as
    derivatives spend them; once a coefficient runs out of trusted degrees
    the solution is marked partially valid (never an error) and later
    entries stay flagged.  In exact mode a non-zero residual raises
    SolveError.
    """
    report = validate(problem)
    if not report.passed:
        raise ValidationError(report)
    pde = problem.pde
    m0 = pde.m0
    M = pde.M
    nmax = problem.t_order

    u: list[PolySeries] = []
    for j in range(M):
        u.append(problem.initial[j].scale(1 / m0.value(j)))

    derived: dict[tuple[int, Exponents], PolySeries] = {}

    def dz(i: int, alpha: Exponents) -> PolySeries:
        key = (i, alpha)
        if key not in derived:
            derived[key] = pde.derive_z(u[i], alpha)
        return derived[key]

    for n in range(M, nmax + 1):
        acc = problem.rhs.coefficient(n - M)  # t^n coefficient of t^M f
        for term in pde.terms:
            j = term.t_derivative
            alpha = term.z_derivatives
            q = term.q(M)
            for p in range(q, n + 1):
                if n - p - j < 0:
                    continue  # the weight m0(n-p)/m0(n-p-j) disappears
                a_p = term.coeff.coefficient(p - M + j)
                if a_p.is_zero():
                    continue
                weight = m0.value(n - p) / m0.value(n - p - j)
                part = a_p.multiply(dz(n - p, alpha)).scale(weight)
                acc = acc.sub(part)
        u.append(acc.scale(m0.value(n - M) / m0.value(n)))

    coefficients = TimeSeries(u, tail_exact=False)

    valid_t_order = nmax
    for n, entry in enumerate(u):
        if entry.is_exhausted():
            valid_t_order = n - 1
            break

    _assert_initial_conditions(problem, coefficients)

    solution = FormalSolution(
        coefficients=coefficients,
        q_table=pde.q_table(),
        valid_t_order=valid_t_order,
        provenance={
            "t_order": nmax,
            "z_caps": list(problem.z_caps),
            **problem.backend.describe(),
        },
        validation=report,
    )
    if compute_residual:
        solution.residual_max = residual(problem, solution)
        if problem.backend.exact and solution.residual_max != 0:
            raise SolveError(
                f"exact residual is {solution.residual_max}, not 0: the "
                "recurrence and the operator disagree"
            )
    return solution


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
    restricted to the trusted z-region.  Exactly zero in rational mode."""
    pde = problem.pde
    applied = pde.apply(solution.coefficients)
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
