"""Helpers shared by several test modules."""

from __future__ import annotations

from momentpde import CauchyProblem, SolveError


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
        rhs=problem_a.rhs.add(problem_b.rhs),
        initial=[
            pa.add(pb) for pa, pb in zip(problem_a.initial, problem_b.initial)
        ],
        t_order=min(problem_a.t_order, problem_b.t_order),
        z_caps=problem_a.z_caps,
        backend=problem_a.backend,
        estimation=problem_a.estimation,
    )
