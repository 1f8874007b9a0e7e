"""Formal power-series solutions of moment PDE Cauchy problems.

The package solves linear Cauchy problems whose derivatives are generalized
(moment) derivatives driven by Gevrey-type sequences, builds the operator's
Newton polygon to predict the Gevrey order of the formal solution, and
checks that prediction against the measured growth of coefficient norms.
"""

from .backends import (
    BackendError,
    BigFloatBackend,
    PrecisionError,
    RationalBackend,
    make_backend,
    parse_rational,
)
from .estimator import (
    FitError,
    OrderFit,
    TheoremReport,
    alpha0,
    default_window,
    estimate_order,
    verify_theorem,
)
from .moments import (
    FactorialPower,
    GammaSequence,
    MomentSequence,
    ProductSequence,
    QFactorial,
    QuotientSequence,
    SequenceError,
    TableSequence,
)
from .nagumo import (
    NagumoParams,
    ParameterError,
    check_derivative_bound,
    check_shift_bound,
    check_submultiplicative,
    check_sup_bound,
    check_vandermonde,
    lemma_battery,
    nagumo_norm,
    nagumo_profile,
)
from .pde import (
    CauchyProblem,
    EstimationConfig,
    MomentPDE,
    OperatorTerm,
    ValidationError,
    ValidationReport,
    validate,
)
from .polygon import NewtonPolygon, build, k1_inverse, render_svg
from .problem_io import (
    ProblemFormatError,
    load_problem,
    parse_problem,
    solution_to_dict,
    write_solution,
)
from .series import (
    DimensionMismatch,
    PolySeries,
    TimeSeries,
    exponential_series,
    geometric_series,
)
from .solver import FormalSolution, SolveError, residual, solve

__version__ = "0.1.0"

__all__ = [
    "BackendError",
    "BigFloatBackend",
    "CauchyProblem",
    "DimensionMismatch",
    "EstimationConfig",
    "FactorialPower",
    "FitError",
    "FormalSolution",
    "GammaSequence",
    "MomentPDE",
    "MomentSequence",
    "NagumoParams",
    "NewtonPolygon",
    "OperatorTerm",
    "OrderFit",
    "ParameterError",
    "PolySeries",
    "PrecisionError",
    "ProblemFormatError",
    "ProductSequence",
    "QFactorial",
    "QuotientSequence",
    "RationalBackend",
    "SequenceError",
    "SolveError",
    "TableSequence",
    "TheoremReport",
    "TimeSeries",
    "ValidationError",
    "ValidationReport",
    "alpha0",
    "build",
    "check_derivative_bound",
    "check_shift_bound",
    "check_submultiplicative",
    "check_sup_bound",
    "check_vandermonde",
    "default_window",
    "estimate_order",
    "exponential_series",
    "geometric_series",
    "k1_inverse",
    "lemma_battery",
    "load_problem",
    "make_backend",
    "nagumo_norm",
    "nagumo_profile",
    "parse_problem",
    "parse_rational",
    "render_svg",
    "residual",
    "solution_to_dict",
    "solve",
    "validate",
    "verify_theorem",
    "write_solution",
]
