"""Gevrey-order estimation and the polygon-vs-growth comparison.

A series is of Gevrey order s when its coefficient norms obey
v_n <= B * C^n * n!^s.  Fitting log v_n against the regressors 1, n, and
log n! recovers s as the coefficient of log n!; the polygon's reciprocal
slope is an upper bound for it, so the verdict compares the fitted order
against that bound plus a finite-size tolerance.  The bound need not be
tight: convergent solutions fit near zero and still pass.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .backends import log_scalar, parse_rational
from .nagumo import ParameterError, nagumo_profile
from .pde import CauchyProblem, MomentPDE
from .polygon import k1_inverse
from .solver import FormalSolution


class FitError(ValueError):
    """Not enough usable points for a growth fit."""


class OrderFit(NamedTuple):
    s_hat: float
    logB_hat: float
    logA_hat: float
    window: tuple[int, int]
    rms_residual: float
    n_points: int


def default_window(n_max: int) -> tuple[int, int]:
    # early terms bias the asymptotic fit; use the upper half
    return (math.ceil(n_max / 2), n_max)


def _positive(name: str, value) -> Fraction:
    value = parse_rational(value)
    if not value > 0:
        raise ParameterError(f"{name} must be positive, got {value}")
    return value


def estimate_order(norms: Sequence, window: Optional[tuple[int, int]] = None
                   ) -> OrderFit:
    """Least squares of log v_n = logA + n*logB + s*log n! over the window.

    The coefficients are the exact least-squares solution for the double
    values of log v_n and log n!, each rounded once, so they do not depend
    on a summation order.  norms is indexed by n starting at 0; zero
    entries are excluded.  Needs at least five positive entries in the
    window.
    """
    n_top = len(norms) - 1
    lo, hi = window if window is not None else default_window(n_top)
    if not (0 <= lo <= hi <= n_top):
        raise FitError(f"window [{lo}, {hi}] outside data range [0, {n_top}]")
    ns = []
    logs = []
    for n in range(lo, hi + 1):
        value = norms[n]
        if value is None or not value > 0:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise FitError(f"non-finite norm at n={n}")
        ns.append(n)
        logs.append(log_scalar(value))
    if len(ns) < 5:
        raise FitError(
            f"only {len(ns)} positive norms in window [{lo}, {hi}]; need 5"
        )
    lgammas = [math.lgamma(n + 1) for n in ns]
    coef = _least_squares([[1] * len(ns), ns, lgammas], logs)
    rms = math.sqrt(math.fsum(
        (coef[0] + coef[1] * n + coef[2] * lg - y) ** 2
        for n, lg, y in zip(ns, lgammas, logs)
    ) / len(ns))
    return OrderFit(
        s_hat=coef[2],
        logB_hat=coef[1],
        logA_hat=coef[0],
        window=(lo, hi),
        rms_residual=rms,
        n_points=len(ns),
    )


def _binary_ints(values: Sequence[float]) -> tuple[list[int], int]:
    """Doubles (or ints) as (ints, k) with values[i] == ints[i] / 2**k."""
    ratios = [v.as_integer_ratio() for v in values]
    shifts = [d.bit_length() - 1 for _, d in ratios]
    k = max(shifts)
    return [num << (k - e) for (num, _), e in zip(ratios, shifts)], k


def _least_squares(columns: list[Sequence[float]], target: Sequence[float]
                   ) -> list[float]:
    """The exact least-squares solution of columns . c ~ target over the
    given doubles, each coefficient rounded once to the nearest double.

    Every column (and the target) is put over one power of two, so the
    normal equations are a square system of ints.  Fraction-free
    Gauss-Jordan (Bareiss) elimination solves it for any number of
    columns: each division by the previous pivot is exact, and at the end
    row j reads d * c_j = d_j, with d the Gram determinant and d_j Cramer's
    numerator.  The pivots are the Gram matrix's leading principal minors,
    which vanish only where the columns are dependent, so no row is swapped.
    """
    scaled = [_binary_ints(col) for col in columns]
    y, k_y = _binary_ints(target)
    rows = [[sum(map(operator.mul, ci, cj)) for cj, _ in scaled]
            + [sum(map(operator.mul, ci, y))] for ci, _ in scaled]
    previous = 1
    for k in range(len(rows)):
        top = rows[k]
        if not top[k]:
            raise FitError("degenerate design matrix; widen the window")
        rows = [row if i == k else
                [(top[k] * x - row[k] * t) // previous for x, t in zip(row, top)]
                for i, row in enumerate(rows)]
        previous = top[k]
    return [float(Fraction(row[-1] << k_j, row[j] << k_y))
            for j, (row, (_, k_j)) in enumerate(zip(rows, scaled))]


def alpha0(pde: MomentPDE) -> tuple[int, ...]:
    """The profile scaling multi-index: per variable,
    floor(max over terms of alpha_k / q) + 1.  All ones for an empty term set."""
    if not pde.terms:
        return (1,) * pde.num_vars
    out = []
    for k in range(pde.num_vars):
        best = max(
            Fraction(term.z_derivatives[k], term.q(pde.M))
            for term in pde.terms
        )
        out.append(int(math.floor(best)) + 1)
    return tuple(out)


class TheoremReport(NamedTuple):
    k1_inverse: Fraction
    s_hat: float
    window: tuple[int, int]
    rms_residual: float
    verdict: str
    mode: str
    tolerance: Fraction
    fit: Optional[OrderFit]
    alpha0: Optional[tuple[int, ...]]
    lower_bound_norms: bool

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def as_dict(self) -> dict:
        return {
            "k1_inverse": str(self.k1_inverse),
            "s_hat": self.s_hat,
            "s_hat_raw": self.fit.s_hat if self.fit is not None else self.s_hat,
            "window": list(self.window),
            "rms_residual": self.rms_residual,
            "verdict": self.verdict,
            "mode": self.mode,
            "tolerance": str(self.tolerance),
            "alpha0": list(self.alpha0) if self.alpha0 is not None else None,
            "lower_bound_norms": self.lower_bound_norms,
        }


DEFAULT_TOLERANCE = Fraction(3, 20)


def _first(*values):
    """The first of values that is not None: an argument, then the
    problem's estimation default, then the package default."""
    return next(v for v in values if v is not None)


def verify_theorem(problem: CauchyProblem, solution: FormalSolution, *,
                   mode: Optional[str] = None,
                   r=None, rho=None,
                   window: Optional[tuple[int, int]] = None,
                   tolerance=None) -> TheoremReport:
    """Compare the fitted growth order of the solved coefficients with the
    polygon bound.

    mode `nagumo_profile` uses v_n = ||u_n|| at n*alpha0 with the problem's
    order vector at radius r; mode `sup_proxy` uses the zero-index profile,
    the ell-1 norms at radius rho.  Either way v_n is one nagumo_profile.
    Both radii must be positive in either mode.  The window is
    clamped to the trusted range first, and a norm is taken only for n in
    the window, the only ones the fit reads; lower_bound_norms is set when
    any trusted u_n is a truncation, in or out of the window.  The reported
    s_hat lives on the Gevrey scale (clamped at 0 from below); the
    verdict is PASS when s_hat <= 1/k1 + tolerance, so a fit well below the
    bound still passes (the bound is one-sided).
    """
    est = problem.estimation
    mode = _first(mode, est.mode, "sup_proxy")
    if mode not in ("sup_proxy", "nagumo_profile"):
        raise ValueError(f"unknown mode {mode!r}")
    tolerance = parse_rational(_first(tolerance, est.tolerance,
                                      DEFAULT_TOLERANCE))
    k1_inv = k1_inverse(problem.pde)

    lo, hi = _first(window, est.window,
                    default_window(solution.valid_t_order))
    hi = min(hi, solution.valid_t_order)
    if lo > hi:
        raise FitError(
            f"window [{lo}, {hi}] empty after clamping to the trusted range"
        )
    if lo < 0:
        raise FitError(f"window [{lo}, {hi}] outside data range "
                       f"[0, {solution.valid_t_order}]")

    # the fit reads the norms on the window only; norms[n] is None below it
    trusted = solution.coefficients.entries[:solution.valid_t_order + 1]
    lower = any(not numerators.is_exact() for numerators in trusted)
    r = _positive("r", _first(r, est.r, Fraction(1, 2)))
    rho = _positive("rho", _first(rho, est.rho, Fraction(1, 4)))
    a0 = alpha0(problem.pde) if mode == "nagumo_profile" else None
    # sup_proxy reads the zero-index profile: the ell-1 norms at rho
    index, radius = (a0, r) if a0 else ((0,) * problem.num_vars, rho)
    norms = [None] * lo + nagumo_profile(solution, index, radius,
                                         problem.pde.s, range(lo, hi + 1))

    if all(not norms[n] > 0 for n in range(lo, hi + 1)):
        # all-zero tail: a polynomial (convergent) solution
        fit = None
        s_hat = 0.0
        rms = 0.0
    else:
        fit = estimate_order(norms, (lo, hi))
        # Gevrey orders are non-negative; a factorial exponent fitting below
        # zero (norms decaying faster than geometrically) means a convergent
        # series, order 0.  The raw coefficient stays available in `fit`.
        s_hat = max(fit.s_hat, 0.0)
        rms = fit.rms_residual

    verdict = "PASS" if s_hat <= float(k1_inv) + float(tolerance) else "FAIL"
    return TheoremReport(
        k1_inverse=k1_inv,
        s_hat=s_hat,
        window=(lo, hi),
        rms_residual=rms,
        verdict=verdict,
        mode=mode,
        tolerance=tolerance,
        fit=fit,
        alpha0=a0,
        lower_bound_norms=lower,
    )
