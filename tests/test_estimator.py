"""Order fitting, the profile multi-index, and the theorem comparison."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpde import (
    CauchyProblem,
    EstimationConfig,
    FactorialPower,
    FitError,
    MomentPDE,
    NagumoParams,
    OperatorTerm,
    ParameterError,
    PolySeries,
    QFactorial,
    RationalBackend,
    TimeSeries,
    alpha0,
    build,
    estimate_order,
    estimator,
    exponential_series,
    geometric_series,
    k1_inverse,
    nagumo,
    nagumo_norm,
    nagumo_profile,
    solve,
    validate,
    verify_theorem,
)
from momentpde.backends import log_scalar
from momentpde.problem_io import load_problem

from helpers import least_squares_reference, ratio_order, with_settings, zero_rhs

F = Fraction


def constant_coeff(value, num_vars=1) -> TimeSeries:
    return TimeSeries([PolySeries.constant(num_vars, F(value))], tail_exact=True)


def heat_pde(ord_t=0) -> MomentPDE:
    entries = [PolySeries.zero(1)] * ord_t + [PolySeries.constant(1, F(-1))]
    term = OperatorTerm(0, (2,), TimeSeries(entries, tail_exact=True))
    return MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [term])


def make_problem(pde, initial, t_order=40, z_caps=(120,),
                 **settings) -> CauchyProblem:
    """The problem with zero right-hand side and the given estimation
    settings, the package defaults for the others."""
    return CauchyProblem(pde, zero_rhs(1), initial, t_order, z_caps,
                         RationalBackend(), EstimationConfig(**settings))


def test_fit_recovers_half_factorial():
    norms = [math.exp(0.5 * math.lgamma(n + 1)) for n in range(41)]
    fit = estimate_order(norms, (10, 40))
    assert abs(fit.s_hat - 0.5) < 1e-9
    assert abs(fit.logB_hat) < 1e-9
    assert fit.rms_residual < 1e-9


def test_fit_recovers_pure_geometric():
    norms = [2.0 ** n for n in range(41)]
    fit = estimate_order(norms, (10, 40))
    assert abs(fit.s_hat) < 1e-9
    assert abs(fit.logB_hat - math.log(2)) < 1e-9


def test_fit_central_binomial_style_growth():
    # direct evaluation oracle for (2n)!/n!; Stirling says this is
    # asymptotically 4^n n! up to a root factor, so the fit sits near 1
    norms = [F(math.factorial(2 * n), math.factorial(n)) for n in range(41)]
    fit = estimate_order(norms, (20, 40))
    assert 0.9 <= fit.s_hat <= 1.1


def test_fit_scale_invariances():
    base = [math.exp(0.7 * math.lgamma(n + 1)) + 0.0 for n in range(41)]
    fit = estimate_order(base, (12, 40))
    scaled = [7.5 * v for v in base]
    geometric = [v * 3.0 ** n for n, v in enumerate(base)]
    fit_scaled = estimate_order(scaled, (12, 40))
    fit_geom = estimate_order(geometric, (12, 40))
    assert abs(fit_scaled.s_hat - fit.s_hat) < 1e-9
    assert abs(fit_geom.s_hat - fit.s_hat) < 1e-9
    assert abs(fit_scaled.logA_hat - fit.logA_hat - math.log(7.5)) < 1e-9
    assert abs(fit_geom.logB_hat - fit.logB_hat - math.log(3.0)) < 1e-9


def test_fit_excludes_zeros_and_needs_five_points():
    norms = [0.0] * 41
    norms[20] = norms[22] = norms[24] = 1.0
    with pytest.raises(FitError):
        estimate_order(norms, (20, 40))


@st.composite
def sup_proxy_like(draw):
    """Positive rational norms growing like C^n n!^p / floor(n/2)!^q, some
    of them zero, and a window inside them: the data sup_proxy fits."""
    top = draw(st.integers(8, 60))
    lo = draw(st.integers(0, top - 5))
    hi = draw(st.integers(lo + 4, top))
    p = draw(st.integers(0, 2))
    q = draw(st.integers(0, 2))
    ratio = draw(st.fractions(F(1, 9), 9, max_denominator=9))
    norms = []
    for n in range(top + 1):
        noise = draw(st.integers(0, 12))  # 0 drops the point
        norms.append(F(noise) * ratio ** n * F(math.factorial(n)) ** p
                     / F(math.factorial(n // 2)) ** q)
    return norms, (lo, hi)


@settings(max_examples=60, deadline=None)
@given(sup_proxy_like())
def test_fit_is_the_exact_least_squares_solution(case):
    norms, (lo, hi) = case
    ns = [n for n in range(lo, hi + 1) if norms[n] > 0]
    if len(ns) < 5:
        with pytest.raises(FitError):
            estimate_order(norms, (lo, hi))
        return
    fit = estimate_order(norms, (lo, hi))
    want = least_squares_reference(
        [[1.0] * len(ns), [float(n) for n in ns],
         [math.lgamma(n + 1) for n in ns]],
        [log_scalar(norms[n]) for n in ns])
    assert [fit.logA_hat, fit.logB_hat, fit.s_hat] == want
    assert fit.n_points == len(ns)


@pytest.mark.parametrize("width", [2, 3, 4])
def test_least_squares_of_any_width_is_the_exact_solution(width):
    # the columns 1, n, log n!, log n (the last one a growth model n^kappa
    # would add), on windows of 5 to 40 points and noisy targets
    rng = random.Random(width)
    for _ in range(40):
        lo = rng.randint(1, 60)
        ns = range(lo, lo + rng.randint(5, 40))
        columns = [[1.0] * len(ns), [float(n) for n in ns],
                   [math.lgamma(n + 1) for n in ns],
                   [math.log(n) for n in ns]][:width]
        target = [rng.uniform(-3, 3) + 0.5 * math.lgamma(n + 1) for n in ns]
        assert estimator._least_squares(columns, target) \
            == least_squares_reference(columns, target)


@pytest.mark.parametrize("columns", [
    [[1.0] * 6, [2.0] * 6],
    [[1.0] * 6, [float(n) for n in range(6)], [0.0] * 6],
    [[1.0] * 6, [float(n) for n in range(6)], [3.0 - n for n in range(6)]],
])
def test_least_squares_on_a_singular_gram_matrix_raises(columns):
    with pytest.raises(FitError):
        estimator._least_squares(columns, [float(n * n) for n in range(6)])


def test_fit_on_data_exactly_on_the_model_is_exact(monkeypatch):
    # log v_n = 1/4 - n/2 + 2 log n! holds exactly in doubles over the
    # window (checked through Fractions), so the exact least-squares solution
    # is (1/4, -1/2, 2) itself and the residual is zero.
    monkeypatch.setattr(estimator, "log_scalar", float)  # the norms are logs
    a, b, s = 0.25, -0.5, 2.0
    logs = [a + b * n + s * math.lgamma(n + 1) for n in range(41)]
    assert all(F(logs[n]) == F(a) + F(b) * n + F(s) * F(math.lgamma(n + 1))
               for n in range(10, 41))
    fit = estimate_order(logs, (10, 40))
    assert (fit.logA_hat, fit.logB_hat, fit.s_hat) == (a, b, s)
    assert fit.rms_residual == 0.0


def test_fit_window_out_of_range():
    with pytest.raises(FitError):
        estimate_order([1.0] * 10, (5, 30))


def test_alpha0_examples():
    assert alpha0(heat_pde()) == (3,)       # floor(2/1) + 1
    assert alpha0(heat_pde(ord_t=1)) == (2,)  # floor(2/2) + 1
    ode_like = MomentPDE(1, FactorialPower(1), [FactorialPower(1)],
                         [OperatorTerm(0, (0,), constant_coeff(-1))])
    assert alpha0(ode_like) == (1,)
    empty = MomentPDE(1, FactorialPower(1), [FactorialPower(1), FactorialPower(1)][:1], [])
    assert alpha0(empty) == (1,)


def test_gevrey_stack_profile_fits_declared_order():
    # stack f_n = n!^w * g(z): the profile norms at n*alpha must fit with
    # order at most w (up to the finite-size tolerance), since
    # ||f_n||_{n alpha} = n!^w * ||g||_{n alpha} and the g factor decays
    # geometrically in n
    g = PolySeries(1, {(0,): F(1), (2,): F(1, 3)})
    r = F(1, 2)
    for w in (0.0, 0.5, 1.0):
        norms = []
        for n in range(41):
            base = nagumo_norm(g, NagumoParams((max(n, 1) * 2,), r, (F(1),)))
            norms.append(float(base) * math.exp(w * math.lgamma(n + 1)))
        fit = estimate_order(norms, (20, 40))
        assert fit.s_hat <= w + 0.15


def test_verify_theorem_heat_geometric():
    problem = make_problem(heat_pde(), [geometric_series(1, 1, (120,))],
                           mode="sup_proxy", rho=F(1, 8), window=(20, 40))
    solution = solve(problem)
    report = verify_theorem(problem, solution)
    assert report.k1_inverse == 1
    assert 0.9 <= report.s_hat <= 1.1
    assert report.passed


def test_verify_theorem_convergent_case_clamps_to_zero():
    problem = make_problem(heat_pde(), [exponential_series(1, 1, (120,))],
                           mode="sup_proxy", rho=F(1, 2), window=(20, 40))
    solution = solve(problem)
    report = verify_theorem(problem, solution)
    # u_n = e^z/n!: the raw factorial exponent is -1, the Gevrey order is 0
    assert report.fit is not None and report.fit.s_hat < -0.9
    assert report.s_hat == 0.0
    assert report.passed


def test_verify_theorem_q_difference():
    pde = MomentPDE(1, QFactorial(F(1, 2)), [FactorialPower(1)],
                    [OperatorTerm(0, (0,), constant_coeff(-1))])
    problem = CauchyProblem(pde, zero_rhs(1),
                            [PolySeries.constant(1, F(1))], 40, (0,),
                            RationalBackend(),
                            EstimationConfig(mode="sup_proxy", rho=F(1, 4),
                                             window=(20, 40)))
    solution = solve(problem)
    report = verify_theorem(problem, solution)
    assert report.k1_inverse == 0
    assert -0.05 <= report.s_hat <= 0.05
    assert report.passed


def test_verify_theorem_zero_tail_convention():
    problem = make_problem(heat_pde(), [PolySeries(1, {(2,): F(1)})],
                           t_order=20, z_caps=(10,), mode="sup_proxy",
                           rho=F(1, 4), window=(10, 20))
    solution = solve(problem)
    report = verify_theorem(problem, solution)
    assert report.s_hat == 0.0
    assert report.fit is None
    assert report.passed


def test_a_negative_window_is_refused_with_the_settings():
    # an index below 0 is not read from the end of the norm list: an
    # all-zero tail there would pass a polynomial solution unfitted.  No
    # problem holds such a window, so verify_theorem never reads one.
    with pytest.raises(ParameterError, match=r"0 <= lo <= hi, got \(-3, -1\)"):
        EstimationConfig(window=(-3, -1))
    with pytest.raises(ParameterError, match=r"got \[-3, -1\]"):
        load_problem(Path(__file__).parent / "problems/heat.json",
                     {"window": (-3, -1)})


def test_verify_theorem_profile_mode():
    problem = make_problem(heat_pde(), [geometric_series(1, 1, (120,))],
                           mode="nagumo_profile", r=F(1, 2), window=(20, 40))
    solution = solve(problem)
    report = verify_theorem(problem, solution)
    assert report.alpha0 == (3,)
    assert report.lower_bound_norms
    assert report.s_hat <= 1.15
    assert report.passed


def test_verify_theorem_uses_problem_estimation_defaults():
    problem = CauchyProblem(
        heat_pde(), zero_rhs(1), [geometric_series(1, 1, (120,))],
        40, (120,), RationalBackend(),
        estimation=EstimationConfig(rho=F(1, 8), window=(20, 40),
                                    tolerance=F(3, 20), mode="sup_proxy"),
    )
    solution = solve(problem)
    report = verify_theorem(problem, solution)
    assert report.mode == "sup_proxy"
    assert report.window == (20, 40)
    assert report.passed


def test_verify_theorem_fail_with_negative_tolerance():
    problem = make_problem(heat_pde(), [geometric_series(1, 1, (120,))],
                           mode="sup_proxy", rho=F(1, 8), window=(20, 40),
                           tolerance=F(-1, 2))
    solution = solve(problem)
    report = verify_theorem(problem, solution)
    assert report.verdict == "FAIL"


FIXTURES = sorted(Path(__file__).parent.glob("problems/*.json"))


def _solved(path):
    problem = load_problem(path)
    return problem, solve(problem)


def _full_profile_dict(problem, solution, report, r, rho) -> dict:
    """report.as_dict() as built from the norms of every trusted n, with the
    truncation flag read from is_exact() of every trusted u_n."""
    pde = problem.pde
    trusted = range(solution.valid_t_order + 1)
    profile = nagumo_profile(solution, alpha0(pde), r, pde.s)
    assert len(profile) == len(trusted)
    if report.mode == "nagumo_profile":
        norms = profile
    else:
        norms = [solution.coefficient(n).ell1_norm(rho) for n in trusted]
    lo, hi = report.window
    expected = dict(report.as_dict(), s_hat=0.0, s_hat_raw=0.0,
                    rms_residual=0.0,
                    lower_bound_norms=any(not solution.coefficient(n).is_exact()
                                          for n in trusted))
    if any(norms[n] > 0 for n in range(lo, hi + 1)):
        fit = estimate_order(norms, (lo, hi))
        expected.update(s_hat=max(fit.s_hat, 0.0), s_hat_raw=fit.s_hat,
                        rms_residual=fit.rms_residual)
    return expected


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_window_only_norms_give_the_full_profile_report(path):
    problem, solution = _solved(path)
    r, rho = F(1, 2), F(1, 4)
    for mode in ("nagumo_profile", "sup_proxy"):
        report = verify_theorem(with_settings(problem, mode=mode, r=r,
                                              rho=rho), solution)
        assert report.as_dict() == _full_profile_dict(problem, solution,
                                                      report, r, rho)


def test_window_only_norms_cover_a_truncated_and_an_exact_fixture():
    # lower_bound_norms reads every trusted n: qdiff's data is a polynomial,
    # every other fixture's is truncated
    flags = set()
    for path in FIXTURES:
        problem, solution = _solved(path)
        report = verify_theorem(with_settings(problem, mode="nagumo_profile"),
                                solution)
        flags.add(report.lower_bound_norms)
    assert flags == {False, True}


@pytest.mark.parametrize("name", [
    "heat", "heat_half", "third_order",
    "two_segment",  # two hull segments: only the first sets the order
    "gamma_z2",     # a z-sequence of order s = 2
    "table_order1",  # a z-table, m(n) = (n+1)!, that declares its order 1
])
def test_fit_attains_the_order_where_the_bound_is_sharp(name):
    # the verdict is one-sided (s_hat <= 1/k1 + tolerance); on these fixtures
    # the growth order is 1/k1 itself, so the fit must also land near it
    problem, solution = _solved(Path(__file__).parent / f"problems/{name}.json")
    # and no declared order is off from the data (a table's fitted order)
    assert validate(problem).warnings == []
    report = verify_theorem(problem, solution)
    assert report.passed
    assert abs(F(report.s_hat) - report.k1_inverse) <= report.tolerance


# The fixtures whose growth order is 1/k1, each at a (t-order, z-degree)
# where every u_n up to the t-order is trusted, since the ratio method reads
# the top of the profile.  heat_tcoeff's norms vanish at odd n (step h = 2);
# fractional is solved in big float, its shipped backend.
SHARP = {
    "heat": (80, [160]), "third_order": (48, [144]), "two_segment": (40, [80]),
    "gamma_z2": (40, [80]), "heat_tcoeff": (60, [120]),
    "fractional": (64, [128]), "heat_half": (60, [120]),
    "mixed2d": (24, [48, 48]), "table_order1": (16, [32]),
}


def _trusted_profile(name, t_order, z_degree):
    """The problem and its nagumo_profile at r = 1/2, every n trusted."""
    problem = load_problem(Path(__file__).parent / f"problems/{name}.json",
                           {"t_order": t_order, "z_degree": z_degree})
    solution = solve(problem)
    assert solution.valid_t_order == t_order
    return problem, nagumo_profile(solution, alpha0(problem.pde), F(1, 2),
                                   problem.pde.s)


@pytest.mark.parametrize("name", sorted(SHARP))
def test_ratio_method_attains_the_order_where_the_bound_is_sharp(name):
    # the verdict is one-sided (s_hat <= 1/k1 + tolerance); on these fixtures
    # the growth order is 1/k1 itself, and the extrapolated second
    # log-ratios of the profile land on it within 1e-4, which a k1 off by
    # 1/20 fails by far
    problem, norms = _trusted_profile(name, *SHARP[name])
    order, converged = ratio_order(norms)
    assert converged
    for bound in (k1_inverse(problem.pde), build(problem.pde).k1_inverse):
        assert abs(F(order) - bound) <= F(1, 10_000)


@pytest.mark.parametrize("name, t_order, z_degree", [
    ("heat2d", 18, [36, 36]),    # too short a trusted range
    ("transport_z2", 24, [48]),  # 1/k1 = 0: the extrapolants run off
], ids=["heat2d", "transport_z2"])
def test_ratio_method_flags_a_profile_where_it_does_not_converge(
        name, t_order, z_degree):
    _, norms = _trusted_profile(name, t_order, z_degree)
    assert not ratio_order(norms)[1]


@pytest.mark.parametrize("step", [1, 2])
def test_ratio_method_recovers_the_order_past_an_algebraic_factor(step):
    # v_n = 3^n n!^(1/2) n^(-1/4) at the multiples of step, 0 between them:
    # the step is read from the non-zero norms, and n^(-1/4) is a 1/n
    # correction of the ratios that the extrapolation removes
    norms = [1.0] + [math.exp(n * math.log(3) + 0.5 * math.lgamma(n + 1)
                              - 0.25 * math.log(n)) if n % step == 0 else 0.0
                     for n in range(1, 41)]
    order, converged = ratio_order(norms)
    assert converged
    assert abs(order - 0.5) < 1e-5


@pytest.mark.parametrize("window", [None, (0, 10), (20, 30)])
def test_verify_theorem_takes_one_norm_per_window_index(window, monkeypatch):
    problem, solution = _solved(Path(__file__).parent / "problems/heat.json")
    calls = []
    norm = nagumo.nagumo_norm
    ell1 = PolySeries.ell1_norm
    monkeypatch.setattr(nagumo, "nagumo_norm",
                        lambda *a: calls.append("norm") or norm(*a))
    monkeypatch.setattr(PolySeries, "ell1_norm",
                        lambda *a: calls.append("ell1") or ell1(*a))
    for mode, name in (("nagumo_profile", "norm"), ("sup_proxy", "ell1")):
        calls.clear()
        report = verify_theorem(with_settings(problem, mode=mode,
                                              window=window), solution)
        lo, hi = report.window
        assert calls.count(name) == hi - lo + 1
