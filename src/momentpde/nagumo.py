"""Modified Nagumo norms and executable checks of their inequalities.

The norm of a series f against a multi-index alpha (all components >= 1),
radius r, and order vector s is the least A so that f is coefficient-wise
dominated by A times a product of majorant series with coefficients
((n + alpha_i - 1)!/n!)^(s_i) / (r^(alpha_i) (alpha_i - 1)!^(s_i)).  For
finitely supported data that infimum is a maximum over the support:

    max over gamma of |f_gamma| * r^(|gamma|+|alpha|) *
        prod_i (gamma_i! (alpha_i-1)! / (gamma_i+alpha_i-1)!)^(s_i).

For the zero multi-index the norm is the plain ell-1 norm at radius r.
Mixed multi-indices (some components zero, some positive) are rejected.

A norm is a plain value, exact exactly when it is an int or a Fraction;
that takes rational coefficients, a Fraction radius, and integer orders on
every axis where alpha_i > 1 and f has positive degree.  Otherwise the
maximum is taken over double logs and the value is a float, or a finite
mpf past the double range.

The norm makes one pass over the support.  log r, |alpha| and lgamma(alpha_i)
of the axes with alpha_i != 1 are taken once per call; the log of a rational
coefficient is log|numerator| - log(denominator), with no Fraction built.
In the exact case only the candidates whose log lies within 1e-6 (relative)
of the largest are made exact, each as one int numerator over one int
denominator, since gamma_i! (alpha_i-1)! / (gamma_i+alpha_i-1)! is
1/C(gamma_i+alpha_i-1, gamma_i).

Each inequality the norm family satisfies (submultiplicativity, the
derivative bound, the index-shift bound, the sup-norm comparison, and the
binomial convolution identity feeding them) is exposed as a check function
that evaluates both sides.  The sides are compared exactly when both values
are exact, and in doubles with a relative slack of 1e-12 otherwise.  When a
side does not convert to a finite double (an mpf norm past e^709, or a
Fraction past the double range) the logs are compared instead, with the same
relative slack: inf <= inf would let such a check pass without testing it.
The sampled sup-norm check converts the coefficients to complex and sorts
them once per call, and sums each sample over them in ascending key order.

The seeded battery draws every bounded int through _below, which consumes
the generator exactly as randrange, randint and choice do (CPython 3.10 to
3.13 share that body, Random._randbelow_with_getrandbits), so a seed gives
the same instances as those calls; random_polynomial reads its
coefficients from a table of Fraction(num, den) built once.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple

from .backends import log_scalar, parse_rational
from .moments import FactorialPower, MomentSequence, QFactorial
from .series import Exponents, PolySeries


class ParameterError(ValueError):
    """Norm parameters outside their admissible ranges."""


def _as_fraction_vector(s) -> tuple[Fraction, ...]:
    return tuple(v if isinstance(v, Fraction) else parse_rational(v)
                 for v in s)


class NagumoParams:
    """alpha (all >= 1, or all zero), radius r in (0, R), orders s (each >= 1)."""

    __slots__ = ("alpha", "r", "s")

    def __init__(self, alpha: Exponents, r, s: tuple[Fraction, ...]):
        alpha = tuple(alpha)
        # a tuple of Fractions (every internal caller) is kept as it is
        if type(s) is not tuple or set(map(type, s)) - {Fraction}:
            s = _as_fraction_vector(s)
        if len(alpha) != len(s):
            raise ParameterError("alpha and s must have equal length")
        low, high = (min(alpha), max(alpha)) if alpha else (0, 0)
        if low < 0:
            raise ParameterError("alpha components must be >= 0")
        if low < 1 <= high:
            raise ParameterError(
                f"mixed multi-index {alpha}: components must be all >= 1 "
                "or all zero"
            )
        if not r > 0:
            raise ParameterError("radius r must be positive")
        if s and min(s) < 1:
            raise ParameterError(f"order vector {s} must have entries >= 1")
        try:
            # the norm takes each s_i as a double
            float(max(s, default=0))
        except OverflowError:
            raise ParameterError(
                "order vector entries must convert to finite doubles") from None
        self.alpha, self.r, self.s = alpha, r, s

    @property
    def is_zero_index(self) -> bool:
        return not any(self.alpha)


def _exact_candidate(value, exponents, size, r, axes) -> Fraction:
    """|value| * r^(|gamma|+|alpha|) * prod_i C(g_i+alpha_i-1, g_i)^(-s_i),
    built as one int numerator over one int denominator."""
    d = sum(exponents) + size
    num = abs(value.numerator) * r.numerator ** d
    den = value.denominator * r.denominator ** d
    for i, a, si, _ in axes:
        g = exponents[i]
        # g!(a-1)!/(g+a-1)! = 1/C(g+a-1, g); s_i is integral wherever g > 0
        if g:
            den *= math.comb(g + a - 1, g) ** int(si)
    return Fraction(num, den)


def _rational_value(v) -> bool:
    return isinstance(v, (int, Fraction))


def nagumo_norm(f: PolySeries, params: NagumoParams):
    """The norm of the stored coefficients, a plain value (module docstring).

    Finite validity in any variable means the data is a truncation of an
    infinite expansion, so the maximum over stored coefficients only bounds
    the true norm from below; the series' is_exact() tells which.
    """
    if len(params.alpha) != f.num_vars:
        raise ParameterError("params arity does not match the series")
    alpha, r, s = params.alpha, params.r, params.s
    if params.is_zero_index:
        return f.ell1_norm(r)

    # one pass over the support: the log of every candidate, with log r,
    # |alpha| and the lgamma(alpha_i) of the axes with alpha_i != 1 taken once
    log_r = log_scalar(r)
    size = sum(alpha)
    axes = [(i, a, float(si), math.lgamma(a))
            for i, (a, si) in enumerate(zip(alpha, s)) if a != 1]
    exact = isinstance(r, Fraction) and not any(
        s[i].denominator != 1 and f.degree(i) > 0 for i, _, _, _ in axes)
    terms = list(f.coeffs.items())
    logs = []
    for e, v in terms:
        if isinstance(v, (int, Fraction)):
            lw = math.log(abs(v.numerator)) - math.log(v.denominator)
        else:
            exact = False
            lw = log_scalar(abs(v))
        lw += (sum(e) + size) * log_r
        for i, a, fs, lga in axes:
            g = e[i]
            lw += fs * (math.lgamma(g + 1) + lga - math.lgamma(g + a))
        logs.append(lw)
    if not logs:
        return Fraction(0) if exact else 0.0
    top = max(logs)
    if not exact:
        if top < 700:
            return math.exp(top)
        # past the double range the value stays a finite mpf, of 53 bits
        # apart from mpmath's global precision
        import mpmath
        from mpmath.libmp import from_float, mpf_exp, round_nearest

        return mpmath.mp.make_mpf(mpf_exp(from_float(top), 53, round_nearest))
    # Build exact values only for candidates whose log lies within 1e-6
    # (relative) of the top; the rounding of the logs is far below that
    # margin, so the exact maximum is among them.
    cut = top - 1e-6 * max(1.0, abs(top))
    return max(_exact_candidate(v, e, size, r, axes)
               for (e, v), lw in zip(terms, logs) if lw >= cut)


def _require_exact_input(*series: PolySeries):
    for f in series:
        if not f.is_exact():
            raise ParameterError(
                "inequality checks need exactly represented inputs "
                "(truncated series only bound their norms from below)"
            )


# relative slack of every comparison that involves a float side
_SLACK = 1e-12


def _leq(lhs, rhs) -> bool:
    if _rational_value(lhs) and _rational_value(rhs):
        return lhs <= rhs
    try:
        left, right = float(lhs), float(rhs)
    except OverflowError:  # an int or Fraction past the double range
        left = right = math.inf
    if math.isfinite(left) and math.isfinite(right):
        return left <= right * (1 + _SLACK) + 1e-300
    # past the double range (inf <= inf would pass anything): compare the
    # logs with the same relative slack
    if lhs <= 0:
        return True
    if rhs <= 0:
        return False
    return log_scalar(lhs) <= log_scalar(rhs) + math.log1p(_SLACK)


# -- the inequality checks ----------------------------------------------------


class VandermondeReport(NamedTuple):
    p: int
    q: int
    n_max: int
    all_equal: bool
    failures: tuple[int, ...]


def check_vandermonde(p: int, q: int, n_max: int) -> VandermondeReport:
    """Exact check of the binomial convolution identity

    sum over k of C(k+p-1, k) * C(n-k+q-1, n-k) = C(n+p+q-1, n).
    """
    if p < 1 or q < 1:
        raise ParameterError("p and q must be positive integers")
    # row_p[k] = C(k+p-1, k), so the left side is sum row_p[k] * row_q[n-k]
    row_p = [math.comb(k + p - 1, k) for k in range(n_max + 1)]
    row_q = [math.comb(k + q - 1, k) for k in range(n_max + 1)]
    failures = []
    for n in range(n_max + 1):
        lhs = sum(map(operator.mul, row_p[:n + 1], row_q[n::-1]))
        if lhs != math.comb(n + p + q - 1, n):
            failures.append(n)
    return VandermondeReport(p, q, n_max, not failures, tuple(failures))


def check_submultiplicative(f: PolySeries, g: PolySeries,
                            alpha: Exponents, beta: Exponents,
                            r, s) -> bool:
    """||f*g|| at alpha+beta is at most ||f|| at alpha times ||g|| at beta.

    beta may be the zero multi-index, in which case the g factor is its
    ell-1 norm.
    """
    _require_exact_input(f, g)
    pf = NagumoParams(alpha, r, s)
    pg = NagumoParams(beta, r, s)
    combined = tuple(a + b for a, b in zip(alpha, beta))
    pc = NagumoParams(combined, r, s)
    lhs = nagumo_norm(f.multiply(g), pc)
    nf = nagumo_norm(f, pf)
    ng = nagumo_norm(g, pg)
    return _leq(lhs, nf * ng)


def check_derivative_bound(f: PolySeries, axis: int, alpha: Exponents,
                           r, s, seq: MomentSequence) -> bool:
    """||D_(m_j, z_j) f|| at alpha+e_j is at most C * alpha_j^(s_j) * ||f||,

    with C the scanned regularity constant of the axis sequence.  Needs the
    norm order s_j to be at least the sequence's own order for the scanned
    constant to apply.
    """
    _require_exact_input(f)
    params = NagumoParams(alpha, r, s)
    if params.is_zero_index:
        raise ParameterError("the derivative bound needs alpha with entries >= 1")
    shifted = tuple(
        a + (1 if i == axis else 0) for i, a in enumerate(alpha)
    )
    n_max = max(f.degree(axis), 1)
    _, big_c = seq.regularity_constants(n_max)
    lhs = nagumo_norm(f.moment_derive(axis, seq), NagumoParams(shifted, r, s))
    nf = nagumo_norm(f, params)
    s_axis = params.s[axis]
    if s_axis.denominator == 1:
        growth = Fraction(alpha[axis]) ** int(s_axis)
    else:
        growth = float(alpha[axis]) ** float(s_axis)
    return _leq(lhs, big_c * growth * nf)


def check_shift_bound(f: PolySeries, alpha: Exponents, beta: Exponents,
                      r, s) -> bool:
    """||f|| at alpha+beta is at most r^|beta| * ||f|| at alpha.

    alpha may be the zero index (then the right side uses the ell-1 norm).
    """
    _require_exact_input(f)
    pa = NagumoParams(alpha, r, s)
    if any(b < 1 for b in beta):
        raise ParameterError("beta must have all components >= 1")
    combined = tuple(a + b for a, b in zip(alpha, beta))
    lhs = nagumo_norm(f, NagumoParams(combined, r, s))
    nf = nagumo_norm(f, pa)
    shift = r ** sum(beta) if isinstance(r, Fraction) \
        else float(r) ** sum(beta)
    return _leq(lhs, shift * nf)


def admissible_epsilon(rho, r, s) -> float:
    """The epsilon of the sup-norm comparison: the midpoint of the
    admissible interval rho*(1+e)^(|s|-N) < r, or 1 when the interval is
    unbounded (|s| = N)."""
    s = _as_fraction_vector(s)
    excess = float(sum(s)) - len(s)
    if excess <= 0:
        return 1.0
    eps_max = (float(r) / float(rho)) ** (1.0 / excess) - 1.0
    if eps_max <= 0:
        raise ParameterError("no admissible epsilon: rho too close to r")
    return eps_max / 2.0


def check_sup_bound(f: PolySeries, alpha: Exponents, rho, r, s,
                    sample_count: int = 64, seed: int = 7) -> bool:
    """Sampled check of: sup of |f| on the closed rho-polydisc is at most
    A^|alpha| times the norm, with A = max(1, (1+e)^|s| / (e^|s| *
    (r - (1+e)^(|s|-N) rho))) and e = admissible_epsilon(rho, r, s).

    For alpha = 0 the stronger exact comparison against the ell-1 norm at r
    is used.  Otherwise |f| is evaluated at deterministic torus points with
    |z_i| = rho (sound sampling: each sample must respect the bound).
    """
    _require_exact_input(f)
    params = NagumoParams(alpha, r, s)
    if not 0 < rho < r:
        raise ParameterError("need 0 < rho < r")
    if params.is_zero_index:
        return _leq(f.ell1_norm(rho), f.ell1_norm(r))

    n = f.num_vars
    total_s = float(sum(params.s))
    epsilon = admissible_epsilon(rho, r, params.s)
    big_a = max(
        1.0,
        (1 + epsilon) ** total_s
        / (epsilon ** total_s
           * (float(r) - (1 + epsilon) ** (total_s - n) * float(rho))),
    )
    bound = big_a ** sum(alpha) * float(nagumo_norm(f, params))
    rng = random.Random(seed)
    radius = float(rho)
    # converted and sorted once, then summed term by term in key order
    terms = [(e, complex(v)) for e, v in sorted(f.coeffs.items())]
    for _ in range(sample_count):
        point = tuple(
            radius * cmath.exp(2j * math.pi * rng.random()) for _ in range(n)
        )
        total = 0j
        for exponents, term in terms:
            for z, g in zip(point, exponents):
                if g:
                    term *= z ** g
            total += term
        if abs(total) > bound * (1 + _SLACK):
            return False
    return True


def nagumo_profile(solution, alpha0: Exponents, r, s,
                   indices: range | None = None) -> list:
    """The norm sequence v_n = ||u_n|| at multi-index n*alpha0, for n in
    indices, by default the whole trusted prefix of the solution.

    alpha0 has all components >= 1, and then v_0 uses the zero-index norm;
    or it is the zero index, and every v_n is the ell-1 norm at r (the
    alpha = 0 member of the family), all of them reading one table of the
    powers r^d (series module docstring).  The norm of u_n = N_n / d_n is
    exact exactly when that of N_n is, and then it is ||N_n|| / d_n, the
    same Fraction; where it is taken over double logs it is taken again on
    the reduced values of u_n, so the logs are theirs.
    """
    zero = not any(alpha0)
    if not zero and min(alpha0) < 1:
        raise ParameterError("alpha0 must be zero or have all components >= 1")
    powers: dict = {}

    def norm(f: PolySeries, n: int):
        if zero:
            return f.ell1_norm(r, powers)
        alpha = tuple(n * a for a in alpha0) if n else (0,) * len(alpha0)
        return nagumo_norm(f, NagumoParams(alpha, r, s))

    if indices is None:
        indices = range(solution.valid_t_order + 1)
    out = []
    for n in indices:
        value = norm(solution.coefficients.coefficient(n), n)
        d = solution.denominators[n]
        if d != 1:  # over double logs: taken again on the values
            value = (value / d if _rational_value(value)
                     else norm(solution.coefficient(n), n))
        out.append(value)
    return out


# -- randomized sweep battery -------------------------------------------------


_R_CHOICES = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
_S_CHOICES = (Fraction(1), Fraction(3, 2), Fraction(2))
# the binomial identity runs for 1 <= p, q <= _VANDERMONDE_PQ and
# n <= _VANDERMONDE_N; the norm of one for _NORM_ONE_CASES random draws
_VANDERMONDE_PQ = 10
_VANDERMONDE_N = 50
_NORM_ONE_CASES = 20


def _below(rng: random.Random, n: int) -> int:
    """A draw in [0, n), n >= 1, that consumes rng exactly as
    rng.randrange(n) does: Random._randbelow_with_getrandbits, the same
    body on CPython 3.10 to 3.13.  rng.randint(a, b) is a + _below(rng,
    b - a + 1) and rng.choice(seq) is seq[_below(rng, len(seq))]."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


# the coefficients random_polynomial draws: _COEFFICIENTS[num + 9][den - 1]
# is Fraction(num, den) for num in -9..9 (0 is redrawn) and den in 1..4
_COEFFICIENTS = tuple(tuple(Fraction(num, den) for den in range(1, 5))
                      for num in range(-9, 10))


def random_polynomial(rng: random.Random, num_vars: int,
                      max_total_degree: int = 6,
                      max_terms: int = 12) -> PolySeries:
    """Sparse random polynomial with small rational coefficients."""
    terms = {}
    for _ in range(1 + _below(rng, max_terms)):
        exponents = [0] * num_vars
        for _ in range(_below(rng, max_total_degree + 1)):
            exponents[_below(rng, num_vars)] += 1
        num = 0
        while num == 0:
            num = _below(rng, 19) - 9
        value = _COEFFICIENTS[num + 9][_below(rng, 4)]
        key = tuple(exponents)
        terms[key] = terms[key] + value if key in terms else value
    # a sum that cancelled to zero is dropped, as the constructor drops it
    return PolySeries._trusted(num_vars,
                               {k: v for k, v in terms.items() if v},
                               (None,) * num_vars)


def _sweep_context(rng: random.Random):
    num_vars = 1 + _below(rng, 3)
    r = _R_CHOICES[_below(rng, 3)]
    s = tuple(_S_CHOICES[_below(rng, 3)] for _ in range(num_vars))
    alpha = tuple(1 + _below(rng, 3) for _ in range(num_vars))
    beta = tuple(1 + _below(rng, 3) for _ in range(num_vars))
    return num_vars, r, s, alpha, beta


def lemma_battery(seed: int, instances: int) -> dict:
    """Run every inequality sweep with one seeded generator and report.

    The battery is deterministic for a fixed seed; the report is the JSON
    payload of the `check` command.
    """
    if instances < 1:
        raise ParameterError(f"instances must be >= 1, got {instances}")
    report: dict = {"seed": seed, "instances": instances}

    vd_failures = []
    for p in range(1, _VANDERMONDE_PQ + 1):
        for q in range(1, _VANDERMONDE_PQ + 1):
            res = check_vandermonde(p, q, _VANDERMONDE_N)
            if not res.all_equal:
                vd_failures.append({"p": p, "q": q, "n": list(res.failures)})
    report["vandermonde"] = {
        "p_max": _VANDERMONDE_PQ,
        "q_max": _VANDERMONDE_PQ,
        "n_max": _VANDERMONDE_N,
        "passed": not vd_failures,
        "failures": vd_failures,
    }

    # axis sequences of the derivative sweep; the last one, of order 2, is
    # drawn only where the norm order s_j is at least 2
    sequences = (FactorialPower(1), QFactorial(Fraction(1, 2)),
                 QFactorial(Fraction(1, 3)), FactorialPower(2))

    def run_sweep(name: str, one_case, count: int = instances) -> None:
        rng = random.Random(f"{seed}:{name}")
        failures = []
        for i in range(count):
            if not one_case(rng):
                failures.append(i)
        report[name] = {
            "count": count,
            "passed": not failures,
            "failures": failures[:20],
        }

    def case_submultiplicative(rng) -> bool:
        num_vars, r, s, alpha, beta = _sweep_context(rng)
        f = random_polynomial(rng, num_vars)
        g = random_polynomial(rng, num_vars)
        if rng.random() < 0.25:
            beta = (0,) * num_vars  # the ell-1 variant
        return check_submultiplicative(f, g, alpha, beta, r, s)

    def case_derivative(rng) -> bool:
        num_vars, r, s, alpha, _ = _sweep_context(rng)
        f = random_polynomial(rng, num_vars)
        axis = _below(rng, num_vars)
        pool = sequences if s[axis] >= 2 else sequences[:3]
        seq = pool[_below(rng, len(pool))]
        return check_derivative_bound(f, axis, alpha, r, s, seq)

    def case_shift(rng) -> bool:
        num_vars, r, s, alpha, beta = _sweep_context(rng)
        f = random_polynomial(rng, num_vars)
        if rng.random() < 0.25:
            alpha = (0,) * num_vars
        return check_shift_bound(f, alpha, beta, r, s)

    def case_sup(rng) -> bool:
        num_vars, r, s, alpha, _ = _sweep_context(rng)
        f = random_polynomial(rng, num_vars)
        rho = r * Fraction(1 + _below(rng, 3), 4)
        if rng.random() < 0.2:
            alpha = (0,) * num_vars
        return check_sup_bound(f, alpha, rho, r, s, sample_count=16,
                               seed=_below(rng, 2**30))

    def case_norm_of_one(rng) -> bool:
        num_vars = 1 + _below(rng, 3)
        r = _R_CHOICES[_below(rng, 3)]
        s = tuple(_S_CHOICES[_below(rng, 3)] for _ in range(num_vars))
        beta = tuple(1 + _below(rng, 4) for _ in range(num_vars))
        one = PolySeries.constant(num_vars, Fraction(1))
        res = nagumo_norm(one, NagumoParams(beta, r, s))
        return _rational_value(res) and res == r ** sum(beta)

    run_sweep("submultiplicative", case_submultiplicative)
    run_sweep("derivative_bound", case_derivative)
    run_sweep("shift_bound", case_shift)
    run_sweep("sup_bound", case_sup)
    run_sweep("norm_of_one", case_norm_of_one, _NORM_ONE_CASES)

    report["all_pass"] = all(
        section["passed"]
        for key, section in report.items()
        if isinstance(section, dict) and "passed" in section
    )
    return report
