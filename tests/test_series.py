"""PolySeries arithmetic, validity propagation, and moment derivatives."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpde import (
    BigFloatBackend,
    DimensionMismatch,
    FactorialPower,
    GammaSequence,
    MomentSequence,
    NagumoParams,
    PolySeries,
    ProductSequence,
    QFactorial,
    QuotientSequence,
    SequenceError,
    TableSequence,
    TimeSeries,
    exponential_series,
    geometric_series,
    nagumo_norm,
)
from momentpde.backends import (
    PrecisionError,
    RationalBackend,
    scalar_to_fraction,
)
from momentpde.problem_io import _fmt
from momentpde.series import exact_multiplier, min_validity
from momentpde.solver import _scaled

F = Fraction


def P(coeffs, num_vars=1, valid=None):
    return PolySeries(num_vars, coeffs, valid)


@st.composite
def sparse_polys(draw, num_vars=2, max_degree=5, max_terms=6):
    n_terms = draw(st.integers(1, max_terms))
    coeffs = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, max_degree)) for _ in range(num_vars)
        )
        coeffs[exps] = F(draw(st.integers(-8, 8)), draw(st.integers(1, 5)))
    return PolySeries(num_vars, coeffs)


@st.composite
def truncated_polys(draw, num_vars=2):
    """Small supports and values, so sums and products often cancel."""
    valid = tuple(
        draw(st.one_of(st.none(), st.integers(0, 3))) for _ in range(num_vars)
    )
    coeffs = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * num_vars),
        st.sampled_from([F(-2), F(-1), F(1), F(2)]),
        max_size=8,
    ))
    return PolySeries(num_vars, coeffs, valid)


def brute_convolution(f: PolySeries, g: PolySeries) -> dict:
    """Independent dense convolution oracle (no validity truncation)."""
    out = {}
    for ea, va in f.coeffs.items():
        for eb, vb in g.coeffs.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def test_add_basic():
    f = P({(0,): F(1), (1,): F(1)})
    g = P({(1,): F(2)})
    assert (f + g).coeffs == {(0,): F(1), (1,): F(3)}


def test_scale_negates():
    f = P({(2,): F(1)})
    assert f.scale(-1).coeffs == {(2,): F(-1)}


def test_add_disjoint_supports():
    f = P({(0,): F(2)})
    g = P({(3,): F(5)})
    assert (f + g).coeffs == {(0,): F(2), (3,): F(5)}


def test_multiply_basic():
    f = P({(0,): F(1), (1,): F(1)})
    g = P({(0,): F(1), (1,): F(-1)})
    assert (f * g).coeffs == {(0,): F(1), (2,): F(-1)}


def test_multiply_respects_validity_truncation():
    f = P({(k,): F(1) for k in range(11)}, valid=(10,))
    z = P({(1,): F(1)})
    out = f * z
    assert out.valid == (10,)
    assert out.coefficient((11,)) == 0  # truncated by the validity rule
    assert out.coefficient((10,)) == 1
    assert out.coefficient((0,)) == 0


def test_multiply_by_zero_keeps_validity():
    f = P({(k,): F(1) for k in range(5)}, valid=(4,))
    out = f * P({})
    assert out.is_zero()
    assert out.valid == (4,)


def test_multiply_against_brute_convolution():
    f = P({(0, 1): F(2), (2, 0): F(-1), (1, 1): F(1, 2)}, num_vars=2)
    g = P({(1, 1): F(3), (0, 2): F(1)}, num_vars=2)
    assert (f * g).coeffs == brute_convolution(f, g)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        P({(1,): F(1)}).add(P({(1, 0): F(1)}, num_vars=2))


@given(f=sparse_polys(), g=sparse_polys(), h=sparse_polys())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(f, g, h):
    assert (f * g).coeffs == (g * f).coeffs
    assert ((f * g) * h).coeffs == (f * (g * h)).coeffs
    assert (f * (g + h)).coeffs == ((f * g) + (f * h)).coeffs


@given(f=truncated_polys(), g=truncated_polys(),
       c=st.sampled_from([F(0), F(-1), F(3, 2)]), axis=st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_kernels_keep_the_invariant(f, g, c, axis):
    total, product = f.add(g), f.multiply(g)
    results = [
        total, f.sub(g), f.add(f.neg()), f.neg(), f.scale(c),
        product, product.sub(g.multiply(f)),
        f.moment_derive(axis, QFactorial(F(1, 2))),
    ]
    for out in results:
        assert all(v != 0 for v in out.coeffs.values())
        assert all(
            v is None or e <= v
            for key in out.coeffs for e, v in zip(key, out.valid)
        )
        rebuilt = PolySeries(out.num_vars, out.coeffs, out.valid)
        assert (rebuilt.coeffs, rebuilt.valid) == (out.coeffs, out.valid)
    # the sum and the product agree with the same data through the constructor
    valid = min_validity(f.valid, g.valid)
    sums = {k: f.coefficient(k) + g.coefficient(k)
            for k in set(f.coeffs) | set(g.coeffs)}
    assert total.coeffs == PolySeries(2, sums, valid).coeffs
    assert product.coeffs == PolySeries(2, brute_convolution(f, g), valid).coeffs


def test_moment_derive_classical():
    f = P({(3,): F(1)})
    out = f.moment_derive(0, FactorialPower(1))
    assert out.coeffs == {(2,): F(3)}


def test_moment_derive_q_factorial():
    # D_q z^3 = [3]_q z^2 with [3]_{1/2} = 7/4
    f = P({(3,): F(1)})
    out = f.moment_derive(0, QFactorial(F(1, 2)))
    assert out.coeffs == {(2,): F(7, 4)}


def _value_types(series: PolySeries) -> set:
    return {type(v) for v in series.coeffs.values()}


def test_int_valued_series_stay_int_under_integral_fraction_multipliers():
    f = P({(0,): 3, (2,): -5, (3,): 7})
    coefficient = P({(0,): F(-1), (1,): F(4, 2)})
    for out in (f.scale(F(6, 3)), coefficient.multiply(f),
                f.moment_derive(0, FactorialPower(1)),
                f.moment_derive(0, FactorialPower(2))):
        assert _value_types(out) == {int}
    assert f.scale(F(2)).coeffs == {(0,): 6, (2,): -10, (3,): 14}
    assert coefficient.multiply(f).coeffs == brute_convolution(coefficient, f)
    assert f.moment_derive(0, FactorialPower(1)).coeffs == {(1,): -10, (2,): 21}


def test_fraction_valued_series_stay_fraction():
    # the scaled, derived or right-hand series decides: Fraction times int
    # is still a Fraction
    f = P({(0,): F(3), (1,): F(1, 2), (3,): F(-4)})
    ints = P({(0,): 2, (1,): -1})
    results = (f.scale(F(2)), f.scale(2), P({(0,): F(-1)}).multiply(f),
               ints.multiply(f), f.moment_derive(0, FactorialPower(1)),
               f.moment_derive(0, QFactorial(F(1, 2))), ints.scale(F(1, 3)))
    for out in results:
        assert _value_types(out) == {Fraction}
    assert f.moment_derive(0, FactorialPower(1)).coeffs == {
        (0,): F(1, 2), (2,): F(-12)}


def test_mpf_series_and_multipliers_pass_through():
    backend = BigFloatBackend(96)
    mpf = backend.scalar
    f = P({(0,): mpf(3), (2,): mpf(F(1, 3))})
    two = mpf(2)
    assert exact_multiplier(two) is two
    assert exact_multiplier(F(3, 2)) == F(3, 2)
    assert exact_multiplier(F(4, 2)) == 2 and type(exact_multiplier(F(4))) is int
    assert f.scale(two).coeffs == {k: v * two for k, v in f.coeffs.items()}
    left = P({(1,): mpf(F(1, 7))})
    assert left.multiply(f).coeffs == {(1,): mpf(F(1, 7)) * mpf(3),
                                       (3,): mpf(F(1, 7)) * mpf(F(1, 3))}
    seq = FactorialPower(1, backend)
    derived = f.moment_derive(0, seq)
    assert derived.coeffs == {(1,): mpf(F(1, 3)) * seq.ratio(1)}
    for out in (f.scale(two), left.multiply(f), derived):
        assert _value_types(out) == {type(two)}


def test_moment_derive_constant_is_zero():
    f = P({(0,): F(5)})
    assert f.moment_derive(0, FactorialPower(1)).is_zero()


def test_moment_derive_validity_drop():
    f = P({(2,): F(1)}, valid=(10,))
    out = f.moment_derive(0, FactorialPower(1))
    assert out.valid == (9,)
    g = P({(2, 0): F(1)}, num_vars=2, valid=(10, None))
    out2 = g.moment_derive(1, FactorialPower(1))
    assert out2.valid == (10, None)


@given(f=sparse_polys(), g=sparse_polys(), c=st.integers(-5, 5))
@settings(max_examples=40, deadline=None)
def test_moment_derive_linearity(f, g, c):
    seq = QFactorial(F(1, 3))
    lhs = (f + g).moment_derive(0, seq)
    rhs = f.moment_derive(0, seq) + g.moment_derive(0, seq)
    assert lhs.coeffs == rhs.coeffs
    assert f.scale(c).moment_derive(0, seq).coeffs == \
        f.moment_derive(0, seq).scale(c).coeffs


@given(f=sparse_polys(num_vars=1))
@settings(max_examples=40, deadline=None)
def test_moment_derive_matches_classical_derivative(f):
    out = f.moment_derive(0, FactorialPower(1))
    classical = {}
    for (n,), v in f.coeffs.items():
        if n:
            classical[(n - 1,)] = classical.get((n - 1,), 0) + n * v
    assert out.coeffs == {k: v for k, v in classical.items() if v != 0}


# m(n) alternates 1, 1/2: each one-step ratio is 1/2 or 2, each two-step
# ratio is 1, so an order-2 pass turns an int into an int where two order-1
# passes made an integral Fraction
SEESAW = ["1", "1/2"] * 5


def derive_sequences(backend):
    return {
        "factorial_power": FactorialPower(2, backend),
        "gamma": GammaSequence(2, backend),
        "q_factorial": QFactorial(F(1, 2), backend),
        "product": ProductSequence(FactorialPower(1, backend),
                                   QFactorial(F(1, 3), backend)),
        "quotient": QuotientSequence(FactorialPower(2, backend),
                                     FactorialPower(1, backend)),
        "table": TableSequence(SEESAW, 1, backend),
    }


def derive_data(scalar):
    """A dense 2-variable series to degrees (6, 5), ints and Fractions."""
    return P({(a, b): scalar(F(a - 2 * b + 7, 1 + (a + b) % 3))
              for a in range(7) for b in range(6)}, num_vars=2, valid=(8, 7))


def k_passes(f, axis, seq, k):
    for _ in range(k):
        f = f.moment_derive(axis, seq)
    return f


@pytest.mark.parametrize("backend", [RationalBackend(), BigFloatBackend(96)],
                         ids=["rational", "bigfloat"])
@pytest.mark.parametrize("kind", sorted(derive_sequences(RationalBackend())))
def test_one_order_k_pass_equals_k_order_1_passes(backend, kind):
    scalar = exact_multiplier if backend.exact else backend.scalar
    f = derive_data(scalar)
    for axis in (0, 1):
        top = f.degree(axis)
        for k in (0, 1, 2, 3, top, top + 1, top + 3):
            # a fresh sequence each time, so no table is filled in advance
            want = k_passes(f, axis, derive_sequences(backend)[kind], k)
            got = f.moment_derive(axis, derive_sequences(backend)[kind], k)
            assert list(got.coeffs) == list(want.coeffs), (axis, k)
            assert got.coeffs == want.coeffs, (axis, k)
            assert got.valid == want.valid, (axis, k)
            if k > top:
                lowered = list(f.valid)
                lowered[axis] -= k
                assert got.is_zero() and got.valid == tuple(lowered)
            if backend.exact:
                assert [_fmt(v) for v in got.coeffs.values()] == \
                    [_fmt(v) for v in want.coeffs.values()]
            else:
                assert _value_types(got) <= {type(backend.one())}


def test_order_k_pass_may_return_an_int_for_an_integral_fraction():
    # seesaw steps 1/2 and 2: two passes leave a Fraction, one order-2 pass
    # an int of the same value, which the writer, the Nagumo norm and the
    # residual's integer scale treat alike
    f = P({(g,): 3 * g + 1 for g in range(9)}, valid=(8,))
    want = k_passes(f, 0, TableSequence(SEESAW, 1), 2)
    got = f.moment_derive(0, TableSequence(SEESAW, 1), 2)
    assert got.coeffs == want.coeffs
    assert _value_types(want) == {Fraction} and _value_types(got) == {int}
    assert [_fmt(v) for v in got.coeffs.values()] == \
        [_fmt(v) for v in want.coeffs.values()]
    for alpha in ((0,), (1,), (3,)):
        params = NagumoParams(alpha, F(1, 3), (1,))
        assert nagumo_norm(got, params) == nagumo_norm(want, params)
    scale = math.lcm(*(v.denominator for v in got.coeffs.values()))
    assert scale == math.lcm(*(v.denominator for v in want.coeffs.values()))
    assert _scaled(got, 6).coeffs == _scaled(want, 6).coeffs


def test_a_table_too_short_for_the_axis_still_raises():
    short = P({(g,): F(g + 1) for g in range(7)})
    for k in (1, 2, 8):
        with pytest.raises(SequenceError, match=r"table holds 5 values; "
                                                r"m\(5\) is out of range"):
            short.moment_derive(0, TableSequence(["1", "2", "6", "24", "120"], 1), k)
    # an axis the derivative does not act on is not read
    two = P({(1, g): F(1) for g in range(7)}, num_vars=2)
    out = two.moment_derive(0, TableSequence(["1", "2"], 1))
    assert out.coeffs == {(0, g): 2 for g in range(7)}


def test_filling_the_table_reads_only_ratios_the_per_key_loop_read(monkeypatch):
    # The per-key loop read ratio(n - i) for every key of degree n and every
    # pass i <= min(k, n); on data of every degree up to the top, the table
    # reads that same set, each index once per sequence
    reads = []
    ratio = MomentSequence.ratio

    def counted(self, n):
        reads.append((self, n))
        return ratio(self, n)

    monkeypatch.setattr(MomentSequence, "ratio", counted)
    f = geometric_series(2, F(2, 3), (6, 4))
    for axis in (0, 1):
        degrees = {key[axis] for key in f.coeffs}
        for k in (1, 2, 3, 9):
            for seq in (FactorialPower(2), TableSequence(SEESAW, 1)):
                reads.clear()
                f.moment_derive(axis, seq, k)
                own = [n for owner, n in reads if owner is seq]
                assert sorted(own) == sorted(
                    {n - i for n in degrees for i in range(1, min(k, n) + 1)})
                reads.clear()
                f.moment_derive(axis, seq, k)
                f.moment_derive(axis, seq, 1)
                assert not reads


def test_ell1_norm_values():
    assert P({(0,): F(2), (1,): F(3)}).ell1_norm(F(1, 2)) == F(7, 2)
    assert P({(0,): F(1)}).ell1_norm(F(7)) == 1
    assert P({(1, 1): F(1)}, num_vars=2).ell1_norm(F(2)) == 4


@given(f=sparse_polys(), c=st.integers(-6, 6))
@settings(max_examples=40, deadline=None)
def test_ell1_homogeneous_and_monotone(f, c):
    r1, r2 = F(1, 3), F(1, 2)
    assert f.scale(c).ell1_norm(r1) == abs(c) * f.ell1_norm(r1)
    assert f.ell1_norm(r1) <= f.ell1_norm(r2)


def test_geometric_generator():
    g = geometric_series(1, 1, (6,))
    assert g.valid == (6,)
    assert all(g.coefficient((k,)) == 1 for k in range(7))
    half = geometric_series(2, F(1, 2), (2, 2))
    assert half.coefficient((1, 1)) == F(1, 4)
    assert half.valid == (2, 2)


def test_exponential_generator():
    e = exponential_series(1, 1, (6,))
    for k in range(7):
        assert e.coefficient((k,)) == F(1, math.factorial(k))
    assert e.valid == (6,)


def test_evaluate_complex():
    f = P({(0,): F(1), (2,): F(-1)})
    val = f.evaluate((0.5 + 0j,))
    assert abs(val - 0.75) < 1e-12


def test_equality_on_common_region():
    f = P({(0,): F(1), (1,): F(1)}, valid=(1,))
    g = P({(0,): F(1), (1,): F(1), (5,): F(9)}, valid=(5,))
    assert f == g  # they agree up to degree 1
    h = P({(0,): F(2)}, valid=(1,))
    assert f != h


def test_timeseries_ord_t():
    z = PolySeries.zero(1)
    one_plus_z = P({(0,): F(1), (1,): F(1)})
    assert TimeSeries([z, one_plus_z]).ord_t() == 1
    assert TimeSeries([P({(0,): F(-1)})]).ord_t() == 0
    with pytest.raises(ValueError):
        TimeSeries([z, z]).ord_t()


def test_timeseries_tail_exact_coefficient():
    series = TimeSeries([P({(0,): F(1)})], tail_exact=True)
    assert series.coefficient(5).is_zero()
    truncated = TimeSeries([P({(0,): F(1)})], tail_exact=False)
    with pytest.raises(IndexError):
        truncated.coefficient(5)


def test_timeseries_reach_stops_at_the_stored_range_only_when_tail_exact():
    entries = [P({(0,): F(1)}), P({(1,): F(2)})]
    assert TimeSeries(entries, tail_exact=True).reach(7) == 1
    assert TimeSeries(entries, tail_exact=True).reach(0) == 0
    assert TimeSeries(entries, tail_exact=False).reach(7) == 7


# -- the big-float kernels against the formulas they replaced -----------------
#
# Each kernel below must give the mpf of the formula it replaced bit for bit,
# so every comparison is on (key, _mpf_) pairs in dict order.

PRECISIONS = (24, 53, 256)


def _bits(series: PolySeries) -> list:
    return [(k, v._mpf_) for k, v in series.coeffs.items()]


def _same(a, b) -> bool:
    """Equal type, and an mpf's _mpf_ tuple or else the value."""
    return type(a) is type(b) and getattr(a, "_mpf_", a) == getattr(b, "_mpf_", b)


def _random_mpf_series(rng, backend, num_vars, valid=None, size=40):
    """Random mpfs of every sign over a wide exponent range."""
    ctx = backend.ctx
    coeffs = {}
    for _ in range(size):
        key = tuple(rng.randint(0, 9) for _ in range(num_vars))
        man = rng.getrandbits(backend.precision_bits) | 1
        coeffs[key] = ctx.ldexp(ctx.mpf(rng.choice((1, -1)) * man),
                                rng.randint(-3 * backend.precision_bits, 40))
    return PolySeries(num_vars, coeffs, valid)


def _old_ell1(f: PolySeries, r):
    total = None
    for exponents in f.support():
        term = abs(f.coeffs[exponents]) * r ** sum(exponents)
        total = term if total is None else total + term
    return r * 0 if total is None else total


def _old_add(f: PolySeries, g: PolySeries) -> PolySeries:
    out = dict(f.coeffs)
    for key, value in g.coeffs.items():
        if key in out:
            value = out[key] + value
            if value == 0:
                del out[key]
                continue
        out[key] = value
    valid = min_validity(f.valid, g.valid)
    return PolySeries(f.num_vars, out, valid)


def _old_multiply(f: PolySeries, g: PolySeries) -> PolySeries:
    valid = min_validity(f.valid, g.valid)
    out = {}
    for ea, va in sorted(f.coeffs.items()):
        for eb, vb in sorted(g.coeffs.items()):
            key = tuple(a + b for a, b in zip(ea, eb))
            if any(v is not None and k > v for k, v in zip(key, valid)):
                continue
            out[key] = out[key] + va * vb if key in out else va * vb
    return PolySeries(f.num_vars, {k: v for k, v in out.items() if v != 0},
                      valid)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("num_vars", [1, 2])
def test_shared_power_table_matches_the_per_term_power(precision, num_vars):
    rng = random.Random(precision * 10 + num_vars)
    backend = BigFloatBackend(precision)
    series = [_random_mpf_series(rng, backend, num_vars) for _ in range(6)]
    series.append(PolySeries(num_vars, {}, None))
    for rho in (F(1, 3), F(3, 7), F(1, 4)):
        powers: dict = {}
        for f in series:
            want = _old_ell1(f, rho)
            assert _same(f.ell1_norm(rho, powers), want)
            assert _same(f.ell1_norm(rho), want)
        assert set(powers) == {sum(k) for f in series for k in f.coeffs}
    for one in (1, F(1), backend.one()):
        for f in series:
            assert _same(f.ell1_norm(one), _old_ell1(f, one))


@pytest.mark.parametrize("precision", PRECISIONS)
def test_sub_matches_add_of_the_negation(precision):
    rng = random.Random(precision)
    backend = BigFloatBackend(precision)
    for num_vars, valid in ((1, (None,)), (1, (5,)), (2, (7, None))):
        f = _random_mpf_series(rng, backend, num_vars, valid)
        g = _random_mpf_series(rng, backend, num_vars)
        # exact cancellations: g repeats some of f's values
        shared = dict(g.coeffs)
        shared.update(list(f.coeffs.items())[::3])
        g = PolySeries(num_vars, shared)
        for a, b in ((f, g), (g, f), (f, f)):
            got = a.sub(b)
            want = _old_add(a, b.neg())
            assert got.valid == want.valid
            assert _bits(got) == _bits(want)
        assert f.sub(f).is_zero()
        assert any(k not in g.sub(f).coeffs for k in f.coeffs if k in g.coeffs)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_constant_left_multiply_matches_the_pair_loop(precision):
    rng = random.Random(precision + 1)
    backend = BigFloatBackend(precision)
    ctx = backend.ctx
    for num_vars in (1, 2):
        right = _random_mpf_series(rng, backend, num_vars, (None,) * num_vars)
        clipped = _random_mpf_series(rng, backend, num_vars, (6,) * num_vars)
        for valid in ((None,) * num_vars, (4,) * num_vars):
            constant = PolySeries.constant(num_vars, ctx.mpf(-3) / 7, valid)
            for g in (right, clipped):
                got = constant.multiply(g)
                want = _old_multiply(constant, g)
                assert got.valid == want.valid
                assert _bits(got) == _bits(want)
    # cancelled zeros on the pair loop: (1 + z)(1 - z) = 1 - z^2
    one = ctx.mpf(1)
    f = PolySeries(1, {(0,): one, (1,): one})
    g = PolySeries(1, {(0,): one, (1,): -one})
    assert _bits(f.multiply(g)) == _bits(_old_multiply(f, g))
    assert sorted(f.multiply(g).coeffs) == [(0,), (2,)]


@pytest.mark.parametrize("precision", PRECISIONS)
def test_fmt_of_an_mpf_matches_its_fraction(precision):
    rng = random.Random(precision + 2)
    ctx = BigFloatBackend(precision).ctx
    values = [ctx.mpf(0), ctx.mpf(1), ctx.mpf(-1), ctx.mpf(-6), ctx.mpf(2) ** 90,
              -ctx.mpf(3) * ctx.mpf(2) ** 200, ctx.mpf(1) / 3,
              -ctx.mpf(2) ** -1000, ctx.mpf(5) ** -400]
    for _ in range(200):
        man = rng.getrandbits(precision) | 1
        values.append(ctx.ldexp(ctx.mpf(rng.choice((1, -1)) * man),
                                rng.randint(-4 * precision, 2 * precision)))
    assert any(v._mpf_[2] >= 0 for v in values if v)
    for value in values:
        assert _fmt(value) == str(scalar_to_fraction(value))
    for value in (ctx.inf, -ctx.inf, ctx.nan):
        with pytest.raises(PrecisionError):
            _fmt(value)
