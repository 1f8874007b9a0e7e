"""PolySeries arithmetic, validity propagation, and moment derivatives."""

from __future__ import annotations

import math
import operator
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
from momentpde.series import (
    cleared,
    exact_multiplier,
    key_limit,
    min_validity,
    shift_within,
)

from helpers import equal_on_common_region, evaluate, support

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


def generic_product(f: PolySeries, g: PolySeries) -> dict:
    """The kernel's generic pair loop: sorted left by sorted right, each key
    the first pair's product plus the later ones in order (so an mpf sum
    rounds as the kernel's), keys within the common validity by the per-key
    test, zero sums dropped."""
    limit = key_limit(min_validity(f.valid, g.valid))
    out = {}
    for ea, va in sorted(f.coeffs.items()):
        for eb, vb in sorted(g.coeffs.items()):
            key = tuple(a + b for a, b in zip(ea, eb))
            if all(k <= m for k, m in zip(key, limit)):
                product = exact_multiplier(va) * vb
                out[key] = out[key] + product if key in out else product
    return {k: v for k, v in out.items() if v != 0}


def test_fraction_product_on_int_numerators_matches_the_pair_loop():
    # Fraction by Fraction runs on ints over lcm_f * lcm_g: the same values,
    # all Fractions, in the generic loop's key order, within the validity
    rng = random.Random(16)
    for trial in range(300):
        num_vars = 1 + trial % 3
        operands = []
        for _ in range(2):
            coeffs = {tuple(rng.randint(0, 3) for _ in range(num_vars)):
                      F(rng.randint(-6, 6) or 1, rng.randint(1, 6))
                      for _ in range(rng.randint(1, 6))}
            valid = tuple(rng.choice([None, None, 2, 4])
                          for _ in range(num_vars))
            operands.append(PolySeries(num_vars, coeffs, valid))
        f, g = operands
        product = f.multiply(g)
        assert list(product.coeffs.items()) == list(generic_product(f, g).items())
        assert all(type(v) is F for v in product.coeffs.values())
        assert product.valid == min_validity(f.valid, g.valid)


def test_fraction_product_edge_cases():
    # a cancelled pair sum is dropped
    f = P({(0,): F(1, 2), (1,): F(1, 3)})
    g = P({(0,): F(1, 2), (1,): F(-1, 3)})
    assert list((f * g).coeffs.items()) == [((0,), F(1, 4)), ((2,), F(-1, 9))]
    # every product past the validity: the zero series, validity kept
    empty = P({(2,): F(1, 2)}, valid=(3,)) * P({(2,): F(1, 3)})
    assert empty.coeffs == {} and empty.valid == (3,)
    # integral products stay Fractions
    product = P({(1,): F(1, 2), (2,): F(3, 2)}) * P({(1,): F(2)})
    assert list(product.coeffs.items()) == [((2,), F(1)), ((3,), F(3))]
    assert all(type(v) is F for v in product.coeffs.values())
    # finite validity drops the keys past it
    truncated = P({(0,): F(1, 3), (2,): F(2, 5)}, valid=(3,)) * P(
        {(1,): F(5, 7), (2,): F(1, 2)})
    assert truncated.valid == (3,)
    assert list(truncated.coeffs.items()) == [((1,), F(5, 21)),
                                              ((2,), F(1, 6)),
                                              ((3,), F(2, 7))]


def test_mixed_int_and_fraction_product_keeps_the_generic_path():
    # one int value sends the product down the generic loop, whose int by
    # int products stay ints
    f = P({(0,): 2, (1,): F(1, 2)})
    g = P({(1,): 3, (2,): F(1, 3)})
    product = f * g
    assert list(product.coeffs.items()) == list(generic_product(f, g).items())
    assert type(product.coeffs[(1,)]) is int
    assert type(product.coeffs[(2,)]) is F
    assert type((g * f).coeffs[(1,)]) is int


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


def derive_data(scalar, num_vars=2):
    """A dense series to degrees (6, 5), or (6, 5, 3) in three variables,
    ints and Fractions."""
    if num_vars == 3:
        return P({(a, b, c): scalar(F(a - 2 * b + 3 * c + 7,
                                      1 + (a + b + c) % 3))
                  for a in range(7) for b in range(6) for c in range(4)},
                 num_vars=3, valid=(8, 7, 5))
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
                assert _value_types(got) <= {type(backend.scalar(1))}


@pytest.mark.parametrize("backend", [RationalBackend(), BigFloatBackend(96)],
                         ids=["rational", "bigfloat"])
@pytest.mark.parametrize("kind", sorted(derive_sequences(RationalBackend())))
def test_one_order_k_pass_equals_k_order_1_passes_in_three_variables(
        backend, kind):
    # three variables take the generic sliced-key form
    scalar = exact_multiplier if backend.exact else backend.scalar
    f = derive_data(scalar, 3)
    for axis in (0, 1, 2):
        for k in (1, 2, f.degree(axis), f.degree(axis) + 1):
            want = k_passes(f, axis, derive_sequences(backend)[kind], k)
            got = f.moment_derive(axis, derive_sequences(backend)[kind], k)
            assert list(got.coeffs.items()) == list(want.coeffs.items())
            assert got.valid == want.valid
            assert [_fmt(v) for v in got.coeffs.values()] == \
                [_fmt(v) for v in want.coeffs.values()]


def lifted(f):
    """A 2-variable series as a 3-variable one constant in z3."""
    return P({g + (0,): v for g, v in f.coeffs.items()}, num_vars=3,
             valid=f.valid + (None,))


@pytest.mark.parametrize("backend", [RationalBackend(), BigFloatBackend(96)],
                         ids=["rational", "bigfloat"])
@pytest.mark.parametrize("kind", sorted(derive_sequences(RationalBackend())))
def test_two_variable_derivative_equals_the_generic_form(backend, kind):
    # the unpacked two-variable keys against the sliced keys of the same
    # series lifted to three variables: key for key, in order, on each axis
    scalar = exact_multiplier if backend.exact else backend.scalar
    f = derive_data(scalar)
    for axis in (0, 1):
        for k in (1, 2, 3, f.degree(axis)):
            got = f.moment_derive(axis, derive_sequences(backend)[kind], k)
            want = lifted(f).moment_derive(axis, derive_sequences(backend)[kind],
                                           k)
            assert [(g + (0,), v) for g, v in got.coeffs.items()] \
                == list(want.coeffs.items()), (axis, k)
            assert got.valid + (None,) == want.valid
            assert [_fmt(v) for v in got.coeffs.values()] == \
                [_fmt(v) for v in want.coeffs.values()]


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
    assert cleared(got.coeffs.items(), 6) == cleared(want.coeffs.items(), 6)


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


def test_ell1_of_int_values_at_a_rational_radius_is_the_fraction_sum():
    # int values at r = p/q take one int sum over q^top; the value and type
    # are those of the sum of |v| r^d over the same values as Fractions
    rng = random.Random(5)
    for _ in range(200):
        nv = rng.randint(1, 3)
        coeffs = {tuple(rng.randint(0, 6) for _ in range(nv)):
                  rng.choice([-1, 1]) * rng.randint(1, 10 ** 40)
                  for _ in range(rng.randint(1, 12))}
        ints = PolySeries(nv, coeffs)
        fractions = PolySeries(nv, {g: F(v) for g, v in coeffs.items()})
        for r in (F(1, 4), F(3, 7), F(5, 2), F(1), F(2)):
            got = ints.ell1_norm(r)
            assert type(got) is Fraction
            assert got == fractions.ell1_norm(r)


def test_ell1_of_fraction_values_at_a_rational_radius_is_the_per_term_sum():
    # Fraction values at r = p/q take one int sum over L q^top, L the
    # values' lcm; the result is the Fraction sum of |v| r^d term by term
    rng = random.Random(6)
    cases = [{}, {(0,): F(-3, 7)}, {(5,): F(2, 9)}]
    for _ in range(200):
        nv = rng.randint(1, 3)
        cases.append({
            tuple(rng.randint(0, 6) for _ in range(nv)):
            F(rng.randint(-10 ** 30, 10 ** 30) or 1, rng.randint(1, 10 ** 9))
            for _ in range(rng.randint(1, 12))})
    for coeffs in cases:
        nv = len(next(iter(coeffs), (0,)))
        f = PolySeries(nv, coeffs)
        for r in (F(1, 4), F(3, 7), F(5, 2), F(1), F(2)):
            want = F(0)
            for g, v in coeffs.items():
                want += abs(v) * r ** sum(g)
            got = f.ell1_norm(r)
            assert type(got) is Fraction
            assert got == want


@pytest.mark.parametrize("kind", ["int", "fraction", "mpf"])
def test_constant_one_left_multiply_does_no_arithmetic(kind):
    # 1 * g is g's items, restricted to the validity, in sorted key order,
    # each value the very object g holds
    ctx = BigFloatBackend(53).ctx
    one, lift = {"int": (1, int), "fraction": (F(1), F),
                 "mpf": (ctx.mpf(1), ctx.mpf)}[kind]
    rng = random.Random(kind)
    g = PolySeries(1, {(k,): lift(rng.randint(-99, 99) or 1)
                       for k in rng.sample(range(20), 12)}, (15,))
    for valid in ((None,), (9,)):
        got = PolySeries.constant(1, one, valid).multiply(g)
        want = _old_multiply(PolySeries.constant(1, one, valid), g)
        assert got.valid == want.valid
        assert list(got.coeffs) == sorted(want.coeffs)
        assert all(v is g.coeffs[k] for k, v in got.coeffs.items())
        assert all(getattr(v, "_mpf_", v) == getattr(want.coeffs[k], "_mpf_",
                                                     want.coeffs[k])
                   for k, v in got.coeffs.items())


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
    val = evaluate(f, (0.5 + 0j,))
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


def _old_ell1(f: PolySeries, r, convert=None):
    """The per-term sum; convert, where given, takes each power r^d into
    the values' domain first."""
    total = None
    for exponents in support(f):
        power = r ** sum(exponents)
        if convert is not None:
            power = convert(power)
        term = abs(f.coeffs[exponents]) * power
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
            # each power rounded to nearest, as the backend rounds a Fraction
            want = _old_ell1(f, rho, backend.scalar)
            assert _same(f.ell1_norm(rho, powers), want)
            assert _same(f.ell1_norm(rho), want)
        assert set(powers) == {sum(k) for f in series for k in f.coeffs}
    for one in (1, F(1), backend.scalar(1)):
        for f in series:
            assert _same(f.ell1_norm(one), _old_ell1(f, one))


def test_power_table_rounds_each_fraction_power_to_nearest():
    # at 24 bits 18 of the powers (1/3)^d, d = 1..39, round differently
    # toward zero (an mpf times a Fraction) and to nearest; the table holds
    # the nearest, backend.scalar's value, so ell1_norm and the backend
    # follow one rule
    backend = BigFloatBackend(24)
    rho = F(1, 3)
    f = PolySeries(1, {(d,): backend.scalar(1) for d in range(40)})
    powers: dict = {}
    f.ell1_norm(rho, powers)
    toward_zero = 0
    for d in range(1, 40):
        assert powers[d]._mpf_ == backend.scalar(rho ** d)._mpf_
        toward_zero += (backend.scalar(1) * rho ** d)._mpf_ != powers[d]._mpf_
    assert toward_zero == 18


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


# -- the axis-wise validity truncation against the per-key test ----------------
#
# add, sub, multiply and the exact recurrence drop keys past a validity only
# on the axes where a key can pass it (series.shift_within); each result
# must equal the per-key all(map(operator.le, ...)) filter of the same loop:
# the same keys in the same order, and the same values, types and mpf bits.

EDGE_VALIDITIES = (None, 0, 2, 4)


def _edge_series(rng, num_vars, kind):
    """Random keys within a validity drawn from EDGE_VALIDITIES, half of
    their entries on its edge, with values of one kind."""
    valid = tuple(rng.choice(EDGE_VALIDITIES) for _ in range(num_vars))
    ctx = BigFloatBackend(kind).ctx if type(kind) is int else None
    coeffs = {}
    for _ in range(rng.randint(1, 8)):
        key = tuple(rng.randint(0, 5) if v is None
                    else rng.choice((v, rng.randint(0, v))) for v in valid)
        numerator = rng.randint(-6, 6) or 1
        if kind == "int":
            coeffs[key] = numerator
        elif kind == "fraction":
            coeffs[key] = F(numerator, rng.randint(1, 6))
        else:  # an mpf of that many bits, rounded where 1/3 is inexact
            coeffs[key] = ctx.mpf(numerator) / rng.randint(1, 7)
    return PolySeries(num_vars, coeffs, valid)


def _same_items(got: dict, want: dict) -> bool:
    return list(got) == list(want) and all(
        _same(got[k], want[k]) for k in got)


TRUNCATION_KINDS = [("int", "int"), ("int", "fraction"), ("fraction", "int"),
                    ("fraction", "fraction"), (53, 53), (256, 256)]


@pytest.mark.parametrize("kinds", TRUNCATION_KINDS)
def test_multiply_truncates_as_the_per_key_pair_loop(kinds):
    rng = random.Random(str(kinds))
    for trial in range(200):
        num_vars = 1 + trial % 3
        f, g = (_edge_series(rng, num_vars, kind) for kind in kinds)
        if trial % 5 == 0:  # the constant-left path
            f = PolySeries(num_vars, {(0,) * num_vars: next(
                iter(f.coeffs.values()))}, f.valid)
        product = f.multiply(g)
        assert product.valid == min_validity(f.valid, g.valid)
        assert _same_items(product.coeffs, generic_product(f, g)), (f, g)


@pytest.mark.parametrize("kinds", TRUNCATION_KINDS)
def test_add_and_sub_truncate_as_the_merged_per_key_filter(kinds):
    rng = random.Random(repr(kinds) + "add")
    for trial in range(200):
        num_vars = 1 + trial % 3
        f, g = (_edge_series(rng, num_vars, kind) for kind in kinds)
        if trial % 4 == 0:  # shared keys, some of which cancel
            g = PolySeries(num_vars, {**g.coeffs, **dict(
                list(f.coeffs.items())[::2])}, g.valid)
        # _old_add merges the whole operands and then filters every key
        for got, want in ((f.add(g), _old_add(f, g)),
                          (f.sub(g), _old_add(f, g.neg()))):
            assert got.valid == want.valid
            assert _same_items(got.coeffs, want.coeffs), (f, g)


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_equality_is_the_common_region_definition(kind):
    # == compares the dicts when both validities agree and filters the union
    # of the keys when they differ; the reference filters in every case
    rng = random.Random("eq" + kind)
    outcomes = set()
    for trial in range(600):
        num_vars = 1 + trial % 3
        f = _edge_series(rng, num_vars, kind)
        # every other g holds Fractions equal to f's values
        coeffs = {k: F(v) if trial % 2 else v for k, v in f.coeffs.items()}
        key = rng.choice(list(coeffs))
        edit = rng.randrange(4)
        if edit == 1:
            coeffs[key] += 1
        elif edit == 2:
            del coeffs[key]
        elif edit == 3:
            coeffs[tuple(rng.randint(0, 5) for _ in range(num_vars))] = 1
        valid = f.valid if rng.randrange(2) else tuple(
            rng.choice(EDGE_VALIDITIES) for _ in range(num_vars))
        g = PolySeries(num_vars, coeffs, valid)
        want = equal_on_common_region(f, g)
        assert (f == g) is want and (g == f) is want, (f, g)
        outcomes.add((f.valid == g.valid, want))
    assert outcomes == {(True, True), (True, False),
                        (False, True), (False, False)}


def test_shift_within_is_the_per_key_filter_of_the_shifted_keys():
    rng = random.Random(20)
    for trial in range(2000):
        num_vars = 1 + trial % 3
        source = _edge_series(rng, num_vars, "int")
        items = list(source.coeffs.items())
        beta = tuple(rng.choice((0, 0, 1, 2)) for _ in range(num_vars))
        target = tuple(rng.choice(EDGE_VALIDITIES) for _ in range(num_vars))
        limit = key_limit(target)
        want = []
        for key, value in items:
            shifted = tuple(map(operator.add, key, beta))
            if all(map(operator.le, shifted, limit)):
                want.append((shifted, value))
        assert list(shift_within(items, beta, source.valid, target)) == want
    # nothing moves or drops: items itself comes back
    items = list(PolySeries(2, {(0, 2): 1, (1, 1): 3}, (1, 2)).coeffs.items())
    assert shift_within(items, (0, 0), (1, 2), (1, None)) is items
    assert shift_within(items, (0, 0), (1, 2), (4, 2)) is items
