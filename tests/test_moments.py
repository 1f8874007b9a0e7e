"""Moment-sequence values, ratios, and regularity constants."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpde import (
    BackendError,
    BigFloatBackend,
    FactorialPower,
    GammaSequence,
    ProductSequence,
    QFactorial,
    QuotientSequence,
    SequenceError,
    TableSequence,
)
from momentpde.backends import RationalBackend


def q_bracket(q: Fraction, k: int) -> Fraction:
    """Direct-formula oracle: [k]_q = (q^k - 1)/(q - 1)."""
    return (q ** k - 1) / (q - 1)


def q_factorial_oracle(q: Fraction, n: int) -> Fraction:
    """Direct multiplication oracle for [n]_q!."""
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= q_bracket(q, k)
    return out


def test_factorial_power_values():
    seq = FactorialPower(1)
    assert seq.value(5) == 120
    assert seq.value(0) == 1
    assert seq.ratio(3) == 4


def test_q_factorial_value_against_direct_product():
    q = Fraction(1, 2)
    seq = QFactorial(q)
    # frozen from the direct multiplication oracle: [1]*[2]*[3] = 1*(3/2)*(7/4)
    assert q_factorial_oracle(q, 3) == Fraction(21, 8)
    assert seq.value(3) == Fraction(21, 8)
    for n in range(12):
        assert seq.value(n) == q_factorial_oracle(q, n)


def test_q_factorial_ratio_is_bracket():
    q = Fraction(1, 2)
    seq = QFactorial(q)
    assert q_bracket(q, 3) == Fraction(7, 4)
    assert seq.ratio(2) == Fraction(7, 4)


def test_gamma_half_at_even_index():
    backend = BigFloatBackend(128)
    seq = GammaSequence(Fraction(1, 2), backend)
    # Gamma(1 + 4/2) = Gamma(3) = 2
    assert abs(seq.value(4) - 2) < 1e-30


def test_gamma_integer_order_is_exact():
    seq = GammaSequence(2)
    assert isinstance(seq.value(3), Fraction)
    assert seq.value(3) == math.factorial(6)
    # Gamma(5)/Gamma(3) = 12, exact at integer arguments
    assert seq.ratio(1) == 12


def test_regularity_constants_factorial():
    seq = FactorialPower(1)
    c, big_c = seq.regularity_constants(50)
    assert (c, big_c) == (1, 1)


def test_regularity_constants_q_factorial():
    seq = QFactorial(Fraction(1, 2))
    c, big_c = seq.regularity_constants(50)
    assert c == 1
    # sup of [n+1]_q is 1/(1-q) = 2
    assert abs(float(big_c) - 2) < 1e-12


def test_regularity_constants_are_memoised_per_n_max():
    seq = QFactorial(Fraction(1, 3))
    first = seq.regularity_constants(6)
    assert seq.regularity_constants(6) is first
    assert QFactorial(Fraction(1, 3)).regularity_constants(6) == first
    assert seq.regularity_constants(7) != first


def test_regularity_constants_gamma_half_sandwich():
    backend = BigFloatBackend(192)
    seq = GammaSequence(Fraction(1, 2), backend)
    c, big_c = seq.regularity_constants(20)
    assert 0 < c <= big_c
    # independent re-scan of the sandwich, not via the same minimum/maximum
    for n in range(21):
        bound = backend.power(n + 1, Fraction(1, 2))
        assert c * bound <= seq.ratio(n) * (1 + backend.residual_tolerance)
        assert seq.ratio(n) <= big_c * bound * (1 + backend.residual_tolerance)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FactorialPower(1),
        lambda: FactorialPower(2),
        lambda: QFactorial(Fraction(1, 2)),
        lambda: QFactorial(Fraction(2, 3)),
        lambda: GammaSequence(1),
    ],
)
def test_ratio_consistency_exact_to_200(make):
    seq = make()
    for n in range(200):
        assert seq.value(n) > 0
        assert seq.value(n + 1) == seq.value(n) * seq.ratio(n)


def test_ratio_consistency_bigfloat():
    backend = BigFloatBackend(256)
    seq = GammaSequence(Fraction(1, 3), backend)
    tol = 2.0 ** (-128)
    for n in range(0, 200, 7):
        lhs = seq.value(n + 1)
        rhs = seq.value(n) * seq.ratio(n)
        assert abs(float((lhs - rhs) / lhs)) < tol


def test_product_and_quotient_compose():
    fp = FactorialPower(1)
    qf = QFactorial(Fraction(1, 2))
    prod = ProductSequence(fp, qf)
    assert prod.order == 1
    quot = QuotientSequence(prod, qf)
    assert quot.order == 1
    for n in range(20):
        assert prod.value(n) == fp.value(n) * qf.value(n)
        assert quot.value(n) == prod.value(n) / qf.value(n)
        assert prod.ratio(n) == fp.ratio(n) * qf.ratio(n)


def test_quotient_negative_order_rejected():
    with pytest.raises(SequenceError):
        QuotientSequence(QFactorial(Fraction(1, 2)), FactorialPower(1))


def test_table_sequence_range_error():
    seq = TableSequence(["1", "2", "6"], order=1)
    assert seq.value(2) == 6
    with pytest.raises(SequenceError):
        seq.value(3)


def test_table_must_start_at_one():
    with pytest.raises(SequenceError):
        TableSequence(["2", "3"], order=0)


def test_irrational_sequence_needs_bigfloat():
    with pytest.raises(BackendError):
        FactorialPower(Fraction(1, 2))
    seq = FactorialPower(Fraction(1, 2), BigFloatBackend(64))
    assert abs(float(seq.value(2)) - math.sqrt(2)) < 1e-15


def test_gamma_ratio_with_fractional_order_needs_bigfloat():
    # Gamma(1 + n/2) is not rational: ratio() must refuse as value() does,
    # not return the empty product 1, or derivatives built on the
    # multiplier lists come out wrong with no error
    seq = GammaSequence(Fraction(1, 2), RationalBackend())
    with pytest.raises(BackendError):
        seq.value(1)
    for n in (0, 3):
        with pytest.raises(BackendError):
            seq.ratio(n)
    with pytest.raises(BackendError):
        seq.multipliers(1, 4)


@given(s=st.integers(min_value=0, max_value=3), n=st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_factorial_power_ratio_identity(s, n):
    seq = FactorialPower(s)
    assert seq.value(n + 1) == seq.value(n) * seq.ratio(n)
    assert seq.value(n) == Fraction(math.factorial(n)) ** s


def test_multiplier_lists_hold_exact_value_ratios():
    seqs = (FactorialPower(2), QFactorial(Fraction(1, 2)),
            QuotientSequence(FactorialPower(2), FactorialPower(1)),
            GammaSequence(2), GammaSequence(3))
    for seq in seqs:
        for k in (1, 2, 3):
            table = seq.multipliers(k, 9)
            assert len(table) >= 9 - k + 1
            for g in range(9 - k + 1):
                want = seq.value(g + k) / seq.value(g)
                assert table[g] == want
                # an integral entry is an int, any other a Fraction
                assert type(table[g]) is (int if want.denominator == 1 else Fraction)
        # filled lists only grow: a lower top returns the same list
        assert seq.multipliers(2, 4) is seq.multipliers(2, 9)
