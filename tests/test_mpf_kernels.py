"""The big-float kernels on raw mpf values, against the mpf operators.

PolySeries.scale, moment_derive and ell1_norm, the solver's _derive and
_summed and the sum of MomentPDE.apply work on `_mpf_` tuples through
backends.MpfArith, which rounds each exact product and sum itself and
calls libmp only for zero and non-finite operands, sums across an exponent
gap of over 100 bits and sums of several products (backends module
docstring); the solution dump's value text reads the tuple.  So MpfArith's
mul, add, sub, neg and abs must be libmp's, bit for bit, on random and
edge-case tuples at every precision, and make no libmp call on the rest.
Each kernel must give, value for value, the `_mpf_` of the operator
expression it replaced (of ctx.fdot for a sum of several products, of the
kernels for apply, also on exact values, of scalar_to_fraction for the
text): the same keys in the same order, the same type, the same bits.
Every raw case runs with the context's mpf operators disabled, so it shows
that the raw path was taken; apply, whose parts come from multiply's
operator products, counts its sums instead.  Every scalar of a problem is in its backend's
domain, so a kernel reads its arithmetic off one value (backends module
docstring): operands of another domain (ints, Fractions, or mpfs of
mpmath's global context) must take the operators and give their result.
"""

from __future__ import annotations

import contextlib
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import (finf, fnan, fninf, fzero, mpf_abs, mpf_add, mpf_mul,
                          mpf_neg, mpf_sub, normalize, round_nearest)

from momentpde import (
    BigFloatBackend,
    FactorialPower,
    GammaSequence,
    PolySeries,
    QFactorial,
)
from momentpde import backends
from momentpde import pde as pde_module
from momentpde.backends import (mpf_arith, mpf_from_fraction,
                                scalar_to_fraction)
from momentpde.pde import validate
from momentpde.problem_io import _coefficients, load_problem
from momentpde.series import TimeSeries, min_validity
from momentpde.solver import _derive, _integer_recurrence, _summed

from helpers import reference_apply

F = Fraction

PRECISIONS = (24, 53, 256, 1024)
PROBLEMS = Path(__file__).parent / "problems"

# the operators a kernel could reach on an mpf; __eq__ and the order
# comparisons stay, as the kernels' `factor == 1` and `r > 0` tests use them
OPERATORS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
             "__rsub__", "__neg__", "__abs__", "__bool__")


@contextlib.contextmanager
def raw_only(ctx):
    """Any mpf operator on ctx's values raises inside the block."""
    def refuse(*args):
        raise AssertionError("an mpf operator ran on the raw path")

    for name in OPERATORS:
        setattr(ctx.mpf, name, refuse)
    try:
        yield
    finally:
        for name in OPERATORS:
            delattr(ctx.mpf, name)


def _mpf(rng, ctx, precision, specials=False):
    """A random mpf of either sign over a wide exponent range; with
    specials, sometimes inf, -inf or nan."""
    if specials and rng.random() < 0.15:
        return rng.choice((ctx.inf, -ctx.inf, ctx.nan))
    man = rng.getrandbits(precision) | 1
    return ctx.ldexp(ctx.mpf(rng.choice((1, -1)) * man),
                     rng.randint(-2 * precision, 40))


def _series(rng, backend, num_vars, size=24, valid=None, specials=False):
    ctx, bits = backend.ctx, backend.precision_bits
    coeffs = {tuple(rng.randint(0, 7) for _ in range(num_vars)):
              _mpf(rng, ctx, bits, specials) for _ in range(size)}
    return PolySeries(num_vars, coeffs, valid)


def _bits(values: dict) -> list:
    return [(k, type(v), getattr(v, "_mpf_", v)) for k, v in values.items()]


def _sequences(backend):
    return (FactorialPower(1, backend), GammaSequence(F(1, 2), backend),
            QFactorial(F(1, 3), backend))


# -- the operator formulas ----------------------------------------------------


def _scaled(f: PolySeries, factor) -> dict:
    return {k: v * factor for k, v in f.coeffs.items()}


def _derived(f: PolySeries, axis: int, seq, k: int) -> dict:
    """k order-1 passes: each value times its steps in turn."""
    steps = seq.multipliers(1, f.degree(axis))
    out = {}
    for e, v in f.coeffs.items():
        n = e[axis]
        if n >= k:
            for g in range(n - 1, n - k - 1, -1):
                v = v * steps[g]
            out[e[:axis] + (n - k,) + e[axis + 1:]] = v
    return out


def _merged(f: PolySeries, g: PolySeries, negate: bool) -> dict:
    """Both operands cut to the common validity, then merged key by key;
    a sum that is 0 drops its key."""
    valid = min_validity(f.valid, g.valid)

    def inside(key):
        return all(v is None or x <= v for x, v in zip(key, valid))

    out = {k: v for k, v in f.coeffs.items() if inside(k)}
    for key, value in g.coeffs.items():
        if not inside(key):
            continue
        if key in out:
            value = out[key] - value if negate else out[key] + value
            if not value:
                del out[key]
                continue
            out[key] = value
        else:
            out[key] = -value if negate else value
    return out


def _norm(f: PolySeries, r):
    """The per-term sum in sorted key order: abs(v) at r = 1, else abs(v)
    times r^d, a Fraction power rounded to nearest into the values'
    context."""
    total = None
    for key, value in sorted(f.coeffs.items()):
        term = abs(value)
        if r != 1:
            power = r ** sum(key)
            if type(power) is Fraction:
                power = mpf_from_fraction(type(value).context, power)
            term = term * power
        total = term if total is None else total + term
    return total


def _solver_derived(seqs, nums: dict, alpha) -> list:
    items = list(nums.items())
    for i, a in enumerate(alpha):
        if not a:
            continue
        top = max((g[i] for g, _ in items), default=-1)
        if top < a:
            return []
        table = seqs[i].multipliers(a, top)
        items = [(g[:i] + (g[i] - a,) + g[i + 1:], x * table[g[i] - a])
                 for g, x in items if g[i] >= a]
    return items


# -- raw path, bit for bit ----------------------------------------------------


@pytest.mark.parametrize("precision", PRECISIONS)
def test_scale_is_the_operator_product(precision):
    rng = random.Random(f"scale{precision}")
    backend = BigFloatBackend(precision)
    ctx = backend.ctx
    for trial in range(6):
        f = _series(rng, backend, 1 + trial % 3, specials=True)
        factor = _mpf(rng, ctx, precision)
        want = _scaled(f, factor)
        with raw_only(ctx):
            got = f.scale(factor)
        assert _bits(got.coeffs) == _bits(want)
        assert got.valid == f.valid


@pytest.mark.parametrize("precision", PRECISIONS)
def test_moment_derive_is_the_chain_of_operator_products(precision):
    rng = random.Random(f"derive{precision}")
    backend = BigFloatBackend(precision)
    for num_vars in (1, 2, 3):
        f = _series(rng, backend, num_vars, valid=(9,) * num_vars,
                    specials=True)
        for seq in _sequences(backend):
            for axis in range(num_vars):
                for k in (1, 2, 3):
                    want = _derived(f, axis, seq, k)
                    with raw_only(backend.ctx):
                        got = f.moment_derive(axis, seq, k)
                    assert _bits(got.coeffs) == _bits(want)
                    assert got.valid[axis] == 9 - k


def _within(f: PolySeries, valid) -> list:
    return [(k, v) for k, v in f.coeffs.items()
            if all(x is None or g <= x for g, x in zip(k, valid))]


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("negate", [False, True])
def test_add_and_sub_are_the_operator_merge(precision, negate):
    # add and sub take the operators on every domain; apply's raw sum,
    # MpfArith.combine, of the operands cut to their common validity and
    # with the factor 1 on the first, merges them with the same bits
    rng = random.Random(f"add{precision}{negate}")
    backend = BigFloatBackend(precision)
    ctx = backend.ctx
    one = backend.scalar(1)
    combine = mpf_arith(one).combine
    for trial in range(8):
        num_vars = 1 + trial % 3
        f = _series(rng, backend, num_vars, specials=True)
        # keys that cancel exactly, and inf + -inf, which is nan
        key = (1,) * num_vars
        f = PolySeries(num_vars, {**f.coeffs, key: ctx.inf}, None)
        shared = {k: v if negate else -v for k, v in
                  list(f.coeffs.items())[1::3]}
        shared[key] = ctx.inf if negate else -ctx.inf
        g = _series(rng, backend, num_vars, specials=True)
        # every other g has a smaller validity: both operands are cut first
        g = PolySeries(num_vars, {**g.coeffs, **shared},
                       (None if trial % 2 else 6,) * num_vars)
        want = _merged(f, g, negate)
        got = f.sub(g) if negate else f.add(g)
        assert _bits(got.coeffs) == _bits(want)
        assert got.valid == min_validity(f.valid, g.valid)
        with raw_only(ctx):
            raw = combine(_within(f, got.valid), one,
                          [(_within(g, got.valid), negate)])
        assert _bits(raw) == _bits(want)
        cancelled = [k for k, v in shared.items()
                     if max(k) <= 6 and ctx.isfinite(v)]
        assert cancelled and not any(k in got.coeffs for k in cancelled)
        assert got.coeffs[key]._mpf_ == mpmath.libmp.fnan
    # one empty side: the other's values, negated by sub
    f = _series(rng, backend, 2, specials=True)
    empty = PolySeries(2, {}, None)
    for a, b in ((f, empty), (empty, f)):
        want = _merged(a, b, negate)
        got = a.sub(b) if negate else a.add(b)
        assert _bits(got.coeffs) == _bits(want)
        with raw_only(ctx):
            raw = combine(a.coeffs.items(), one, [(b.coeffs.items(), negate)])
        assert _bits(raw) == _bits(want)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_ell1_norm_is_the_operator_sum(precision):
    rng = random.Random(f"norm{precision}")
    backend = BigFloatBackend(precision)
    ctx = backend.ctx
    radii = (1, F(1), backend.scalar(1), F(1, 3), F(5, 7),
             backend.scalar(F(2, 3)))
    tables = [{} for _ in radii]  # one power table per radius, shared
    for trial in range(4):
        f = _series(rng, backend, 1 + trial % 2, specials=trial == 3)
        for r, powers in zip(radii, tables):
            want = _norm(f, r)
            with raw_only(ctx):
                got = f.ell1_norm(r)
                shared = f.ell1_norm(r, powers)
            assert type(got) is type(want)
            assert got._mpf_ == want._mpf_ == shared._mpf_


@pytest.mark.parametrize("precision", PRECISIONS)
def test_solver_derive_and_summed_are_the_operator_products(precision):
    # _derive hands _summed the tuples of its products, and _summed wraps
    # each value of one group once
    rng = random.Random(f"solver{precision}")
    backend = BigFloatBackend(precision)
    ctx = backend.ctx
    seqs = _sequences(backend)
    for num_vars in (1, 2, 3):
        nums = _series(rng, backend, num_vars, specials=True).coeffs
        nums = dict(sorted(nums.items()))
        for alpha in ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 3, 0), (1, 2, 0),
                      (1, 1, 2)):
            alpha = alpha[:num_vars]
            want = _solver_derived(seqs, nums, alpha)
            with raw_only(ctx):
                items, den = _derive(seqs, nums, alpha)
            assert den == 1
            assert items == [(g, x._mpf_) for g, x in want]
        c = _mpf(rng, ctx, precision)
        items = [(g, x._mpf_) for g, x in nums.items()]
        with raw_only(ctx):
            got, den = _summed([(c, items)], backend)
        assert den == 1
        assert _bits(got) == _bits({g: c * x for g, x in nums.items()})


@pytest.mark.parametrize("precision", PRECISIONS)
def test_solver_sum_of_groups_is_fdot(precision):
    # a key of several pairs is ctx.fdot of them, a key of one pair its
    # product, and a key whose sum is 0 is not stored; the keys ascend
    rng = random.Random(f"groups{precision}")
    backend = BigFloatBackend(precision)
    ctx = backend.ctx
    for num_vars in (1, 2):
        groups = [(_mpf(rng, ctx, precision), sorted(_series(
            rng, backend, num_vars, size=16, specials=True).coeffs.items()))
            for _ in range(4)]
        c, x = _mpf(rng, ctx, precision), _mpf(rng, ctx, precision)
        key = (9,) * num_vars
        groups += [(c, [(key, x)]), (c, [(key, -x)])]  # c * x - c * x = 0
        pairs = {}
        for c, items in groups:
            for g, x in items:
                pairs.setdefault(g, []).append((c, x))
        want = {}
        for g in sorted(pairs):
            value = (ctx.fdot(pairs[g]) if len(pairs[g]) > 1
                     else pairs[g][0][0] * pairs[g][0][1])
            if value:
                want[g] = value
        assert key in pairs and key not in want
        assert any(len(cx) > 2 for cx in pairs.values())
        raw = [(c, [(g, x._mpf_) for g, x in items]) for c, items in groups]
        with raw_only(ctx):
            got, den = _summed(raw, backend)
        assert den == 1
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("precision", (24, 53, 256, "rational"))
@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_apply_is_the_kernels_sum(path, precision, monkeypatch):
    # apply's one sum per t-order, the domain's combine, gives the keys, key
    # order, types and values of the kernels' chain of add and sub: in big
    # float as tuples wrapped once; in exact mode on an int-valued stack as
    # the residual's D * u, whose values stay ints where the kernels keep
    # them so (heat_half and heat2d_var have L != 1, wave_tz2 M = 2, j = 1)
    exact = precision == "rational"
    problem = load_problem(path, {"backend": "rational"} if exact else
                           {"backend": "bigfloat", "precision_bits": precision})
    if not validate(problem).passed:
        pytest.skip("the problem needs the bigfloat backend")
    numerators, denominators = _integer_recurrence(problem)
    if exact:
        # (n + 1) * D * u_n: no solution of P u = f, so not every sum cancels
        scale = math.lcm(*denominators)
        numerators = [entry.scale((n + 1) * (scale // d)) for n, (entry, d)
                      in enumerate(zip(numerators, denominators))]
    u = TimeSeries(numerators)
    pde = problem.pde
    owner = pde_module if exact else mpf_arith(problem.backend.scalar(1))
    combine = owner.combine
    calls = []

    def counted(*args):
        calls.append(args)
        return combine(*args)

    monkeypatch.setattr(owner, "combine", counted)
    got = pde.apply(u)
    monkeypatch.undo()
    want = reference_apply(pde, u)
    assert len(calls) == len(want.entries) == len(got.entries)
    for a, b in zip(got.entries, want.entries):
        assert a.valid == b.valid
        assert _bits(a.coeffs) == _bits(b.coeffs)
    assert not exact or any(f.coeffs for f in got.entries)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_dump_text_of_an_mpf_is_its_fraction(precision):
    # integral, non-integral and cancelled values, over one powers memo
    rng = random.Random(f"text{precision}")
    backend = BigFloatBackend(precision)
    ctx = backend.ctx
    powers = {}
    for num_vars in (1, 2):
        f = _series(rng, backend, num_vars, size=40)
        f = PolySeries(num_vars, {**f.coeffs, (1,) * num_vars: ctx.mpf(-6),
                                  (2,) * num_vars: ctx.mpf(2) ** 90})
        with raw_only(ctx):
            got = _coefficients(f, 1, powers)
        assert got == [{"powers": list(g), "value": str(scalar_to_fraction(v))}
                       for g, v in sorted(f.coeffs.items())]
    assert powers and all(k < 0 for k in powers)


# -- values of no shared context take the operators ---------------------------


def _other_domains(rng):
    """A series of each domain whose values the raw path must refuse: mpfs
    of mpmath's global context, ints and Fractions."""
    keys = [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(24)]
    lifts = (lambda: mpmath.mpf(rng.randint(-99, 99) or 1) / 7,
             lambda: rng.randint(-99, 99) or 1,
             lambda: F(rng.randint(-99, 99) or 1, rng.randint(1, 9)))
    return [PolySeries(2, {k: lift() for k in keys}, (None, 6))
            for lift in lifts]


@pytest.mark.parametrize("precision", PRECISIONS)
def test_mixed_operands_take_the_operator_path(precision):
    # each operand holds values of one domain, as every problem does; a
    # kernel reads its arithmetic off one value, so these take the
    # operators, with the shared context's raw path refusing to run
    rng = random.Random(f"other{precision}")
    backend = BigFloatBackend(precision)
    assert mpf_arith(backend.scalar(1)) is not None
    factors = (mpmath.mpf(3) / 11, 5, F(2, 3))
    exact_seqs = (FactorialPower(1), QFactorial(F(1, 3)))
    for f, g, factor in zip(_other_domains(rng), _other_domains(rng),
                            factors):
        first = next(iter(f.coeffs.values()))
        assert mpf_arith(first) is None and mpf_arith(factor) is None
        with raw_only(backend.ctx):
            assert _bits(f.scale(factor).coeffs) == _bits(_scaled(f, factor))
            for negate in (False, True):
                assert _bits(f.add(g, negate=negate).coeffs) == _bits(
                    _merged(f, g, negate))
            exact = type(first) is int or type(first) is F
            for r in (1, F(1, 3)):
                got = f.ell1_norm(r)
                want = (F(sum(abs(v) * r ** sum(k)
                              for k, v in f.coeffs.items()))
                        if exact and r != 1 else _norm(f, r))
                assert type(got) is type(want)
                assert getattr(got, "_mpf_", got) == getattr(want, "_mpf_",
                                                             want)
            if not exact:
                got, den = _summed([(factor, list(f.coeffs.items()))],
                                   backend)
                assert den == 1
                assert _bits(got) == _bits(_scaled(f, factor))
                continue
            # exact values by exact multipliers: any order of the steps
            # gives the same value
            for seq in exact_seqs:
                for axis in (0, 1):
                    for k in (1, 2):
                        assert _bits(f.moment_derive(axis, seq, k).coeffs) \
                            == _bits(_derived(f, axis, seq, k))
            seqs = (FactorialPower(1), FactorialPower(2))
            items, den = _derive(seqs, f.coeffs, (1, 2))
            assert den == 1  # integral multipliers
            assert _bits(dict(items)) == _bits(dict(_solver_derived(
                seqs, f.coeffs, (1, 2))))


def test_mpf_arith_reads_one_value():
    backend = BigFloatBackend(53)
    one = backend.scalar(1)
    arith = mpf_arith(one)
    assert arith is not None and mpf_arith(backend.scalar(F(1, 3))) is arith
    assert arith.product(one, one)._mpf_ == one._mpf_
    assert arith.sums([(one, [((0,), one._mpf_)]),
                       (-one, [((0,), one._mpf_)])]) == {}
    other = mpf_arith(BigFloatBackend(54).scalar(1))
    assert other is not None and other is not arith
    for value in (1, F(1, 3), mpmath.mpf(1), None):
        assert mpf_arith(value) is None


# -- MpfArith's own rounding, against libmp -----------------------------------


def _tuple(rng, precision, exp=None):
    """A random canonical tuple of 1 to precision bits, of either sign."""
    man = rng.getrandbits(rng.randint(1, precision)) | 1
    if exp is None:
        exp = rng.randint(-precision - 150, 150)
    return normalize(rng.getrandbits(1), man, exp, man.bit_length(),
                     precision, round_nearest)


def _edge_pairs(rng, p):
    """The (x, y) pairs where a rounding rule is easiest to get wrong."""
    def t(man, exp=0, sign=0):
        return normalize(sign, man, exp, man.bit_length(), p, round_nearest)

    top = (1 << p) - 1
    pairs = []
    # sums of p + 1 bits that end in 1: exact ties, the kept bits odd (up)
    # and even (down), and an all-ones mantissa that rounds to 2^(p + 1)
    for kept in (top, top - 1, top - 2, (1 << (p - 1)) + 1, 1 << (p - 1)):
        pairs.append((t(kept, 1), t(1)))
        pairs.append((t(kept, 1, 1), t(1, 0, 1)))
        pairs.append((t(1), t(kept, 1)))
    # a tie at the bottom of a long gap: 2^(n - 1) below the kept bits
    for n in (2, 40, 99):
        pairs.append((t(top - 1, n), t(1, n - 1)))
        pairs.append((t(top, n), t(1, n - 1)))
        pairs.append((t(top, n), t(3, n - 2)))  # just above the tie
        pairs.append((t(top - 1, n), t(1, n - 1, 1)))  # ties in a difference
    # products of p + 1 bits: an odd product drops one bit, always a tie
    # (its direction set by the kept bits), and (2^k - 1)(2^k + 1) is all
    # ones, which rounds up to a power of two
    k = p - 1
    pairs.append((t((1 << k) - 1), t((1 << k) + 1)))
    ties = {0: None, 1: None}
    while None in ties.values():
        a = rng.getrandbits(p // 2 + 1) | 1 | 1 << (p // 2)
        b = rng.getrandbits(p) | 1 | 1 << (p - 1)
        man = a * b
        if man.bit_length() > p + 1:
            b >>= man.bit_length() - p - 1
            b |= 1
            man = a * b
        if man.bit_length() == p + 1 and b.bit_length() <= p:
            ties[man >> 1 & 1] = (t(a, -3), t(b, 5, 1))
    pairs += ties.values()
    # cancellation to exactly zero, and a last-bit difference
    x = _tuple(rng, p)
    pairs += [(x, x), (x, mpf_neg(x)), (t(top), t(top - 2))]
    # exponent gaps on both sides of 100, the last that add forms exactly
    for gap in (0, 1, 100, 101, 10 ** 6):
        for sign in (1, -1):
            x, y = _tuple(rng, p, 0), _tuple(rng, p, 0)
            y = (y[0], y[1], x[2] - sign * gap, y[3])
            pairs += [(x, y), (y, x), (x, mpf_neg(y))]
    # zero, inf and nan against each other and a finite value
    specials = (fzero, finf, fninf, fnan, _tuple(rng, p))
    pairs += [(x, y) for x in specials for y in specials]
    return pairs


@pytest.mark.parametrize("precision", PRECISIONS)
def test_mpf_arith_rounds_as_libmp(precision):
    # one correctly rounded result: half to even at the context's precision,
    # odd mantissa, exact bit count, fzero for an exact zero
    arith = mpf_arith(BigFloatBackend(precision).scalar(1))
    p, rnd = precision, round_nearest
    rng = random.Random(3300 + precision)
    pairs = [(_tuple(rng, p), _tuple(rng, p)) for _ in range(3000)]
    pairs += _edge_pairs(rng, p)
    dropped = set()
    for x, y in pairs:
        assert arith.mul(x, y) == mpf_mul(x, y, p, rnd), (x, y)
        assert arith.add(x, y) == mpf_add(x, y, p, rnd), (x, y)
        assert arith.add(x, y, 1) == mpf_sub(x, y, p, rnd), (x, y)
        assert arith.neg(x) == mpf_neg(x, p, rnd), x
        assert arith.abs(x) == mpf_abs(x, p, rnd), x
        dropped.add(x[3] + y[3] - p > 300)
    # libmp's half-mask table ends at 300 dropped bits
    assert dropped == ({False, True} if p > 300 else {False})


def test_mpf_arith_calls_libmp_only_for_the_exceptions(monkeypatch):
    # an MpfArith built over counting libmp calls makes none on finite
    # non-zero operands within a gap of 100 bits, but for several
    # products, which one mpf_sum adds exactly
    import mpmath.libmp

    calls = []
    for name in ("mpf_mul", "mpf_add", "mpf_abs", "mpf_neg"):
        real = getattr(mpmath.libmp, name)
        monkeypatch.setattr(mpmath.libmp, name, lambda *a, _real=real,
                            _name=name: calls.append(_name) or _real(*a))
    backend = BigFloatBackend(256)
    arith = backends.MpfArith(backend.ctx)
    rng = random.Random(3301)
    # full mantissas near 1: the exponents of every sum are close
    values = [backend.ctx.make_mpf((rng.getrandbits(1), rng.getrandbits(255)
                                    | 1 << 255 | 1, rng.randint(-258, -252),
                                    256)) for _ in range(40)]
    raw = [v._mpf_ for v in values]
    for x, y in zip(raw, raw[1:]):
        arith.mul(x, y), arith.add(x, y), arith.add(x, y, 1)
        arith.neg(x), arith.abs(x)
    arith.product(values[0], values[1])
    arith.chain(values[0], values[1:])
    arith.norm(values), arith.norm(values, values)
    items = list(enumerate(values))
    arith.combine(items, values[0], [(items, 0), (items[::-1], 1),
                                     ([(99, values[1])], 1)])
    arith.scaled(values[0], list(enumerate(raw)))
    arith.sums([(values[0], list(enumerate(raw)))])
    assert calls == []
    arith.mul(raw[0], fzero), arith.add(raw[0], fzero)
    arith.add(raw[0], (0, 1, raw[0][2] - 101, 1))
    arith.neg(finf), arith.abs(fnan)
    arith.sums([(values[0], [(0, raw[1])]), (values[1], [(0, raw[2])])])
    assert calls == ["mpf_mul", "mpf_add", "mpf_add", "mpf_neg", "mpf_abs",
                     "mpf_mul", "mpf_mul"]
