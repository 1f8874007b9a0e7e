"""Newton polygon construction, the closed slope formula, and geometry export."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from momentpde import (
    BigFloatBackend,
    FactorialPower,
    GammaSequence,
    MomentPDE,
    OperatorTerm,
    PolySeries,
    QFactorial,
    TimeSeries,
    build,
    export_geometry,
    k1_inverse,
)
from momentpde.polygon import GeometryError

F = Fraction


def coeff_with_ord(ord_t: int, value=F(-1), num_vars=1) -> TimeSeries:
    entries = [PolySeries.zero(num_vars)] * ord_t
    entries.append(PolySeries.constant(num_vars, value))
    return TimeSeries(entries, tail_exact=True)


def pde_from(m0, m, M, raw_terms) -> MomentPDE:
    terms = [
        OperatorTerm(j, alpha, coeff_with_ord(ord_t, num_vars=len(m)))
        for (j, alpha, ord_t) in raw_terms
    ]
    return MomentPDE(M, m0, m, terms)


def heat() -> MomentPDE:
    return pde_from(FactorialPower(1), [FactorialPower(1)], 1, [(0, (2,), 0)])


def test_heat_polygon():
    polygon = build(heat())
    assert polygon.principal == (1, -1)
    assert polygon.pareto_vertices == ((1, -1), (2, 0))
    assert len(polygon.segments) == 1
    assert polygon.segments[0].slope == 1
    assert polygon.k1_inverse == 1
    assert k1_inverse(heat()) == 1


def test_two_segment_hull_takes_its_order_from_the_first_segment():
    # u_t = u_zz + t^2 u_zzz (tests/problems/two_segment.json): the term
    # alpha = [3] with ord_t = 2 adds the vertex (3, 2) behind heat's (2, 0),
    # a second segment of slope 2 that does not set the order
    pde = pde_from(FactorialPower(1), [FactorialPower(1)], 1,
                   [(0, (2,), 0), (0, (3,), 2)])
    polygon = build(pde)
    assert polygon.pareto_vertices == ((1, -1), (2, 0), (3, 2))
    assert [seg.slope for seg in polygon.segments] == [1, 2]
    assert polygon.k1_inverse == k1_inverse(pde) == 1
    assert polygon.k1_attainers == ("term j=0 alpha=[2]",)


def test_ode_like_term_no_positive_segment():
    pde = pde_from(FactorialPower(1), [FactorialPower(1)], 1, [(0, (0,), 0)])
    polygon = build(pde)
    # (0,0) is dominated by the principal corner (1,-1): no segment at all
    assert polygon.pareto_vertices == ((1, -1),)
    assert polygon.segments == ()
    assert polygon.k1_inverse == 0
    assert k1_inverse(pde) == 0


def test_empty_term_set_single_quadrant():
    pde = MomentPDE(2, FactorialPower(1), [FactorialPower(1)], [])
    polygon = build(pde)
    assert polygon.pareto_vertices == ((2, -2),)
    assert polygon.k1_inverse == 0


def test_valuation_shift_halves_k1():
    pde = pde_from(FactorialPower(1), [FactorialPower(1)], 1, [(0, (2,), 1)])
    assert k1_inverse(pde) == F(1, 2)
    assert build(pde).k1_inverse == F(1, 2)


def test_fractional_time_k1():
    backend = BigFloatBackend(64)
    m0 = GammaSequence(F(1, 2), backend)
    pde = MomentPDE(
        1, m0, [FactorialPower(1, backend)],
        [OperatorTerm(0, (1,), TimeSeries(
            [PolySeries.constant(1, backend.scalar(-1))], tail_exact=True))],
    )
    assert k1_inverse(pde) == F(1, 2)


def test_q_factorial_time_k1_zero():
    pde = pde_from(QFactorial(F(1, 2)), [FactorialPower(1)], 1, [(0, (0,), 0)])
    assert k1_inverse(pde) == 0
    assert build(pde).segments == ()


def brute_force_k1(pde: MomentPDE) -> Fraction:
    """Oracle straight from the raw term data, bypassing the polygon module."""
    best = F(0)
    for term in pde.terms:
        x = pde.s0 * term.t_derivative + sum(
            s * a for s, a in zip(pde.s, term.z_derivatives)
        )
        num = x - pde.s0 * pde.M
        den = term.ord_t - term.t_derivative + pde.M
        best = max(best, F(num, 1) / den)
    return best


def random_pde(rng: random.Random) -> MomentPDE:
    num_vars = rng.randint(1, 2)
    M = rng.randint(1, 3)
    m0 = rng.choice([FactorialPower(1), FactorialPower(2), QFactorial(F(1, 2))])
    m = [rng.choice([FactorialPower(1), FactorialPower(2)])
         for _ in range(num_vars)]
    raw = []
    for _ in range(rng.randint(1, 4)):
        j = rng.randint(0, M)
        alpha = tuple(rng.randint(0, 3) for _ in range(num_vars))
        ord_t = rng.randint(max(0, j - M + 1), 3)
        raw.append((j, alpha, ord_t))
    return pde_from(m0, m, M, raw)


def test_hull_and_max_formula_agree_randomized():
    rng = random.Random(20240811)
    for _ in range(300):
        pde = random_pde(rng)
        polygon = build(pde)
        expected = brute_force_k1(pde)
        assert k1_inverse(pde) == expected
        assert polygon.k1_inverse == expected
        if expected > 0:
            # the vertex closing the first segment realizes the max ratio
            x0, y0 = polygon.principal
            x1, y1 = polygon.pareto_vertices[1]
            assert (x1 - x0) / (y1 - y0) == expected
        else:
            assert polygon.segments == ()


def test_raising_valuation_never_raises_k1():
    rng = random.Random(77)
    for _ in range(100):
        pde = random_pde(rng)
        bumped_terms = [
            OperatorTerm(
                t.t_derivative, t.z_derivatives,
                coeff_with_ord(t.ord_t + 1, num_vars=pde.num_vars),
            )
            for t in pde.terms
        ]
        bumped = MomentPDE(pde.M, pde.m0, list(pde.m), bumped_terms)
        assert k1_inverse(bumped) <= k1_inverse(pde)


def test_k1_tie_reports_all_attainers():
    # two terms at the same maximal ratio
    pde = pde_from(FactorialPower(1), [FactorialPower(1)], 1,
                   [(0, (2,), 0), (0, (4,), 2)])
    # ratios: (2-1)/1 = 1 and (4-1)/3 = 1
    polygon = build(pde)
    assert polygon.k1_inverse == 1
    assert len(polygon.k1_attainers) == 2


def test_export_geometry_heat():
    geometry = export_geometry(build(heat()), (-1, -2, 3, 1))
    assert geometry["k1_inverse"] == "1"
    assert geometry["vertices"] == [
        {"x": "1", "y": "-1"}, {"x": "2", "y": "0"}
    ]
    assert len(geometry["segments"]) == 1
    assert geometry["segments"][0]["slope"] == "1"
    # clipped rays: start on the left clip edge, end on the top clip edge
    assert geometry["boundary"][0] == {"x": "-1", "y": "-1"}
    assert geometry["boundary"][-1] == {"x": "2", "y": "1"}


def test_export_geometry_single_quadrant_corner():
    pde = MomentPDE(1, FactorialPower(1), [FactorialPower(1)], [])
    geometry = export_geometry(build(pde), (-1, -2, 2, 1))
    assert geometry["boundary"] == [
        {"x": "-1", "y": "-1"}, {"x": "1", "y": "-1"}, {"x": "1", "y": "1"}
    ]


def test_export_geometry_clip_errors():
    polygon = build(heat())
    with pytest.raises(GeometryError):
        export_geometry(polygon, (0, 0, 0, 0))
    with pytest.raises(GeometryError):
        export_geometry(polygon, (-1, -2, F(3, 2), 1))  # excludes (2, 0)
