"""Newton polygon of a moment PDE operator.

Each term contributes the quadrant {x <= s0*j + s.alpha, y >= ord_t - j};
the principal part contributes {x <= s0*M, y >= -M}.  The polygon is the
convex hull of the union.  The reciprocal slope of the first non-horizontal
boundary segment right of the principal corner predicts the Gevrey order of
the formal solution; it is computed here twice, once from the hull geometry
and once by the closed max formula, so each route can audit the other.

All comparisons are exact: x-coordinates are Fractions built from the
declared sequence orders, y-coordinates are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pde import MomentPDE, OperatorTerm

Point = tuple[Fraction, Fraction]


class GeometryError(ValueError):
    """Degenerate clip box or vertices outside it."""


@dataclass(frozen=True)
class SupportPoint:
    x: Fraction
    y: Fraction
    sources: tuple[str, ...]   # "principal" or "term j=.. alpha=.."

    @property
    def point(self) -> Point:
        return (self.x, self.y)


@dataclass(frozen=True)
class Segment:
    start: Point
    end: Point

    @property
    def slope(self) -> Fraction:
        return (self.end[1] - self.start[1]) / (self.end[0] - self.start[0])


@dataclass(frozen=True)
class NewtonPolygon:
    support_points: tuple[SupportPoint, ...]
    pareto_vertices: tuple[Point, ...]
    segments: tuple[Segment, ...]
    k1_inverse: Fraction
    k1_attainers: tuple[str, ...]
    principal: Point


def _term_label(term: OperatorTerm) -> str:
    return f"term j={term.t_derivative} alpha={list(term.z_derivatives)}"


def _term_point(pde: MomentPDE, term: OperatorTerm) -> Point:
    x = pde.s0 * term.t_derivative
    for s_i, a_i in zip(pde.s, term.z_derivatives):
        x += s_i * a_i
    y = Fraction(term.ord_t - term.t_derivative)
    return (Fraction(x), y)


def _pareto(points: list[Point]) -> list[Point]:
    """Drop points whose quadrant {x <= a, y >= b} sits inside another's."""
    unique = sorted(set(points))
    keep = []
    for p in unique:
        dominated = any(
            q != p and q[0] >= p[0] and q[1] <= p[1] for q in unique
        )
        if not dominated:
            keep.append(p)
    return sorted(keep)


def _convex_chain(points: list[Point]) -> list[Point]:
    """Lower-right hull chain: strictly increasing x, y, and slopes."""
    chain: list[Point] = []
    for p in points:
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            # middle vertex is hull-interior when slopes fail to increase
            if (y2 - y1) * (p[0] - x2) >= (p[1] - y2) * (x2 - x1):
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def build(pde: MomentPDE) -> NewtonPolygon:
    """Construct the polygon from the support points of a validated operator."""
    principal: Point = (Fraction(pde.s0 * pde.M), Fraction(-pde.M))
    located: dict[Point, list[str]] = {principal: ["principal"]}
    for term in pde.terms:
        p = _term_point(pde, term)
        located.setdefault(p, []).append(_term_label(term))
    support = tuple(
        SupportPoint(x, y, tuple(located[(x, y)]))
        for (x, y) in sorted(located)
    )
    pareto = _pareto(list(located))
    chain = _convex_chain(pareto)
    segments = tuple(
        Segment(chain[i], chain[i + 1]) for i in range(len(chain) - 1)
    )
    if segments:
        k1_inv = Fraction(1) / segments[0].slope
    else:
        k1_inv = Fraction(0)
    attainers = tuple(
        label
        for point, labels in sorted(located.items())
        for label in labels
        if _ratio_from_principal(principal, point) == k1_inv and k1_inv > 0
    )
    return NewtonPolygon(
        support_points=support,
        pareto_vertices=tuple(chain),
        segments=segments,
        k1_inverse=k1_inv,
        k1_attainers=attainers,
        principal=principal,
    )


def _ratio_from_principal(principal: Point, point: Point) -> Fraction | None:
    dx = point[0] - principal[0]
    dy = point[1] - principal[1]
    if dy <= 0:
        return None
    return dx / dy


def k1_inverse(pde: MomentPDE) -> Fraction:
    """Closed-form reciprocal slope:

    max(0, max over terms of (s0*(j - M) + s.alpha) / (ord_t - j + M)).

    Computed directly from the term data, independently of the hull chain.
    """
    best = Fraction(0)
    for term in pde.terms:
        num = pde.s0 * (term.t_derivative - pde.M)
        for s_i, a_i in zip(pde.s, term.z_derivatives):
            num += s_i * a_i
        den = term.q(pde.M)
        if den < 1:
            raise ValueError(
                "term with q < 1; validate the problem before the polygon"
            )
        ratio = Fraction(num) / den
        if ratio > best:
            best = ratio
    return best


def export_geometry(polygon: NewtonPolygon, clip: tuple) -> dict:
    """Clip the polygon to a box and emit JSON-ready drawing geometry.

    The boundary polyline runs from the clip's left edge along the lowest
    horizontal ray, through the hull vertices, then up the final vertical
    ray.  Every support point also gets its own clipped quadrant outline.
    """
    x0, y0, x1, y1 = (Fraction(str(c)) for c in clip)
    if not (x0 < x1 and y0 < y1):
        raise GeometryError(f"degenerate clip box {clip}")
    for sp in polygon.support_points:
        if not (x0 <= sp.x <= x1 and y0 <= sp.y <= y1):
            raise GeometryError(
                f"support point ({sp.x}, {sp.y}) outside clip box"
            )
    chain = list(polygon.pareto_vertices)
    boundary = [(x0, chain[0][1])] + chain + [(chain[-1][0], y1)]
    quadrants = [
        {
            "corner": _fmt_point(sp.point),
            "sources": list(sp.sources),
            "outline": [
                _fmt_point((x0, sp.y)),
                _fmt_point(sp.point),
                _fmt_point((sp.x, y1)),
            ],
        }
        for sp in polygon.support_points
    ]
    return {
        "clip": [str(x0), str(y0), str(x1), str(y1)],
        "k1_inverse": str(polygon.k1_inverse),
        "principal": _fmt_point(polygon.principal),
        "boundary": [_fmt_point(p) for p in boundary],
        **_fmt_hull(polygon),
        "quadrants": quadrants,
    }


def _fmt_point(p: Point) -> dict:
    return {"x": str(p[0]), "y": str(p[1])}


def _fmt_hull(polygon: NewtonPolygon) -> dict:
    """The hull vertices and segments as both payloads print them."""
    return {
        "vertices": [_fmt_point(p) for p in polygon.pareto_vertices],
        "segments": [
            {
                "start": _fmt_point(seg.start),
                "end": _fmt_point(seg.end),
                "slope": str(seg.slope),
            }
            for seg in polygon.segments
        ],
    }


def as_dict(polygon: NewtonPolygon) -> dict:
    """JSON-ready polygon summary (the `polygon` command's payload)."""
    return {
        "k1_inverse": str(polygon.k1_inverse),
        "principal": _fmt_point(polygon.principal),
        "support_points": [
            {"x": str(sp.x), "y": str(sp.y), "sources": list(sp.sources)}
            for sp in polygon.support_points
        ],
        **_fmt_hull(polygon),
        "k1_attainers": list(polygon.k1_attainers),
    }
