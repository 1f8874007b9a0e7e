"""Newton polygon of a moment PDE operator.

Each term contributes the quadrant {x <= s0*j + s.alpha, y >= ord_t - j};
the principal part contributes {x <= s0*M, y >= -M}.  The polygon is the
convex hull of the union.  The reciprocal slope of the first non-horizontal
boundary segment right of the principal corner predicts the Gevrey order of
the formal solution; it is computed here twice, once from the hull geometry
and once by the closed max formula, so each route can audit the other.

All comparisons are exact: x-coordinates are Fractions built from the
declared sequence orders, y-coordinates are integers.  `render_svg` draws
the polygon straight from those Fractions, clipped to a box.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .pde import MomentPDE, OperatorTerm

Point = tuple[Fraction, Fraction]


class GeometryError(ValueError):
    """Degenerate clip box or vertices outside it."""


class SupportPoint(NamedTuple):
    x: Fraction
    y: Fraction
    sources: tuple[str, ...]   # "principal" or "term j=.. alpha=.."

    @property
    def point(self) -> Point:
        return (self.x, self.y)


class Segment(NamedTuple):
    start: Point
    end: Point

    @property
    def slope(self) -> Fraction:
        return (self.end[1] - self.start[1]) / (self.end[0] - self.start[0])


class NewtonPolygon(NamedTuple):
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


def _fmt_point(p: Point) -> dict:
    return {"x": str(p[0]), "y": str(p[1])}


def as_dict(polygon: NewtonPolygon) -> dict:
    """JSON-ready polygon summary (the `polygon` command's payload)."""
    return {
        "k1_inverse": str(polygon.k1_inverse),
        "principal": _fmt_point(polygon.principal),
        "support_points": [
            {"x": str(sp.x), "y": str(sp.y), "sources": list(sp.sources)}
            for sp in polygon.support_points
        ],
        "vertices": [_fmt_point(p) for p in polygon.pareto_vertices],
        "segments": [
            {
                "start": _fmt_point(seg.start),
                "end": _fmt_point(seg.end),
                "slope": str(seg.slope),
            }
            for seg in polygon.segments
        ],
        "k1_attainers": list(polygon.k1_attainers),
    }


# -- SVG drawing --------------------------------------------------------------

_WIDTH = 560
_HEIGHT = 420
_MARGIN = 48


def render_svg(polygon: NewtonPolygon, clip: tuple) -> str:
    """SVG 1.1 drawing of the polygon clipped to the box (x0, y0, x1, y1).

    The hull boundary, in black, runs from the clip's left edge along the
    lowest horizontal ray, through the hull vertices, then up the final
    vertical ray.  Every support point's quadrant is outlined in light gray
    and marked by a dot; the axes are dashed when the box contains them.
    """
    x0, y0, x1, y1 = (Fraction(str(c)) for c in clip)
    if not (x0 < x1 and y0 < y1):
        raise GeometryError(
            f"degenerate clip box {','.join(map(str, clip))}")
    for sp in polygon.support_points:
        if not (x0 <= sp.x <= x1 and y0 <= sp.y <= y1):
            raise GeometryError(
                f"support point ({sp.x}, {sp.y}) outside clip box"
            )

    def px(x: Fraction) -> float:
        return _MARGIN + float((x - x0) / (x1 - x0)) * _WIDTH

    def py(y: Fraction) -> float:
        return _MARGIN + (1.0 - float((y - y0) / (y1 - y0))) * _HEIGHT

    def path(points) -> str:
        return " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)

    chain = polygon.pareto_vertices
    boundary = [(x0, chain[0][1]), *chain, (chain[-1][0], y1)]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH + 2 * _MARGIN}" height="{_HEIGHT + 2 * _MARGIN}" '
        f'viewBox="0 0 {_WIDTH + 2 * _MARGIN} {_HEIGHT + 2 * _MARGIN}">',
        f'<rect x="0" y="0" width="{_WIDTH + 2 * _MARGIN}" '
        f'height="{_HEIGHT + 2 * _MARGIN}" fill="white"/>',
    ]
    if x0 <= 0 <= x1:
        parts.append(
            f'<line x1="{px(0):.2f}" y1="{py(y0):.2f}" '
            f'x2="{px(0):.2f}" y2="{py(y1):.2f}" '
            'stroke="#bbbbbb" stroke-dasharray="4 3"/>'
        )
    if y0 <= 0 <= y1:
        parts.append(
            f'<line x1="{px(x0):.2f}" y1="{py(0):.2f}" '
            f'x2="{px(x1):.2f}" y2="{py(0):.2f}" '
            'stroke="#bbbbbb" stroke-dasharray="4 3"/>'
        )
    for sp in polygon.support_points:
        outline = [(x0, sp.y), sp.point, (sp.x, y1)]
        parts.append(
            f'<polyline points="{path(outline)}" fill="none" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    parts.append(
        f'<polyline points="{path(boundary)}" fill="none" '
        'stroke="#111111" stroke-width="2"/>'
    )
    for x, y in chain:
        parts.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="#111111"/>'
        )
    for sp in polygon.support_points:
        parts.append(
            f'<circle cx="{px(sp.x):.2f}" cy="{py(sp.y):.2f}" r="2.5" '
            'fill="#666666"/>'
        )
    parts.append(
        f'<text x="{_MARGIN}" y="{_MARGIN - 12}" font-family="monospace" '
        f'font-size="14">1/k1 = {polygon.k1_inverse}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
