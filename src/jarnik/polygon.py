"""Convex polygons whose edges are the primitive vectors of a region.

For a region S and order Q, the edge set is every integer vector (q, a)
with gcd(q, a) = 1 and (q/Q, a/Q) in S.  Walking those vectors in
counterclockwise order yields the unique (up to translation) convex
polygon with that edge multiset.  The polygon is anchored so that the
right-hand endpoint of the (1, 0) edge is the origin; the scaled copy is
translated to be centered at the origin and shrunk by the exact factor
R, half the polygon's height (X(Q,1) + Y(Q,1) - 1/2 whenever (1, 1) is an
edge), after which (0, -1) is the midpoint of the (1, 0) edge.

Every region is eight-fold symmetric, so the edges are the dihedral
images of the fundamental arc, the edges (q, a) with 0 < a <= q.  Their
slopes are the Farey fractions of order Q in (0, 1], of which the arc
keeps a/q when a <= cap[q], the largest a <= q with (q, a) in the region.
The Farey next-term recurrence walks them in order, so the arc needs no
gcd and no sort, and every decision is an integer comparison.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple, Sequence

from .domains import DomainSpec, lattice_contains
from .number_theory import RationalReal, RealSpec, farey_walk


class PrimitiveVector(NamedTuple):
    q: int
    a: int


def _row_caps(spec: DomainSpec, order: int) -> list[int]:
    """cap[q] for 0 <= q <= order: the largest a in [0, q] with (q/Q, a/Q)
    in the region.  Closed forms for the polygonal regions; for balls a
    float seed corrected by exact membership calls."""
    rows = range(order + 1)
    if spec.slope is not None:
        dn, dd = spec.slope
        return [min(q, dn * (order - q) // dd) if dd else q for q in rows]
    p = float(spec.param)
    caps = []
    for q in rows:
        a = min(q, int(order * max(1.0 - (q / order) ** p, 0.0) ** (1.0 / p)))
        while a > 0 and not lattice_contains(spec, q, a, order):
            a -= 1
        while a < q and lattice_contains(spec, q, a + 1, order):
            a += 1
        caps.append(a)
    return caps


def _fundamental_arc(spec: DomainSpec, order: int) -> list[tuple[int, int]]:
    """The edges (q, a) with 0 < a <= q in the region, in increasing slope."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    cap = _row_caps(spec, order)
    return [(q, a) for a, q in farey_walk(order) if a <= cap[q]]


def _edges(spec: DomainSpec, order: int) -> list[tuple[int, int]]:
    """Every edge in counterclockwise order from (1, 0): a quarter turn is
    (1, 0), the fundamental arc and its mirror image in the diagonal, and
    the other three quarters are its rotations."""
    arc = _fundamental_arc(spec, order)
    # (1, 1) is its own mirror image, and it ends every nonempty arc: every
    # region contains (1, 1) once it contains some (q, a) with q >= a >= 1
    quarter = [(1, 0)] + arc + [(a, q) for q, a in reversed(arc[:-1])]
    return (
        quarter
        + [(-a, q) for q, a in quarter]
        + [(-q, -a) for q, a in quarter]
        + [(a, -q) for q, a in quarter]
    )


def primitive_vectors(spec: DomainSpec, order: int) -> list[PrimitiveVector]:
    """All primitive vectors (q, a) with (q/Q, a/Q) in the region, in
    counterclockwise order from (1, 0)."""
    return [PrimitiveVector(q, a) for q, a in _edges(spec, order)]


def sort_ccw(vectors: Sequence[PrimitiveVector]) -> list[PrimitiveVector]:
    """Counterclockwise order of arbitrary vectors from the direction (1, 0):
    by half plane, then by the sign of the integer cross product."""

    def cmp(v: PrimitiveVector, w: PrimitiveVector) -> int:
        return ((v.a, v.q) < (0, 0)) - ((w.a, w.q) < (0, 0)) or v.a * w.q - v.q * w.a

    return sorted(vectors, key=cmp_to_key(cmp))


@dataclass(frozen=True)
class LatticePolygon:
    """Exact-integer vertex cycle; edge i runs from vertices[i-1] to
    vertices[i], and the edge into vertices[0] is (1, 0)."""

    vertices: tuple[tuple[int, int], ...]
    order: int
    domain: DomainSpec

    def edges(self) -> list[PrimitiveVector]:
        verts = self.vertices
        out = []
        for i, (x, y) in enumerate(verts):
            px, py = verts[i - 1]
            out.append(PrimitiveVector(x - px, y - py))
        return out

    def is_convex(self) -> bool:
        es = self.edges()
        return all(
            e1.q * e2.a - e1.a * e2.q > 0 for e1, e2 in zip(es, es[1:] + es[:1])
        )


def build_polygon(spec: DomainSpec, order: int) -> LatticePolygon:
    verts = []
    x, y = -1, 0  # so the (1,0) edge ends at the origin
    for q, a in _edges(spec, order):
        x += q
        y += a
        verts.append((x, y))
    return LatticePolygon(tuple(verts), order, spec)


def fundamental_vertex(
    spec: DomainSpec, order: int, lam: RealSpec | Fraction | int | float
) -> tuple[int, int]:
    """The vertex reached by summing the fundamental-arc edges (0 < a <= q)
    with slope at most lam, as exact integers."""
    if not isinstance(lam, RealSpec):
        lam = RationalReal(Fraction(lam))
    arc = _fundamental_arc(spec, order)
    # the arc rises in slope: cut it before the first edge with a > floor(lam q)
    arc = arc[: bisect_left(arc, True, key=lambda e: e[1] > lam.floor_scaled(e[0]))]
    return (sum(q for q, _ in arc), sum(a for _, a in arc))


@dataclass(frozen=True)
class ScaledPolygon:
    """Real vertex cycle of the rescaled polygon, centered at the origin;
    scale is the exact half-integer R kept as a Fraction."""

    vertices: tuple[tuple[float, float], ...]
    scale: Fraction
    order: int
    domain: DomainSpec


def scale_factor(spec: DomainSpec, order: int) -> Fraction:
    """R, half the polygon's height, exact: X(Q,1) + Y(Q,1) - 1/2 from the
    end of the fundamental arc, or 1/2 when the arc is empty and the
    polygon is the unit square."""
    x1, y1 = fundamental_vertex(spec, order, 1)
    return Fraction(2 * (x1 + y1) - 1, 2) if x1 else Fraction(1, 2)


def scale_polygon(polygon: LatticePolygon) -> ScaledPolygon:
    # The bottom edge (1, 0) ends at the origin and the top edge (-1, 0)
    # starts at the vertex half way round, so R is half of that vertex's height.
    r = Fraction(polygon.vertices[len(polygon.vertices) // 2 - 1][1], 2)
    if r <= 0:
        raise ValueError("degenerate polygon: nonpositive scale factor")
    rf = float(r)
    verts = tuple(((x + 0.5) / rf, (y - rf) / rf) for x, y in polygon.vertices)
    return ScaledPolygon(verts, r, polygon.order, polygon.domain)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def polygon_csv(polygon: LatticePolygon | ScaledPolygon) -> str:
    lines = ["x,y"]
    for x, y in polygon.vertices:
        lines.append(f"{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def polygon_svg(polygon: LatticePolygon | ScaledPolygon) -> str:
    """A single closed polyline; scaled polygons use the fixed unit frame."""
    verts = polygon.vertices
    if isinstance(polygon, ScaledPolygon):
        viewbox = "-1.2 -1.2 2.4 2.4"
        width = 0.006
    else:
        xs = [v[0] for v in verts]
        ys = [v[1] for v in verts]
        pad = max(2, (max(xs) - min(xs)) // 20)
        viewbox = (
            f"{min(xs) - pad} {-max(ys) - pad} "
            f"{max(xs) - min(xs) + 2 * pad} {max(ys) - min(ys) + 2 * pad}"
        )
        width = max((max(xs) - min(xs)) / 400.0, 0.05)
    coords = " L ".join(f"{x:.6f} {-y:.6f}" for x, y in verts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{viewbox}">\n'
        f'  <path d="M {coords} Z" fill="none" stroke="black" stroke-width="{width}"/>\n'
        "</svg>\n"
    )
