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
The arc, the edges and the vertices, their prefix sums, are int64 arrays
(vertices grow like 0.3 Q^3); `vertices` is a tuple view built on demand.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

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


def _fundamental_arc(spec: DomainSpec, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges (q, a) with 0 < a <= q in the region, in increasing slope,
    as int64 arrays q and a."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    cap = np.array(_row_caps(spec, order), dtype=np.int64)
    a, q = np.fromiter(chain.from_iterable(farey_walk(order)), dtype=np.int64).reshape(-1, 2).T
    keep = a <= cap[q]
    return q[keep], a[keep]


def _edges(spec: DomainSpec, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Every edge in counterclockwise order from (1, 0), as arrays of x and y
    steps: a quarter turn is (1, 0), the fundamental arc and its mirror
    image in the diagonal, and the other three quarters are its rotations."""
    q, a = _fundamental_arc(spec, order)
    # (1, 1) is its own mirror image, and it ends every nonempty arc: every
    # region contains (1, 1) once it contains some (q, a) with q >= a >= 1
    dx = np.concatenate(([1], q, a[:-1][::-1]))
    dy = np.concatenate(([0], a, q[:-1][::-1]))
    return np.concatenate((dx, -dy, -dx, dy)), np.concatenate((dy, dx, -dy, -dx))


def primitive_vectors(spec: DomainSpec, order: int) -> list[PrimitiveVector]:
    """All primitive vectors (q, a) with (q/Q, a/Q) in the region, in
    counterclockwise order from (1, 0)."""
    return list(map(PrimitiveVector, *(d.tolist() for d in _edges(spec, order))))


def sort_ccw(vectors: Sequence[PrimitiveVector]) -> list[PrimitiveVector]:
    """Counterclockwise order of arbitrary vectors from the direction (1, 0):
    by half plane, then by the sign of the integer cross product."""

    def cmp(v: PrimitiveVector, w: PrimitiveVector) -> int:
        return ((v.a, v.q) < (0, 0)) - ((w.a, w.q) < (0, 0)) or v.a * w.q - v.q * w.a

    return sorted(vectors, key=cmp_to_key(cmp))


@dataclass(frozen=True, eq=False)
class _VertexCycle:
    """A vertex cycle held as an (n, 2) array `xy`, which the constructor also
    takes as a sequence of pairs; `vertices` is its tuple of Python numbers."""

    xy: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "xy", np.asarray(self.xy).reshape(-1, 2))

    @cached_property
    def vertices(self) -> tuple[tuple, ...]:
        return tuple(zip(*self.xy.T.tolist()))

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self) and np.array_equal(self.xy, other.xy)
        return same and all(getattr(self, f.name) == getattr(other, f.name) for f in fields(self)[1:])


@dataclass(frozen=True, eq=False)
class LatticePolygon(_VertexCycle):
    """Exact-integer vertex cycle, int64 from build_polygon; edge i runs from
    vertices[i-1] to vertices[i], and the edge into vertices[0] is (1, 0)."""

    order: int
    domain: DomainSpec

    def edges(self) -> list[PrimitiveVector]:
        steps = self.xy - np.roll(self.xy, 1, axis=0)
        return list(map(PrimitiveVector, *steps.T.tolist()))

    def is_convex(self) -> bool:
        es = self.edges()
        return all(
            e1.q * e2.a - e1.a * e2.q > 0 for e1, e2 in zip(es, es[1:] + es[:1])
        )


def build_polygon(spec: DomainSpec, order: int) -> LatticePolygon:
    dx, dy = _edges(spec, order)
    # the vertices are the prefix sums of the edges from (-1, 0), so the
    # (1, 0) edge ends at the origin
    return LatticePolygon(np.stack((np.cumsum(dx) - 1, np.cumsum(dy)), axis=1), order, spec)


def fundamental_vertices(
    spec: DomainSpec, order: int, lams: Iterable[RealSpec | Fraction | int | float]
) -> list[tuple[int, int]]:
    """fundamental_vertex at each slope of lams, from one arc and its
    prefix sums."""
    lams = [lam if isinstance(lam, RealSpec) else RationalReal(Fraction(lam)) for lam in lams]
    q, a = _fundamental_arc(spec, order)
    xs, ys = [0] + np.cumsum(q).tolist(), [0] + np.cumsum(a).tolist()
    arc = list(zip(q.tolist(), a.tolist()))
    # the arc rises in slope: cut it before the first edge with a > floor(lam q)
    cuts = (bisect_left(arc, True, key=lambda e: e[1] > lam.floor_scaled(e[0])) for lam in lams)
    return [(xs[k], ys[k]) for k in cuts]


def fundamental_vertex(
    spec: DomainSpec, order: int, lam: RealSpec | Fraction | int | float
) -> tuple[int, int]:
    """The vertex reached by summing the fundamental-arc edges (0 < a <= q)
    with slope at most lam, as exact integers."""
    return fundamental_vertices(spec, order, [lam])[0]


@dataclass(frozen=True, eq=False)
class ScaledPolygon(_VertexCycle):
    """Real vertex cycle of the rescaled polygon, float64 from scale_polygon,
    centered at the origin; scale is the exact half-integer R kept as a
    Fraction."""

    scale: Fraction
    order: int
    domain: DomainSpec


def scale_factor(spec: DomainSpec, order: int) -> Fraction:
    """R, half the polygon's height, exact: X(Q,1) + Y(Q,1) - 1/2 from the
    end of the fundamental arc, or 1/2 when the arc is empty and the
    polygon is the unit square."""
    q, a = _fundamental_arc(spec, order)
    x1, y1 = int(q.sum()), int(a.sum())
    return Fraction(2 * (x1 + y1) - 1, 2) if x1 else Fraction(1, 2)


def scale_polygon(polygon: LatticePolygon) -> ScaledPolygon:
    # The bottom edge (1, 0) ends at the origin and the top edge (-1, 0)
    # starts at the vertex half way round, so R is half of that vertex's height.
    xy = polygon.xy
    r = Fraction(int(xy[len(xy) // 2 - 1, 1]), 2)
    if r <= 0:
        raise ValueError("degenerate polygon: nonpositive scale factor")
    rf = float(r)
    x, y = xy.T
    xy = np.stack(((x + 0.5) / rf, (y - rf) / rf), axis=1)
    return ScaledPolygon(xy, r, polygon.order, polygon.domain)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _texts(xy: np.ndarray, fmt: Callable[[float], str]) -> list[list[str]]:
    """[x texts, y texts]: fmt of every coordinate, called once per distinct
    magnitude v, as fmt(-v) == "-" + fmt(v) for repr and fixed-point formats;
    a scaled polygon has about n/4 distinct magnitudes among its 2n
    coordinates.  The sign bit, unlike v < 0, keeps -0.0 apart from 0.0."""
    distinct, inverse = np.unique(np.abs(xy), return_inverse=True)
    texts = np.array(list(map(fmt, distinct.tolist())), dtype=object)
    texts = np.concatenate((texts, "-" + texts))
    return texts[inverse.reshape(xy.shape) + len(distinct) * np.signbit(xy)].T.tolist()


def polygon_csv(polygon: LatticePolygon | ScaledPolygon) -> str:
    xs, ys = _texts(polygon.xy, repr) if isinstance(polygon, ScaledPolygon) else polygon.xy.T.tolist()
    return "x,y\n" + "".join([f"{x},{y}\n" for x, y in zip(xs, ys)])


def polygon_svg(polygon: LatticePolygon | ScaledPolygon) -> str:
    """A single closed polyline; scaled polygons use the fixed unit frame."""
    xy = polygon.xy
    if isinstance(polygon, ScaledPolygon):
        viewbox = "-1.2 -1.2 2.4 2.4"
        width = 0.006
    else:
        (x0, y0), (x1, y1) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
        pad = max(2, (x1 - x0) // 20)
        viewbox = f"{x0 - pad} {-y1 - pad} {x1 - x0 + 2 * pad} {y1 - y0 + 2 * pad}"
        width = max((x1 - x0) / 400.0, 0.05)
    xs, ys = _texts(xy * (1, -1), "{:.6f}".format)  # y points down
    coords = " L ".join([f"{x} {y}" for x, y in zip(xs, ys)])
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{viewbox}">\n'
        f'  <path d="M {coords} Z" fill="none" stroke="black" stroke-width="{width}"/>\n'
        "</svg>\n"
    )
