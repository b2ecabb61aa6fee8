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
The array Farey kernel lays out only the numerators up to each row's cap,
keeps the coprime ones and sorts them by slope; the order is certified by
integer cross products, so every decision is an integer comparison.

A polygon is held as that arc, the int64 arrays q and a.  Its first-octant
vertices v_0 = (0, 0), ..., v_L are the arc's prefix sums, and every other
vertex is a signed swap of one of them about the centre (-1/2, R): in the
doubled centred magnitudes A = 2x + 1 and B = 2R - 2y, both odd, the
cycle is eight blocks of L rows, (A_k, -B_k) for k < L and their
`_BLOCKS` images.  The scaled polygon's first octant
((x + 0.5)/R, (y - R)/R) has the same blocks bit for bit, since division
is correctly rounded and symmetric in sign and no magnitude is zero.
`xy` and `vertices` are views of the cycle built on demand (vertices grow
like 0.3 Q^3).  An empty arc, when (1, 1) lies outside the region, is the
one special case: its polygon is the unit square.

`_blocks` is the one walk of that sign-and-swap template: the cycle's
columns and every export read it.  Both kinds of export format each
octant magnitude once and write each block of the cycle from those texts
and its signs, one byte grid of `textgrid.lines` per block.  Integer
exports take one pass of the int64 digit kernel over the octant rows,
which writes the eight texts a block's x and y can be, its signs
included; scaled exports take the repr (float kernel, CSV) or {:.6f}
(SVG) text of each magnitude, with the block's signs as constant
columns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from . import textgrid
from .domains import DomainSpec, lattice_contains
from .number_theory import farey_fractions


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
    cap = _row_caps(spec, order)
    try:
        a, q = farey_fractions(order, cap)
    except ArithmeticError as exc:
        raise ArithmeticError(f"{exc}, region {spec}") from exc
    return q, a


# A polygon's cycle is eight blocks of L rows, built from its first-octant
# vertices (a_k, -b_k), k < L, with magnitudes a_k, b_k > 0: block j holds
# (a_k, b_k) or, swapped, (b_k, a_k), in order or reversed, and signed:
# (swapped, reversed, x sign, y sign) of each block, in cycle order.
_BLOCKS = (
    (False, False, "", "-"),
    (True, True, "", "-"),
    (True, False, "", ""),
    (False, True, "", ""),
    (False, False, "-", ""),
    (True, True, "-", ""),
    (True, False, "-", "-"),
    (False, True, "-", "-"),
)


def _template(octant: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The rows of an octant v_0..v_L that the blocks of its cycle repeat,
    and those blocks: rows k < L under all of `_BLOCKS`, or, when the arc is
    empty and the polygon is the unit square, v_0 under the four quarter
    turns, the even blocks."""
    size = len(octant) - 1
    return (octant[:size], _BLOCKS) if size else (octant, _BLOCKS[::2])


def _blocks(a: np.ndarray, b: np.ndarray, template: tuple
            ) -> Iterator[tuple[str, np.ndarray, str, np.ndarray]]:
    """(sx, u, sy, w) of each block of a cycle: its columns u and w, the rows
    of the magnitudes a and b swapped and reversed as `template` says, and
    their signs, "" or "-".  The magnitudes may be numbers or their text
    grids."""
    for swapped, reversed_, sx, sy in template:
        u, w = (b, a) if swapped else (a, b)
        yield (sx, u[::-1], sy, w[::-1]) if reversed_ else (sx, u, sy, w)


def _signed(sign: str, v: np.ndarray) -> np.ndarray:
    return -v if sign else v


class _OctantShape:
    """What a polygon derives from its first octant, built on demand:
    `xy`, the (n, 2) vertex cycle of its `blocks()`, and `vertices`, that
    cycle as a tuple of Python numbers."""

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        raise NotImplementedError

    @cached_property
    def xy(self) -> np.ndarray:
        return np.concatenate([np.stack(cols, axis=1) for cols in self.blocks()])

    @cached_property
    def vertices(self) -> tuple[tuple, ...]:
        return tuple(zip(*self.xy.T.tolist()))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v
            for u, v in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )


@dataclass(frozen=True, eq=False)
class LatticePolygon(_OctantShape):
    """P_Q as its fundamental arc, the int64 edge arrays q and a from
    build_polygon.  Its cycle starts at the origin, the end of the (1, 0)
    edge; edge i runs from vertices[i-1] to vertices[i]."""

    q: np.ndarray
    a: np.ndarray
    order: int
    domain: DomainSpec

    @cached_property
    def octant(self) -> np.ndarray:
        """The first-octant vertices v_0 = (0, 0), ..., v_L, the prefix sums
        of the arc, as an (L + 1, 2) int64 array."""
        steps = np.stack((self.q, self.a), axis=1)
        return np.concatenate((np.zeros((1, 2), dtype=np.int64), steps.cumsum(axis=0)))

    @cached_property
    def scale(self) -> Fraction:
        """R, half the polygon's height, exact: X + Y - 1/2 from the arc's
        sums X and Y, or 1/2 when the arc is empty (the unit square)."""
        x, y = self.octant[-1].tolist()
        return Fraction(2 * (x + y) - 1, 2) if x else Fraction(1, 2)

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The int64 (x, y) columns of each block, exactly: the blocks of the
        doubled centred magnitudes A = 2x + 1 and B = 2R - 2y, which are odd,
        halved back."""
        r2 = int(2 * self.scale)
        rows, template = _template(self.octant)
        x, y = rows.T
        for sx, u, sy, w in _blocks(2 * x + 1, r2 - 2 * y, template):
            yield (_signed(sx, u) - 1) // 2, (_signed(sy, w) + r2) // 2

    def edges(self) -> list[PrimitiveVector]:
        steps = self.xy - np.roll(self.xy, 1, axis=0)
        return list(map(PrimitiveVector, *steps.T.tolist()))


def build_polygon(spec: DomainSpec, order: int) -> LatticePolygon:
    return LatticePolygon(*_fundamental_arc(spec, order), order, spec)


@dataclass(frozen=True, eq=False)
class ScaledPolygon(_OctantShape):
    """The rescaled polygon, centered at the origin, as its float64 first
    octant: the vertices v_0..v_L of the integer polygon mapped to
    ((x + 0.5)/R, (y - R)/R); scale is the exact half-integer R kept as a
    Fraction."""

    octant: np.ndarray
    scale: Fraction
    order: int
    domain: DomainSpec

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The (x, y) columns of each block: signed swaps of the octant."""
        return ((_signed(sx, u), _signed(sy, w)) for sx, u, sy, w in _blocks(*self._magnitudes()))

    def _magnitudes(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """The magnitudes a = x and b = -y of the octant's rows, which its
        blocks repeat, and their template."""
        rows, template = _template(self.octant)
        return rows[:, 0], -rows[:, 1], template


def scale_polygon(polygon: LatticePolygon) -> ScaledPolygon:
    rf = float(polygon.scale)
    x, y = polygon.octant.T
    octant = np.stack(((x + 0.5) / rf, (y - rf) / rf), axis=1)
    return ScaledPolygon(octant, polygon.scale, polygon.order, polygon.domain)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _int_texts(polygon: LatticePolygon, y_sign: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The text grids of the x and y_sign * y columns of each block of the
    cycle, y_sign 1 or -1, from one pass of the digit kernel over the
    octant rows.  For the doubled magnitudes u = A or B of
    `LatticePolygon.blocks`, a block's x is (u - 1)/2, or -(u + 1)/2 where
    its x sign is "-", and its y, never negative, is (2R + u)/2, or
    (2R - u)/2 where its y sign is "-".  Those eight values of each row are
    written once with their signs, so -y has "-" wherever y is not 0."""
    r2 = int(2 * polygon.scale)
    rows, template = _template(polygon.octant)

    def values(s: slice) -> np.ndarray:
        x, y = rows[s].T
        u = np.stack((2 * x + 1, r2 - 2 * y), axis=1)
        return np.stack(((u - 1) // 2, -(u + 1) // 2, y_sign * ((r2 + u) // 2), y_sign * ((r2 - u) // 2)), axis=2)

    grid = textgrid.sliced_int_grid((len(rows), 2, 4), r2, values)
    for sx, u, sy, w in _blocks(grid[:, 0], grid[:, 1], template):
        yield u[:, 1 if sx else 0], w[:, 3 if sy else 2]


def polygon_csv_chunks(polygon: LatticePolygon | ScaledPolygon) -> Iterator[str]:
    """The polygon's CSV, a header and then the blocks of the cycle, each
    one byte grid: integer rows from the digit-kernel texts of the octant,
    scaled rows from the repr text of each octant magnitude, taken once,
    and each block's signs."""
    yield "x,y\n"
    if isinstance(polygon, LatticePolygon):
        for x, y in _int_texts(polygon, 1):
            yield textgrid.lines([x, ",", y, "\n"])
        return
    a, b, template = polygon._magnitudes()
    grid = textgrid.float_grid(np.stack((a, b), axis=1))
    for sx, u, sy, w in _blocks(grid[:, 0], grid[:, 1], template):
        yield textgrid.lines([sx, u, ",", sy, w, "\n"])


def polygon_svg_chunks(polygon: LatticePolygon | ScaledPolygon) -> Iterator[str]:
    """The polygon's SVG, one closed polyline (scaled polygons in the fixed
    unit frame): a header, the blocks of the cycle as in polygon_csv_chunks,
    each row led by " L " but the first, and a footer; the {:.6f} text of an
    integer is its digits and ".000000", as every coordinate is far below
    2^53."""
    if isinstance(polygon, ScaledPolygon):
        viewbox = "-1.2 -1.2 2.4 2.4"
        width = 0.006
        a, b, template = polygon._magnitudes()
        a, b = textgrid.fixed_grid(a), textgrid.fixed_grid(b)
        blocks = (textgrid.lines([" L ", sx, u, " ", "" if sy else "-", w])  # y points down
                  for sx, u, sy, w in _blocks(a, b, template))
    else:
        # the polygon spans 2R in each direction about its centre (-1/2, R)
        r2 = int(2 * polygon.scale)
        x0 = -(r2 + 1) // 2
        pad = max(2, r2 // 20)
        viewbox = f"{x0 - pad} {-r2 - pad} {r2 + 2 * pad} {r2 + 2 * pad}"
        width = max(r2 / 400.0, 0.05)
        blocks = (textgrid.lines([" L ", x, ".000000 ", y, ".000000"]) for x, y in _int_texts(polygon, -1))
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{viewbox}">\n'
        '  <path d="M '
    )
    for j, block in enumerate(blocks):
        yield block if j else block[len(" L "):]
    yield f' Z" fill="none" stroke="black" stroke-width="{width}"/>\n</svg>\n'
