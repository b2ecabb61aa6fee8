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
The arc, the edges and the vertices, their prefix sums, are int64 arrays
(vertices grow like 0.3 Q^3); `vertices` is a tuple view built on demand.

The exports are streamed a block of rows at a time.  A scaled polygon is
written from its first octant, once `first_octant` has certified bitwise
that the other seven eighths are its signed swaps: each octant magnitude
is formatted once, and the eight blocks follow a fixed sign-and-swap
template.  Integer rows are formatted by an int64 digit kernel in numpy.
Any other cycle is written vertex by vertex.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .domains import DomainSpec, lattice_contains
from .number_theory import RationalReal, RealSpec, farey_fractions


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

_SIGN_BIT = np.int64(-(2**63))
_INF_BITS = np.float64(np.inf).view(np.int64)

# A scaled polygon of order Q >= 2 is eight blocks of L rows.  Block j holds
# the first-octant vertices (a_k, -b_k), k < L, with magnitudes a_k, b_k, as
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

# Integer rows are formatted this many at a time, so a chunk's digit grid
# stays a few MB.
_CHUNK_ROWS = 1 << 16


def first_octant(polygon: LatticePolygon | ScaledPolygon) -> np.ndarray | None:
    """The first L + 1 vertices of a float64 cycle of 8L vertices, such as a
    scaled polygon, once the cycle is certified to be the dihedral orbit of
    the first L.

    The certificate is bitwise, on int64 views with the sign bits: rows
    k < L are (a_k, -b_k) with a_k and b_k not NaN and of clear sign bit,
    and every block of L rows is its `_BLOCKS` image of them.  Vertex L,
    (b_{L-1}, -a_{L-1}), ends the arc's last edge.  None for any other
    cycle, such as the unit square of order 1 or an integer cycle."""
    xy = polygon.xy
    if xy.dtype != np.float64 or len(xy) == 0 or len(xy) % 8:
        return None
    size = len(xy) // 8
    bits = xy.view(np.int64)
    a, b = bits[:size, 0], bits[:size, 1] ^ _SIGN_BIT
    if not ((a >= 0) & (a <= _INF_BITS) & (b >= 0) & (b <= _INF_BITS)).all():
        return None
    for j, (swapped, reversed_, sx, sy) in enumerate(_BLOCKS):
        block = bits[j * size : (j + 1) * size]
        u, w = (b, a) if swapped else (a, b)
        if reversed_:
            block = block[::-1]
        if not (np.array_equal(block[:, 0], u | _SIGN_BIT if sx else u)
                and np.array_equal(block[:, 1], w | _SIGN_BIT if sy else w)):
            return None
    return xy[: size + 1]


def _octant_blocks(octant: np.ndarray, fmt: Callable[[float], str], mid: str, end: str,
                   flip_y: bool = False) -> Iterator[str]:
    """The eight blocks of a certified cycle, each row x + mid + y and rows
    joined by end, with y negated under flip_y.  fmt runs once per octant
    magnitude, as fmt(-v) == "-" + fmt(v) for v of clear sign bit; each
    block's x sign is folded into its join separator, and its rows come
    from one of four families (swapped or not, y sign), each shared by two
    blocks."""
    size = len(octant) - 1
    a, b = (list(map(fmt, col.tolist())) for col in (octant[:size, 0], -octant[:size, 1]))
    families: dict[tuple[bool, str], list[str]] = {}
    for swapped, reversed_, sx, sy in _BLOCKS:
        if flip_y:
            sy = "" if sy else "-"
        rows = families.get((swapped, sy))
        if rows is None:
            u, w = (b, a) if swapped else (a, b)
            rows = families[swapped, sy] = [f"{x}{mid}{sy}{y}" for x, y in zip(u, w)]
        yield sx + (end + sx).join(reversed(rows) if reversed_ else rows)


def _int_lines(x: np.ndarray, y: np.ndarray, mid: str, end: str) -> str:
    """"".join(f"{x}{mid}{y}{end}") over int64 columns x and y, exactly.

    Each row is laid out in one uint8 grid: a column's field is a sign
    byte and as many digit bytes as its largest magnitude has, filled by
    repeated division by 10; the sign byte of a nonnegative value and the
    leading zeros are NUL, which one `bytes.translate` deletes before the
    decode."""
    mags = [np.abs(col).astype(np.uint64) for col in (x, y)]  # -2^63 wraps to its magnitude
    widths = [len(str(int(mag.max(initial=0)))) for mag in mags]
    seps = [np.frombuffer(sep.encode(), dtype=np.uint8) for sep in (mid, end)]
    grid = np.zeros((len(x), 2 + sum(widths) + len(seps[0]) + len(seps[1])), dtype=np.uint8)
    start = 0
    for col, mag, width, sep in zip((x, y), mags, widths, seps):
        grid[:, start] = (col < 0).view(np.uint8) * ord("-")
        units = start + width
        for j in range(units, start, -1):
            quot = mag // 10
            digit = mag.astype(np.uint8) - quot.astype(np.uint8) * 10  # mod 256
            # a leading zero, where nothing is left, stays NUL
            grid[:, j] = digit + ((mag != 0).view(np.uint8) if j < units else 1) * ord("0")
            mag = quot
        grid[:, units + 1 : units + 1 + len(sep)] = sep
        start = units + 1 + len(sep)
    return grid.tobytes().translate(None, b"\0").decode("ascii")


def polygon_csv_chunks(polygon: LatticePolygon | ScaledPolygon) -> Iterator[str]:
    """The text of polygon_csv, a header and blocks of rows at a time: int64
    coordinates by the digit kernel, a certified cycle by its eight octant
    blocks, any other cycle vertex by vertex."""
    yield "x,y\n"
    xy = polygon.xy
    if xy.dtype == np.int64:
        for start in range(0, len(xy), _CHUNK_ROWS):
            yield _int_lines(*xy[start : start + _CHUNK_ROWS].T, ",", "\n")
        return
    octant = first_octant(polygon)
    if octant is None:
        yield "".join([f"{x!r},{y!r}\n" for x, y in polygon.vertices])
        return
    for block in _octant_blocks(octant, repr, ",", "\n"):
        yield block
        yield "\n"


def polygon_csv(polygon: LatticePolygon | ScaledPolygon) -> str:
    return "".join(polygon_csv_chunks(polygon))


def polygon_svg_chunks(polygon: LatticePolygon | ScaledPolygon) -> Iterator[str]:
    """The text of polygon_svg, a few blocks of vertices at a time, chosen
    as in polygon_csv_chunks; the {:.6f} text of an integer is its digits
    and ".000000" while it is exact as a float."""
    xy = polygon.xy
    if isinstance(polygon, ScaledPolygon):
        viewbox = "-1.2 -1.2 2.4 2.4"
        width = 0.006
    else:
        (x0, y0), (x1, y1) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
        pad = max(2, (x1 - x0) // 20)
        viewbox = f"{x0 - pad} {-y1 - pad} {x1 - x0 + 2 * pad} {y1 - y0 + 2 * pad}"
        width = max((x1 - x0) / 400.0, 0.05)
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{viewbox}">\n'
        '  <path d="M '
    )
    octant = first_octant(polygon)
    if xy.dtype == np.int64 and -(2**53) <= xy.min() and xy.max() <= 2**53:
        for start in range(0, len(xy), _CHUNK_ROWS):
            rows = xy[start : start + _CHUNK_ROWS]
            text = _int_lines(rows[:, 0], -rows[:, 1], ".000000 ", ".000000 L ")  # y points down
            yield text if start + _CHUNK_ROWS < len(xy) else text[: -len(" L ")]
    elif octant is not None:
        for j, block in enumerate(_octant_blocks(octant, "{:.6f}".format, " ", " L ", flip_y=True)):
            yield " L " + block if j else block
    else:
        yield " L ".join([f"{x:.6f} {-y:.6f}" for x, y in polygon.vertices])
    yield f' Z" fill="none" stroke="black" stroke-width="{width}"/>\n</svg>\n'


def polygon_svg(polygon: LatticePolygon | ScaledPolygon) -> str:
    """A single closed polyline; scaled polygons use the fixed unit frame."""
    return "".join(polygon_svg_chunks(polygon))
