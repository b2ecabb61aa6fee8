"""Convergence experiments: scaled polygons against their limit curves.

Distance is measured from polygon vertices and edge midpoints to the
curve; scaled edges have length O(1/Q^2), so these points control the
containment of the whole polygon in a curve neighborhood.  For the
parabolic family the point-to-curve distance is computed exactly through
the stationarity cubic; the other families use a dense sample of the
eight-fold curve with the largest sample gap added as slack, which keeps
every reported number an upper bound.

A probe point's distance is a minimum over the eight dihedral images of
the fundamental arc, so it depends only on the point's orbit.  The probe
points come from the polygon's first octant (`ScaledPolygon.octant`):
its vertices, its edge midpoints and (0, -1), whose orbits hold every
vertex and midpoint bit for bit; for C, which is invariant under quarter
turns only (the cubic's arccos branch is not exact under reflection),
also their mirror images (-x, y).  The distance to the fundamental arc
alone, or to the bottom parabola for C, is one term of that minimum and
bounds each point from above.  The largest bounds are confirmed by the
full minimum until no bound left exceeds the best confirmed value.  The
maximum is the number a full search over every image gives, bit for bit:
a sign change or swap of both operands leaves every squared difference
unchanged.  The distance itself (`curve_distance`) takes any point array.

The sampled arc is folded into the octant 0 <= x <= -y and sorted by x
once per table.  A point's nearest sample is found in a window of the
sorted samples around its x, widened until the squared x difference just
outside it is no smaller than the least squared distance inside
(`_nearest_d2`): the same float as an exhaustive search, with no
spatial index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import textgrid
from .domains import DomainSpec
from .limit_curves import LimitCurve, dihedral_images
from .polygon import ScaledPolygon, build_polygon, scale_polygon


# ---------------------------------------------------------------------------
# Point-to-curve distance
# ---------------------------------------------------------------------------


def _probe_points(poly: ScaledPolygon, curve: LimitCurve) -> np.ndarray:
    """Points whose distances to the curve, up to the exact symmetries of
    the distance, are those of every vertex and edge midpoint.

    Every vertex is a signed swap of a first-octant vertex v_0..v_L, and
    every midpoint 0.5 * (v[i] + v[i-1]) one of the midpoints of the
    octant's L edges and of the edge into v_0 from (-a_0, -b_0), bit for
    bit: rounding commutes with sign changes and swaps.  (v_L, a swap of
    v_{L-1}, is needed only for the unit square, whose octant is v_0.)
    For C, whose distance is invariant under rotations only, the mirror
    images (-x, y) are added."""
    octant = poly.octant
    path = np.concatenate((octant[:1] * (-1.0, 1.0), octant))
    points = np.concatenate((octant, 0.5 * (path[1:] + path[:-1])))
    return np.concatenate((points, points * (-1.0, 1.0))) if curve.family == "C" else points


def _fold_octant(points: np.ndarray) -> np.ndarray:
    """Each (x, y) in place to (min(|x|, |y|), -max(|x|, |y|)), its image in
    the octant 0 <= x <= -y."""
    np.abs(points, out=points)
    x, y = points[:, 0], points[:, 1]
    high = np.maximum(x, y)
    np.minimum(x, y, out=x)
    np.negative(high, out=y)
    return points


def _confirmed_max(bounds: np.ndarray, exact: Callable[[np.ndarray], np.ndarray]) -> float:
    """max of exact(i) over every index i, given bounds[i] >= exact(i).

    `exact` takes an index array.  Candidates are confirmed in descending
    order of their bounds, in blocks that double, until the next bound is
    no larger than the best confirmed value; no later index can beat it."""
    order = np.argsort(bounds)[::-1]
    best, start, size = -math.inf, 0, 1
    while start < len(order) and bounds[order[start]] > best:
        best = max(best, float(exact(order[start : start + size]).max()))
        start, size = start + size, 2 * size
    return best


def _parabola_arc_distance(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Exact distance to the arc y = 3x^2/4 - 1, |x| <= 2/3.

    Stationary points satisfy x^3 + P x + Q = 0 with P = -(4/9)(1+3py),
    Q = -(8/9) px; all real roots are recovered by Cardano/trigonometric
    formulas and clamped to the arc together with its endpoints.
    """
    p = -(4.0 / 9.0) * (1.0 + 3.0 * py)
    q = -(8.0 / 9.0) * px
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3

    cands = [np.full_like(px, -2.0 / 3.0), np.full_like(px, 2.0 / 3.0)]

    # single real root where disc > 0
    sq = np.sqrt(np.maximum(disc, 0.0))
    one = np.cbrt(-q / 2.0 + sq) + np.cbrt(-q / 2.0 - sq)
    cands.append(np.where(disc > 0, one, np.nan))

    # three real roots where disc <= 0 (requires p < 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        m = 2.0 * np.sqrt(np.maximum(-p / 3.0, 0.0))
        ratio = np.clip(3.0 * q / np.where(p != 0, p * m, np.nan), -1.0, 1.0)
        theta = np.arccos(ratio) / 3.0
        for shift in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
            root = m * np.cos(theta - shift)
            cands.append(np.where(disc <= 0, root, np.nan))

    best = np.full(px.shape, np.inf)
    for c in cands:
        x = np.clip(c, -2.0 / 3.0, 2.0 / 3.0)
        valid = ~np.isnan(x)
        d2 = np.where(
            valid,
            (x - px) ** 2 + (0.75 * x * x - 1.0 - py) ** 2,
            np.inf,
        )
        best = np.minimum(best, d2)
    return np.sqrt(best)


def _distance_to_C(points: np.ndarray) -> np.ndarray:
    """Exact distance to the full four-arc parabolic curve."""
    best = np.full(len(points), np.inf)
    x, y = points[:, 0], points[:, 1]
    # rotate the query points into the frame of the bottom arc
    for qx, qy in ((x, y), (y, -x), (-x, -y), (-y, x)):
        best = np.minimum(best, _parabola_arc_distance(qx, qy))
    return best


# Most elements in one temporary of the nearest-sample search: the queries
# are taken in slices so that no window array grows past this, whatever the
# number of samples or of points.
_WINDOW_ELEMENTS = 1 << 18
_FIRST_WIDTH = 8  # samples on each side of a query's first window


def _sorted_arc(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) columns of an (n, 2) sample array, ordered by x (stable)."""
    order = np.argsort(points[:, 0], kind="stable")
    return points[order, 0], points[order, 1]


def _nearest_d2(arc: tuple[np.ndarray, np.ndarray], points: np.ndarray, best: np.ndarray) -> np.ndarray:
    """best, lowered in place to the least (x - px)**2 + (y - py)**2 over the
    samples (x, y) of a `_sorted_arc`, for each point (px, py).

    A point's window starts where px falls among the sample xs and grows on
    both sides, by rings that double in width (up to _WINDOW_ELEMENTS / 2
    samples a side), until on each side the first sample outside has
    (x - px)**2 >= best or the arc has ended.  Rounding is monotone, so
    every sample farther out has as large a squared x difference and no
    smaller a squared distance: the result is the minimum over all samples,
    the same float as an exhaustive search or a KD-tree that evaluates the
    same expression.  A small `best` on entry (a running minimum) closes a
    far point's window after the first ring."""
    xs, ys = arc
    n = len(xs)
    # the open points: each has searched the samples pos-r..pos+r-1 (clipped)
    active = np.arange(len(points))
    pos = np.searchsorted(xs, points[:, 0])
    r, width = 0, _FIRST_WIDTH
    while active.size:
        px, py, least = points[active, 0], points[active, 1], best[active]
        ring = np.concatenate((np.arange(-r - width, -r), np.arange(r, r + width)))
        step = max(1, _WINDOW_ELEMENTS // ring.size)
        for start in range(0, active.size, step):
            part = slice(start, start + step)
            idx = pos[part, None] + ring
            dx = xs.take(idx, mode="clip")
            dx -= px[part, None]
            dx *= dx
            dy = ys.take(idx, mode="clip")
            del idx
            dy -= py[part, None]
            dy *= dy
            dx += dy
            np.minimum(least[part], dx.min(axis=1), out=least[part])
        best[active] = least
        r += width
        width = min(2 * width, _WINDOW_ELEMENTS // 2)
        left = xs.take(pos - r - 1, mode="clip") - px
        right = xs.take(pos + r, mode="clip") - px
        keep = ((pos > r) & (left * left < least)) | ((pos + r < n) & (right * right < least))
        active, pos = active[keep], pos[keep]
    return best


def curve_distance(
    curve: LimitCurve, samples: int = 2**14
) -> Callable[[np.ndarray], tuple[float, float]]:
    """(measured distance, sampling slack) of an (n, 2) point array to the
    full eight-fold curve: the largest distance of a point; slack is zero
    for the exact parabolic path.  The folded arc is sampled and sorted
    once, here."""
    if samples < 1000:
        raise ValueError("need at least 1000 curve samples")
    if curve.family == "C":

        def parabolic(points: np.ndarray) -> tuple[float, float]:
            # elementwise: a slice at a time bounds its temporaries, not its floats
            bounds = np.empty(len(points))
            for start in range(0, len(points), textgrid._SLICE):
                part = slice(start, start + textgrid._SLICE)
                bounds[part] = _parabola_arc_distance(points[part, 0], points[part, 1])
            return _confirmed_max(bounds, lambda i: _distance_to_C(points[i])), 0.0

        return parabolic
    arc = curve.points(np.linspace(0.0, 1.0, samples))
    gap = float(np.linalg.norm(np.diff(arc, axis=0), axis=1).max())
    folded = _sorted_arc(_fold_octant(arc))

    def sampled(points: np.ndarray) -> tuple[float, float]:
        d2 = _nearest_d2(folded, points, np.full(len(points), np.inf))

        def images_min(i: np.ndarray) -> np.ndarray:
            # every image starts from the bound, the identity image's minimum
            images = dihedral_images(points[i]).reshape(-1, 2)
            best = _nearest_d2(folded, images, np.tile(d2[i], 8))
            return np.sqrt(best.reshape(8, -1).min(axis=0))

        return _confirmed_max(np.sqrt(d2), images_min), gap

    return sampled


# ---------------------------------------------------------------------------
# Convergence tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRecord:
    domain: str
    order: int
    curve: str
    sup_distance: float
    bound: float


_CURVE_FAMILY = {"square": "C", "diamond": "C1", "octagon": "Cdelta", "ball": "Cp"}


def expected_curve(spec: DomainSpec) -> LimitCurve:
    """The limit curve proved for the region's family."""
    return LimitCurve(_CURVE_FAMILY[spec.kind], spec.param)


def _canonical_curve(curve: LimitCurve) -> tuple[str, Fraction | None]:
    # the diamond curve has three equivalent descriptions
    if curve.family in ("Cdelta", "Cp") and curve.param == 1:
        return ("C1", None)
    return (curve.family, curve.param)


def check_pairing(spec: DomainSpec, curve: LimitCurve, typed: tuple[str, str] | None = None) -> None:
    """Refuse a curve other than the one proved for the region's family.
    The refusal names the domain and the curve by `typed`, the texts they
    were parsed from, if given: a parameter's Fraction may have more digits
    than str() will convert."""
    expected = expected_curve(spec)
    if _canonical_curve(expected) != _canonical_curve(curve):
        domain, given = typed or (str(spec), str(curve))
        param = domain.strip().partition(":")[2]  # the expected curve's, as the domain's text writes it
        want = expected if expected.param is None else f"{expected.family}:{param}"
        raise ValueError(f"domain {domain} converges to {want}, not {given}")


def convergence_table(
    spec: DomainSpec,
    q_list: Sequence[int],
    curve: LimitCurve,
    samples: int = 2**14,
) -> list[ConvergenceRecord]:
    """Sup-distance records along a ladder of orders, sorted by order; the
    curve's folded, sorted samples are built once for all of them."""
    check_pairing(spec, curve)
    details = curve_distance(curve, samples)

    def row(order: int) -> ConvergenceRecord:
        poly = scale_polygon(build_polygon(spec, order))
        measured, slack = details(_probe_points(poly, curve))
        return ConvergenceRecord(str(spec), order, str(curve), measured, measured + slack)

    return [row(q) for q in sorted(set(q_list))]


def convergence_csv(records: Sequence[ConvergenceRecord]) -> str:
    lines = ["domain,Q,curve,sup_distance,bound"]
    for r in records:
        lines.append(f"{r.domain},{r.order},{r.curve},{r.sup_distance!r},{r.bound!r}")
    return "\n".join(lines) + "\n"
