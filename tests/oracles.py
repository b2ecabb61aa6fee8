"""Independent reference implementations that the tests compare against.

The polygon construction here is the direct definition: test every lattice
point of the box for primitivity and membership, then sort the survivors
by exact angle with `Fraction` keys.  It makes O(Q^2) membership calls and
an O(Q^2 log Q) sort, so the package builds its polygons from its array
Farey kernel instead; these stay as the reference that kernel must
reproduce.  The vertex cycle is also rebuilt as the package built it
before it held each polygon as its fundamental arc: every edge of the
eight images, summed from (-1, 0).  The Farey fractions themselves are
walked by the next-term recurrence the package used before that kernel.
The Farey neighbours of an irrational are likewise recomputed by mediant
descent, a route independent of the package's convergent walk, and R(Q)
for the square region is summed directly from the totients, without the ladder,
and the totients and the Mobius function come from the list sieves the
package used before its int64 ones.  The neighbours at a run of orders are
checked against a plain scan: the best fraction on each side of the slope
over every denominator up to the order.
The curvature trace is rebuilt the way the package built it before its
integer rows: one exact `Fraction` circumradius per order, of the
neighbours that the plain scan finds, and the way it wrote them a run of
orders at a time before its float columns became arrays: the run's
integers and r^2 once, in Python ints, and the two floats of each order
one at a time.  The ladder's
Mobius check is summed one term per divisor d, as it was before its terms
were grouped by the value of Q//d.  Ball membership keeps the order in which the package first
ran its tests: the Besicovitch tie test before any bracketing.
The limit-curve arcs are evaluated one parameter at a time by their
closed forms, with the regularized incomplete beta of the ball family
computed by a modified Lentz continued fraction instead of scipy.
A polygon's distance to its limit curve is measured the way the package
measured it before folding: every vertex and edge midpoint against all
eight images of the sampled arc, or, for the parabolic family, against
all four arcs.  A curve's SVG is written the way the package wrote it
before its sign-and-swap template: each of the eight images formatted
coordinate by coordinate, and its CSV one row at a time, joined at the
end.  The curvature trace's step plot is written the way the package wrote
it before it streamed: from a list of every (Q, r_tilde) point, each step
formatted one at a time.

The section of second routes holds quantities the package computes
once: exact ball-family arcs for p = 1/m, a second closed form of the
ball arc's y, the ball arc at 40 digits by mpmath, the map of C onto C1,
the partial sums of mu(q)/q^2, the moment-route vertex ratios and the
asymptote of R(Q).

The last section holds views and checks that only the tests read, built
on the package's own routes.  Four of them the package kept for its
selftest until that read the commands' own routes: the vertex reached at
each of many slopes, by bisection into the prefix sums of one arc; the
exact `Fraction` circumradius of three lattice points; the runs of a
trace with their neighbours, r^2 and X(Q,1) as exact integers, read from
its blocks; and a region's wedge moment integrals, its limit curve's
normalised moments scaled.  The others are the Farey sequence as
Fractions from the array kernel, a neighbour pair that checks its own
unimodularity, the neighbours of a slope at one order from its run, the
membership of a rational point, a polygon's convexity turn by turn, a
curvature trace as one sample per order (the runs of `curvature_runs`
with the floats read back from the text of `trace_lines`), the predicted
radius, window estimates of the trace with the limsup of a periodic
quotient stream, the vertex-sum lemma check, and the implicit residuals
of the curves whose algebraic form is known.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.special import betainc

from jarnik import limit_curves
from jarnik.analysis import _distance_to_C
from jarnik.curvature import (
    _SQUARE_COEFF,
    CurvatureBounds,
    _blocks,
    _bounds_for,
    _x_ladder,
    trace_lines,
)
from jarnik.domains import DomainSpec, _iroot_floor, lattice_contains, square
from jarnik.limit_curves import LimitCurve, Point, ball_wedge, beta_complete, polygon_wedge
from jarnik.number_theory import (
    QuadraticSurd,
    RealSpec,
    convergent_walk,
    farey_fractions,
    farey_neighbor_runs,
)
from jarnik.polygon import LatticePolygon, PrimitiveVector, _fundamental_arc, build_polygon


def primitive_vectors(spec: DomainSpec, order: int) -> list[PrimitiveVector]:
    """All primitive vectors (q, a) with (q/Q, a/Q) in the region."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    gcd = math.gcd
    found: list[PrimitiveVector] = []
    for q in range(-order, order + 1):
        for a in range(-order, order + 1):
            if (q or a) and gcd(q, a) == 1 and lattice_contains(spec, q, a, order):
                found.append(PrimitiveVector(q, a))
    return found


def _sector(v: PrimitiveVector) -> int:
    # 0: along +x, 1: upper half plane, 2: along -x, 3: lower half plane
    if v.a == 0:
        return 0 if v.q > 0 else 2
    return 1 if v.a > 0 else 3


def _angle_key(v: PrimitiveVector) -> tuple[int, Fraction]:
    # Within an open half plane the angle increases with -cot = -q/a,
    # and the same expression orders the lower half plane as well.
    if v.a == 0:
        return (_sector(v), Fraction(0))
    return (_sector(v), Fraction(-v.q, v.a))


def sort_ccw(vectors: Sequence[PrimitiveVector]) -> list[PrimitiveVector]:
    """Counterclockwise angular order starting from the direction (1, 0).

    Purely integer comparisons (half-plane index, then exact slope); a
    repeated direction cannot occur among primitive vectors and is
    reported as an internal error.
    """
    ordered = sorted(vectors, key=_angle_key)
    for prev, cur in zip(ordered, ordered[1:]):
        if _angle_key(prev) == _angle_key(cur):
            raise ValueError(f"duplicate direction: {prev} and {cur}")
    return ordered


def polygon_from_vectors(
    spec: DomainSpec, order: int, vectors: Sequence[PrimitiveVector]
) -> LatticePolygon:
    """The polygon whose edges are `vectors` in counterclockwise order, with
    the (1, 0) edge ending at the origin: the fundamental arc of the
    vectors, once its cycle is checked against the one they walk."""
    ordered = sort_ccw(vectors)
    start = ordered.index(PrimitiveVector(1, 0))
    ordered = ordered[start:] + ordered[:start]
    verts = []
    x, y = -1, 0
    for q, a in ordered:
        x += q
        y += a
        verts.append((x, y))
    if verts[-1] != (-1, 0):
        raise ValueError("edge vectors do not close up; region not symmetric")
    arc = np.array([v for v in ordered if 0 < v.a <= v.q], dtype=np.int64).reshape(-1, 2)
    poly = LatticePolygon(arc[:, 0], arc[:, 1], order, spec)
    if poly.vertices != tuple(verts):
        raise ValueError("the walked cycle is not the cycle of its fundamental arc")
    return poly


def reference_cycle(spec: DomainSpec, order: int) -> np.ndarray:
    """The int64 vertex cycle built the way the package built it before it
    held each polygon as its fundamental arc: every edge, the arc and its
    mirror image in the diagonal after (1, 0) and that quarter's three
    rotations, summed from (-1, 0)."""
    q, a = _fundamental_arc(spec, order)
    # (1, 1) is its own mirror image, and it ends every nonempty arc
    dx = np.concatenate(([1], q, a[:-1][::-1]))
    dy = np.concatenate(([0], a, q[:-1][::-1]))
    dx, dy = np.concatenate((dx, -dy, -dx, dy)), np.concatenate((dy, dx, -dy, -dx))
    return np.stack((np.cumsum(dx) - 1, np.cumsum(dy)), axis=1)


def scale_factor(spec: DomainSpec, order: int) -> Fraction:
    """R(Q) of the region, exact."""
    return build_polygon(spec, order).scale


def vertex_from_vectors(
    vectors: Sequence[PrimitiveVector], lam: RealSpec | Fraction | int
) -> tuple[int, int]:
    """Sum of the vectors with positive coordinates and slope at most lam."""
    chosen = [v for v in vectors if v.q > 0 and v.a > 0 and slope_cmp(lam, Fraction(v.a, v.q)) >= 0]
    return (sum(v.q for v in chosen), sum(v.a for v in chosen))


def farey_walk(order: int):
    """(a, q) for the Farey fractions a/q of the order in (0, 1], increasing,
    by the next-term recurrence (no gcd, no comparison of fractions)."""
    a, b, c, d = 0, 1, 1, order  # consecutive fractions a/b < c/d
    while True:
        yield c, d
        if c == d:
            return
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def totient_list_sieve(limit: int) -> list[int]:
    """phi(0..limit) as a list (phi[0] = 0), one prime at a time."""
    if limit < 1:
        raise ValueError("sieve limit must be a positive integer")
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def moebius_linear_sieve(limit: int) -> list[int]:
    """mu(0..limit) as a list (mu[0] = 0), by a linear prime sieve."""
    if limit < 1:
        raise ValueError("sieve limit must be a positive integer")
    mu = [0] * (limit + 1)
    mu[1] = 1
    is_comp = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            is_comp[ip] = 1
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    return mu


def slope_cmp(lam: RealSpec | Fraction | int, frac: Fraction) -> int:
    """Sign of (lam - frac) for a slope of either kind, exact."""
    if isinstance(lam, RealSpec):
        return lam.cmp(frac)
    return (lam > frac) - (lam < frac)


def floor_scaled(lam: RealSpec | Fraction, q: int) -> int:
    """floor(lam q) for q >= 1, exact: a float seed corrected by slope_cmp."""
    a = int(float(lam) * q)
    while a > 0 and slope_cmp(lam, Fraction(a, q)) < 0:
        a -= 1
    while slope_cmp(lam, Fraction(a + 1, q)) >= 0:
        a += 1
    return a


def rational_quotients(value: Fraction) -> list[int]:
    """b_1, ..., b_m of value = [0; b_1, ..., b_m] in [0, 1], by Euclid."""
    quotients, num, den = [], value.numerator, value.denominator
    while num:
        quotients.append(den // num)
        num, den = den % num, num
    return quotients


def farey_neighbor_scan(lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None):
    """(Q, a1, q1, a2, q2) for Q = q_min..q_max: the largest fraction below
    lam and the smallest above it with denominator at most Q, as a running
    max and min over every denominator.  A rational cut point with a side
    takes lam itself as the neighbour on that side."""
    below, above = Fraction(-1), Fraction(2)
    for q in range(1, q_max + 1):
        a = floor_scaled(lam, q)
        below = max(below, Fraction(a if slope_cmp(lam, Fraction(a, q)) > 0 else a - 1, q))
        above = min(above, Fraction(a + 1, q))
        if q >= q_min:
            left = lam if side == "+" else below
            right = lam if side == "-" else above
            yield q, left.numerator, left.denominator, right.numerator, right.denominator


def farey_neighbors_stern_brocot(lam: RealSpec, order: int) -> FareyNeighbors:
    """Same query as farey_neighbors, by mediant descent from (0/1, 1/1)."""
    if order < 1:
        raise ValueError("Farey order must be a positive integer")
    if not isinstance(lam, RealSpec):
        raise ValueError("rational cut point; walk it as a Fraction with a side")
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
    while True:
        med_n, med_d = lo_n + hi_n, lo_d + hi_d
        if med_d > order:
            break
        if lam.cmp(Fraction(med_n, med_d)) > 0:
            lo_n, lo_d = med_n, med_d
        else:
            hi_n, hi_d = med_n, med_d
    return FareyNeighbors(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d), order)


def square_scale_factor(order: int) -> Fraction:
    """R(Q) for the square region, exact, via the totient sieve."""
    phi = totient_list_sieve(order)
    return Fraction(3 * sum(q * phi[q] for q in range(1, order + 1)), 2)


def fraction_trace_csv(lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None) -> str:
    """The `curvature` CSV by Fractions: per order, the neighbours by
    farey_neighbor_scan, r^2 as the circumradius of the vertex triple, and
    R(Q) from a running sum of the totients."""
    phi = totient_list_sieve(q_max)
    x = sum(q * phi[q] for q in range(q_min))
    lam_value = float(lam)
    lines = ["Q,q1,q2,r_squared_num,r_squared_den,r_tilde,predicted"]
    for order, a1, q1, a2, q2 in farey_neighbor_scan(lam, q_min, q_max, side):
        x += order * phi[order]
        r_sq = circumradius_squared((0, 0), (q1, a1), (q1 + q2, a1 + a2))
        r_tilde = math.sqrt(r_sq) / float(Fraction(3 * x, 2))
        predicted = predicted_radius(order, lam_value, q1, q2)
        lines.append(f"{order},{q1},{q2},{r_sq.numerator},{r_sq.denominator},{r_tilde!r},{predicted!r}")
    return "\n".join(lines) + "\n"


def scale_ladder(q_max: int) -> list[Fraction]:
    """R(Q) = 3 X(Q,1)/2 for Q = 0..q_max, from the package's int64 ladder."""
    return [Fraction(3 * x, 2) for x in _x_ladder(q_max).tolist()]


def run_trace_lines(lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None) -> str:
    """The `curvature` CSV a run at a time, in Python ints and floats: per
    run of farey_neighbor_runs, ",q1,q2,num,den," and sqrt(num / den) once,
    then per order root / (3 X / 2) and p / Q^3 * pi^2/6 * (1 + lam^2)^1.5,
    with X(Q,1) a running sum over the list sieve of the totients."""
    xs = list(accumulate(q * f for q, f in enumerate(totient_list_sieve(q_max))))
    lam_value = float(lam)
    shape = (1.0 + lam_value * lam_value) ** 1.5
    coeff = math.pi**2 / 6.0
    lines = ["Q,q1,q2,r_squared_num,r_squared_den,r_tilde,predicted\n"]
    for lo, hi, a1, q1, a2, q2 in farey_neighbor_runs(lam, q_min, q_max, side):
        num = (a1 * a1 + q1 * q1) * (a2 * a2 + q2 * q2) * ((a1 + a2) ** 2 + (q1 + q2) ** 2)
        num, den = num // math.gcd(num, 4), 4 // math.gcd(num, 4)
        mid, root, p = f",{q1},{q2},{num},{den},", math.sqrt(num / den), q1 * q2 * (q1 + q2)
        lines += [f"{order}{mid}{root / (3 * xs[order] / 2)!r},{p / order**3 * coeff * shape!r}\n"
                  for order in range(lo, hi + 1)]
    return "".join(lines)


def x_by_moebius_terms(order: int, mu) -> int:
    """X(Q,1) = sum_{d<=Q} mu(d) d S2(Q//d), one int64 term per d."""
    d = np.arange(1, order + 1, dtype=np.int64)
    m = order // d
    terms = m * (m + 1)
    terms *= 2 * m + 1
    terms //= 6
    terms *= d
    terms *= mu[1 : order + 1]
    return int(terms.sum())


def ball_sum_within_tie_first(A: int, B: int, C: int, b: int) -> bool:
    """A^(1/b) + B^(1/b) <= C^(1/b), deciding the Besicovitch tie before
    bracketing the two sides by scaled integer roots."""
    if b == 1:
        return A + B <= C
    if b == 2:
        gap = C - A - B
        return gap >= 0 and 4 * A * B <= gap * gap
    if not (A and B):
        return max(A, B) <= C
    lead = A ** (b - 1)
    tb, tc = _iroot_floor(lead * B, b), _iroot_floor(lead * C, b)
    if tb**b == lead * B and tc**b == lead * C:
        return A + tb <= tc
    for bits in (32, 64, 128, 256, 512, 1024, 4096):
        scale = 1 << bits
        sb = scale**b
        lo = _iroot_floor(A * sb, b) + _iroot_floor(B * sb, b)
        hi = lo + 2
        rc_lo = _iroot_floor(C * sb, b)
        if hi <= rc_lo:
            return True
        if lo > rc_lo + 1:
            return False
    raise ArithmeticError("membership comparison did not separate; boundary case")


_CF_EPS = 1e-15
_CF_MAXIT = 500
_FPMIN = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # modified Lentz iteration for the standard continued fraction of I_x
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def log_beta(a: float, b: float) -> float:
    """log B(a, b) by lgamma: the continued fraction's front factor stays
    finite where B(a, b) itself underflows."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def lentz_reg_inc_beta(z: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_z(a, b) by the continued fraction,
    applied directly below the split point (a+1)/(a+b+2) and through
    I_z(a,b) = 1 - I_{1-z}(b,a) above it."""
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return 1.0
    front = math.exp(a * math.log(z) + b * math.log1p(-z) - log_beta(a, b))
    if z < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, z) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - z) / b


def scalar_arc_point(family: str, param: float | None, lam: float) -> tuple[float, float]:
    """One point of a fundamental arc, by the closed forms in Python floats."""
    if family == "C":
        return (2.0 * lam / 3.0, lam * lam / 3.0 - 1.0)
    if family == "C1":
        den = (1.0 + lam) ** 2
        return (lam * (2.0 + lam) / den, -(2.0 * lam + 1.0) / den)
    if family == "Cdelta":
        delta = param
        den = (delta + lam) ** 2 * (3.0 * delta + 1.0)
        x = lam * (2.0 * delta + lam) * (delta + 1.0) ** 2 / den
        y = delta * lam * lam * (delta + 1.0) ** 2 / den - 1.0
        return (x, y)
    p = param
    if lam == 0.0:
        return (0.0, -1.0)
    t = lam**p
    mu = t / (1.0 + t)
    pref = math.exp(-3.0 / p * math.log1p(t))  # (1 + lam^p)^(-3/p)
    b_pp = math.exp(log_beta(1.0 / p, 2.0 / p))
    x = lentz_reg_inc_beta(mu, 1.0 / p, 1.0 + 2.0 / p) - p * lam * pref / (2.0 * b_pp)
    y = lentz_reg_inc_beta(mu, 2.0 / p, 1.0 + 1.0 / p) - p * lam * lam * pref / b_pp - 1.0
    return (x, y)


def dihedral_images(points: Sequence[tuple[float, float]]) -> list[list[tuple[float, float]]]:
    """The eight dihedral images of a point sequence, one map at a time."""
    pts = list(points)
    maps = [
        lambda x, y: (x, y),
        lambda x, y: (y, x),
        lambda x, y: (-y, x),
        lambda x, y: (-x, y),
        lambda x, y: (-x, -y),
        lambda x, y: (-y, -x),
        lambda x, y: (y, -x),
        lambda x, y: (x, -y),
    ]
    return [[m(x, y) for x, y in pts] for m in maps]


def curve_csv(curve: LimitCurve, samples: int) -> str:
    """The arc's (lambda, x, y) rows, each formatted by its own f-string and
    joined at the end."""
    lams = limit_curves._uniform_grid(samples)
    xs, ys = curve.points(lams).T.tolist()
    lines = ["lambda,x,y"]
    for lam, x, y in zip(lams.tolist(), xs, ys):
        lines.append(f"{lam!r},{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def curve_svg(curve: LimitCurve, samples: int) -> str:
    """Fundamental arc plus its eight dihedral images as a single path, each
    image's coordinates formatted one at a time."""
    arc = curve.points(limit_curves._uniform_grid(samples))
    subpaths = []
    for image in limit_curves.dihedral_images(arc):
        coords = " L ".join(f"{x:.6f} {-y:.6f}" for x, y in image.tolist())
        subpaths.append(f"M {coords}")
    path = " ".join(subpaths)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.2 -1.2 2.4 2.4">\n'
        f'  <path d="{path}" fill="none" stroke="black" stroke-width="0.006"/>\n'
        "</svg>\n"
    )


def points_svg(points: Sequence[tuple[int, float]], bounds: CurvatureBounds | None = None) -> str:
    """Step plot of the scaled radius against log Q, with the theoretical
    band and the limit-curve radius drawn as horizontal rules."""
    if not points:
        raise ValueError("empty trace")
    xs = [math.log10(order) for order, _ in points]
    ys = [r_tilde for _, r_tilde in points]
    x0, x1 = min(xs), max(xs)
    top = max(ys + ([bounds.band_high] if bounds else [])) * 1.05
    width, height = 640.0, 400.0

    def px(x: float) -> float:
        return (x - x0) / (x1 - x0 or 1.0) * width

    def py(y: float) -> float:
        return height - y / top * height

    steps = [f"M {px(xs[0]):.2f} {py(ys[0]):.2f}"]
    for i in range(1, len(xs)):
        steps.append(f"L {px(xs[i]):.2f} {py(ys[i - 1]):.2f}")
        steps.append(f"L {px(xs[i]):.2f} {py(ys[i]):.2f}")
    rules = ""
    if bounds is not None:
        for level, dash in (
            (bounds.band_low, "4 3"),
            (bounds.band_high, "4 3"),
            (bounds.limit_radius, "1 2"),
        ):
            y = py(level)
            rules += (
                f'  <line x1="0" y1="{y:.2f}" x2="{width}" y2="{y:.2f}" '
                f'stroke="gray" stroke-dasharray="{dash}" stroke-width="1"/>\n'
            )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f"{rules}"
        f'  <path d="{" ".join(steps)}" fill="none" stroke="black" stroke-width="1"/>\n'
        "</svg>\n"
    )


def vertices_and_midpoints(xy: np.ndarray) -> np.ndarray:
    """Every vertex of an (n, 2) float cycle and every edge midpoint."""
    return np.concatenate([xy, 0.5 * (xy + np.roll(xy, 1, axis=0))])


def curve_distance_oracle(curve: LimitCurve, samples: int = 2**14):
    """(measured distance, sampling slack) of an (n, 2) point array against
    the full curve: the points queried against a tree over all eight
    dihedral images of the sampled arc, or, for C, the four-rotation exact
    distance at every point."""
    if curve.family == "C":
        return lambda points: (float(_distance_to_C(points).max()), 0.0)
    from scipy.spatial import cKDTree

    arc = curve.points(np.linspace(0.0, 1.0, samples))
    gap = float(np.linalg.norm(np.diff(arc, axis=0), axis=1).max())
    tree = cKDTree(limit_curves.dihedral_images(arc).reshape(-1, 2))

    def details(points: np.ndarray) -> tuple[float, float]:
        dists, _ = tree.query(points, k=1)
        return float(dists.max()), gap

    return details


# ---------------------------------------------------------------------------
# Second routes
# ---------------------------------------------------------------------------


def curve_Cp_alternate_y(p: float, lam: float) -> float:
    """Second closed form of the ball-family y coordinate.

    Algebraically equal to LimitCurve("Cp", p).point(lam)[1] through the
    contiguous relations of I_z; kept as an independent evaluation path and
    checked against the primary one in tests.
    """
    p = float(p)
    if p <= 0:
        raise ValueError("ball exponent must be positive")
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("arc parameter must lie in [0, 1]")
    if lam == 0.0:
        return -1.0
    t = lam**p
    mu = t / (1.0 + t)
    pref = math.exp(-3.0 / p * math.log1p(t))
    b_pp = beta_complete(1.0 / p, 2.0 / p)
    return -(float(betainc(1.0 / p, 1.0 + 2.0 / p, 1.0 - mu)) - p * lam * lam * pref / (2.0 * b_pp))


def curve_Cp_mpmath(p: Fraction, lam: float) -> tuple[float, float]:
    """One point of the ball-family arc from its definition, in 40-digit
    mpmath arithmetic at the exact exponent and the float lam: no exponent
    range limits t = lam^p, so it holds where lam^p underflows a float."""
    import mpmath

    with mpmath.workdps(40):
        p = mpmath.mpf(p.numerator) / p.denominator
        lam = mpmath.mpf(lam)
        t = lam**p
        mu = t / (1 + t)
        pref = (1 + t) ** (-3 / p)
        b_pp = mpmath.beta(1 / p, 2 / p)
        x = mpmath.betainc(1 / p, 1 + 2 / p, 0, mu, regularized=True) - p * lam * pref / (2 * b_pp)
        y = mpmath.betainc(2 / p, 1 + 1 / p, 0, mu, regularized=True) - p * lam**2 * pref / b_pp - 1
        return (float(x), float(y))


def rotate_scale_C(point: Sequence[float]) -> Point:
    """Rotate by pi/4 and expand by 3/(2 sqrt 2); maps the curve C onto C1.

    The combined linear map is exactly (x, y) -> (3(x-y)/4, 3(x+y)/4).
    """
    x, y = point
    return (3.0 * (x - y) / 4.0, 3.0 * (x + y) / 4.0)


def curve_Cp_exact(m: int, t: Fraction) -> tuple[Fraction, Fraction]:
    """Exact arc point for p = 1/m at lam = t^m, rational in t = lam^p.

    For reciprocal-integer exponents the incomplete beta integrals are
    polynomials, so the arc is a rational function of t.  Used as an
    independent oracle for the floating-point path.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    mu = t / (1 + t)

    def inc_beta_int(z: Fraction, a: int, b: int) -> Fraction:
        # B_z(a,b) = sum_j C(b-1,j) (-1)^j z^(a+j)/(a+j)
        total = Fraction(0)
        for j in range(b):
            total += Fraction(math.comb(b - 1, j) * (-1) ** j, a + j) * z ** (a + j)
        return total

    def beta_int(a: int, b: int) -> Fraction:
        return Fraction(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))

    i_x = inc_beta_int(mu, m, 1 + 2 * m) / beta_int(m, 1 + 2 * m)
    i_y = inc_beta_int(mu, 2 * m, 1 + m) / beta_int(2 * m, 1 + m)
    pref = Fraction(1, 1) / (1 + t) ** (3 * m)  # (1 + lam^p)^(-3/p)
    b_pp = beta_int(m, 2 * m)
    lam = t**m
    x = i_x - Fraction(1, m) * lam * pref / (2 * b_pp)
    y = i_y - Fraction(1, m) * lam * lam * pref / b_pp - 1
    return (x, y)


def partial_zeta_inverse(order: int) -> Fraction:
    """Exact value of sum_{q <= order} mu(q)/q^2.

    Tends to 6/pi^2 with tail below 1/order.  Computed over the common
    denominator lcm(1..order)^2 so no intermediate reduction is needed.
    """
    mu = moebius_linear_sieve(order)
    lcm = 1
    for q in range(2, order + 1):
        lcm = math.lcm(lcm, q)
    big = lcm * lcm
    total = 0
    for q in range(1, order + 1):
        m = mu[q]
        if m:
            total += m * (big // (q * q))
    return Fraction(total, big)


def moment_route_ratio(spec: DomainSpec, order: int, lam: Fraction) -> tuple[float, float]:
    """Ratios of the exact vertex sums to the integral predictions
    Q^3/zeta(2) * (mx, my); both tend to 1."""
    ((x, y),) = fundamental_vertices(spec, order, [lam])
    moments = moment_integrals(spec, lam)
    main = order**3 * 6.0 / math.pi**2
    return (x / (main * float(moments.mx)), y / (main * float(moments.my)))


def scale_factor_asymptote(spec: DomainSpec) -> float:
    """Coefficient c with R(Q) ~ c Q^3, namely 6 (mx(1) + my(1)) / pi^2.

    Square 3/pi^2, diamond 1/pi^2, octagon d(3d+1)/(pi^2 (d+1)^2), ball
    2 B(1/p, 2/p)/(p pi^2).
    """
    if spec.kind == "ball":
        p = float(spec.param)
        return 2.0 * beta_complete(1.0 / p, 2.0 / p) / (p * math.pi**2)
    moments = moment_integrals(spec, 1)
    return float(6 * (moments.mx + moments.my)) / math.pi**2


# ---------------------------------------------------------------------------
# Views and checks that only the tests read
# ---------------------------------------------------------------------------


def fundamental_vertices(
    spec: DomainSpec, order: int, lams: Iterable[RealSpec | Fraction | int | float]
) -> list[tuple[int, int]]:
    """The vertex reached by summing the fundamental-arc edges (0 < a <= q)
    with slope at most lam, as exact integers, at each slope of lams: one
    arc, its prefix sums and a bisection per slope."""
    poly = build_polygon(spec, order)
    octant = poly.octant.tolist()
    arc = list(zip(poly.q.tolist(), poly.a.tolist()))

    def steeper(lam):  # the exact test a/q > lam of an edge (q, a)
        if isinstance(lam, RealSpec):
            return lambda e: lam.cmp(Fraction(e[1], e[0])) < 0
        lam = Fraction(lam)
        return lambda e: Fraction(e[1], e[0]) > lam

    # the arc rises in slope: cut it before its first edge steeper than lam
    return [tuple(octant[bisect_left(arc, True, key=steeper(lam))]) for lam in lams]


def circumradius_squared(
    p0: Sequence[int], p1: Sequence[int], p2: Sequence[int]
) -> Fraction:
    """Exact squared circumradius of three lattice points.

    Raises ValueError on collinear input (infinite radius).
    """
    x1, y1 = p1[0] - p0[0], p1[1] - p0[1]
    x2, y2 = p2[0] - p1[0], p2[1] - p1[1]
    cross = y2 * x1 - y1 * x2
    if cross == 0:
        raise ValueError("collinear points have no circumscribed circle")
    num = (y1 * y1 + x1 * x1) * (y2 * y2 + x2 * x2) * ((y1 + y2) ** 2 + (x1 + x2) ** 2)
    return Fraction(num, 4 * cross * cross)


def _block_runs(block) -> Iterator[tuple[int, ...]]:
    """(lo, hi, a1, q1, a2, q2, num, den) of each run in a trace block, a
    `curvature._Block`."""
    his = (block.lo - 1 + np.cumsum(block.counts)).tolist()
    cols = (block.a1, block.q1, block.a2, block.q2, block.num, block.den)
    return zip([block.lo] + [hi + 1 for hi in his[:-1]], his, *(c.tolist() for c in cols))


def curvature_runs(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[tuple]:
    """(lo, hi, a1, q1, a2, q2, num, den, xs) for the runs of
    farey_neighbor_runs over [q_min, q_max], cut at the edges of blocks of
    curvature._BLOCK orders: the neighbors a1/q1 < a2/q2 of the slope at
    every order in lo..hi, r^2 = num/den of their vertex in lowest terms,
    and xs the X(Q,1) of those orders as ints, R(Q) = 3 X(Q,1)/2.  The
    checks of curvature._blocks are done before this returns.
    """
    blocks = _blocks(lam, q_min, q_max, side)
    return ((*run, block.xs[run[0] - block.lo : run[1] + 1 - block.lo].tolist())
            for block in blocks for run in _block_runs(block))


@dataclass(frozen=True)
class MomentPair:
    """Integrals of x and of y over the wedge S(lam)."""

    mx: Fraction | float
    my: Fraction | float


def moment_integrals(spec: DomainSpec, lam: Fraction | int | float) -> MomentPair:
    """Closed-form wedge moments, the normalised moments that the region's
    limit curve reads, scaled: a polygonal region's are dn(3dn + dd)/
    (6(dn + dd)^2) times `limit_curves.polygon_wedge`, exact rationals for
    rational lam; a ball's are B(1/p, 2/p)/(3p) times
    `limit_curves.ball_wedge`, in floating point.
    """
    if spec.slope is None:
        lamf = float(lam)
        if not 0.0 <= lamf <= 1.0:
            raise ValueError("wedge slope must lie in [0, 1]")
        p = float(spec.param)
        u, w = ball_wedge(p, np.array([lamf]))
        scale = beta_complete(1.0 / p, 2.0 / p) / (3.0 * p)
        return MomentPair(scale * float(u[0]), scale * float(w[0]))

    lamq = Fraction(lam)
    if not 0 <= lamq <= 1:
        raise ValueError("wedge slope must lie in [0, 1]")
    dn, dd = spec.slope
    scale = Fraction(dn * (3 * dn + dd), 6 * (dn + dd) ** 2)
    return MomentPair(*(scale * m for m in polygon_wedge(dn, dd, lamq)))


def farey_sequence(order: int) -> list[Fraction]:
    """All reduced fractions in [0, 1] with denominator <= order, increasing:
    0/1 and the fractions of farey_fractions."""
    a, q = farey_fractions(order)
    return [Fraction(0)] + list(map(Fraction, a.tolist(), q.tolist()))


@dataclass(frozen=True)
class FareyNeighbors:
    """Consecutive fractions of a Farey sequence bracketing some value."""

    left: Fraction
    right: Fraction
    order: int

    def __post_init__(self) -> None:
        a1, q1 = self.left.numerator, self.left.denominator
        a2, q2 = self.right.numerator, self.right.denominator
        if a2 * q1 - a1 * q2 != 1:
            raise ValueError(f"{self.left} and {self.right} are not unimodular")
        if q1 > self.order or q2 > self.order:
            raise ValueError("neighbor denominator exceeds the Farey order")


def farey_neighbors(lam: RealSpec, order: int) -> FareyNeighbors:
    """The neighbours of irrational lam at one order: the one run of
    farey_neighbor_runs over that order."""
    ((_, _, a1, q1, a2, q2),) = farey_neighbor_runs(lam, order, order)
    return FareyNeighbors(Fraction(a1, q1), Fraction(a2, q2), order)


def contains(spec: DomainSpec, x: Fraction | int, y: Fraction | int) -> bool:
    """Whether the rational point (x, y) lies in the (closed) region: the
    lattice point of their common denominator."""
    fx, fy = Fraction(x), Fraction(y)
    den = math.lcm(fx.denominator, fy.denominator)
    return lattice_contains(spec, int(fx * den), int(fy * den), den)


def is_convex(poly: LatticePolygon) -> bool:
    """Whether every turn between consecutive edges is strictly to the left."""
    es = poly.edges()
    return all(e1.q * e2.a - e1.a * e2.q > 0 for e1, e2 in zip(es, es[1:] + es[:1]))


@dataclass(frozen=True)
class CurvatureSample:
    order: int
    lambda_spec: str
    neighbors: FareyNeighbors
    r_squared: Fraction
    r_tilde: float
    predicted: float

    @property
    def q1(self) -> int:
        return self.neighbors.left.denominator

    @property
    def q2(self) -> int:
        return self.neighbors.right.denominator

    @property
    def r(self) -> float:
        return math.sqrt(self.r_squared)


def curvature_trace(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> list[CurvatureSample]:
    """One sample per order in [q_min, q_max]: the neighbours and r^2 of
    the run of curvature_runs that holds it, and r_tilde and predicted read
    back from the repr text of its trace_lines row."""
    rows = "".join(trace_lines(lam, q_min, q_max, side)).splitlines()[1:]
    floats = iter([tuple(map(float, row.split(",")[5:])) for row in rows])
    label = f"rat:{lam.numerator}/{lam.denominator}{side}" if isinstance(lam, Fraction) else str(lam)
    samples = []
    for lo, hi, a1, q1, a2, q2, num, den, _ in curvature_runs(lam, q_min, q_max, side):
        neighbors = FareyNeighbors(Fraction(a1, q1), Fraction(a2, q2), lo)
        samples += [CurvatureSample(q, label, neighbors, Fraction(num, den), *next(floats))
                    for q in range(lo, hi + 1)]
    return samples


def predicted_radius(order: int, lam: float, q1: int, q2: int) -> float:
    """Asymptotic scaled radius q1 q2 (q1+q2)/Q^3 * pi^2 (1+lam^2)^(3/2)/6."""
    return q1 * q2 * (q1 + q2) / order**3 * _SQUARE_COEFF * (1.0 + lam * lam) ** 1.5


@dataclass(frozen=True)
class EstimateBounds(CurvatureBounds):
    exact_limsup: float | None = None  # from liminf k_{n-1}/k_n when periodic


def limsup_liminf_estimate(lam: RealSpec, q_max: int) -> tuple[float, float, EstimateBounds]:
    """Running sup and inf of the scaled radius over the window
    [q_max/4, q_max], with the theoretical band they should respect and,
    for a periodic quotient stream, the limsup read off its convergents.

    These are window statistics of a finite trace, not certified limits;
    the band plays the role of the oracle.  The limsup takes the liminf of
    k_{n-1}/k_n over the (eventual) quotient cycle as the minimum of the
    last 80 ratios up to n = 242.
    """
    if not isinstance(lam, RealSpec):
        raise ValueError("limit estimates are defined for irrational slopes")
    if q_max < 8:
        raise ValueError("window too small")
    values = [sample.r_tilde for sample in curvature_trace(lam, max(2, q_max // 4), q_max)]
    bounds = _bounds_for(lam)
    exact = None
    if isinstance(lam, QuadraticSurd) or getattr(lam, "periodic", False):
        ks = [k for _, k in islice(convergent_walk(lam.quotients()), 243)]
        liminf = min(kp / k for kp, k in zip(ks[-81:-1], ks[-80:]))
        value = bounds.lambda_value
        exact = (2.0 + liminf) / (1.0 + liminf) ** 2 * _SQUARE_COEFF * (1.0 + value * value) ** 1.5
    return max(values), min(values), EstimateBounds(**vars(bounds), exact_limsup=exact)


@dataclass(frozen=True)
class LemmaRow:
    order: int
    lam: Fraction
    x_exact: int
    y_exact: int
    x_normalized_error: float  # |X pi^2/(2 lam Q^3) - 1| * Q / log Q
    y_normalized_error: float


@dataclass(frozen=True)
class LemmaReport:
    rows: tuple[LemmaRow, ...]
    max_x_error: float
    max_y_error: float

    def render(self) -> str:
        lines = ["Q,lambda,X,Y,x_err_normalized,y_err_normalized"]
        for r in self.rows:
            lines.append(
                f"{r.order},{r.lam},{r.x_exact},{r.y_exact},"
                f"{r.x_normalized_error:.6f},{r.y_normalized_error:.6f}"
            )
        lines.append(f"max_x_error,{self.max_x_error:.6f}")
        lines.append(f"max_y_error,{self.max_y_error:.6f}")
        return "\n".join(lines) + "\n"


def lemma_check(q_list: Sequence[int], lam_grid: Sequence[Fraction]) -> LemmaReport:
    """Normalized errors of the vertex sums against their main terms
    2 lam Q^3/pi^2 and lam^2 Q^3/pi^2.  Bounded normalized errors are the
    desk-scale signature of the O(Q^2 log Q) remainder."""
    if not q_list:
        raise ValueError("need at least one order")
    if min(q_list) < 2:  # Q / log Q is undefined at Q = 1
        raise ValueError("lemma orders must be at least 2")
    lams = [Fraction(lam) for lam in lam_grid]
    if not all(0 < lam <= 1 for lam in lams):
        raise ValueError("lemma grid needs slopes in (0, 1]")
    rows = []
    for order in sorted(set(q_list)):
        norm = order / math.log(order)
        for lam, (x, y) in zip(lams, fundamental_vertices(square(), order, lams)):
            xerr = abs(x * math.pi**2 / (2 * float(lam) * order**3) - 1.0) * norm
            yerr = abs(y * math.pi**2 / (float(lam) ** 2 * order**3) - 1.0) * norm
            rows.append(LemmaRow(order, lam, x, y, xerr, yerr))
    return LemmaReport(
        tuple(rows),
        max(r.x_normalized_error for r in rows),
        max(r.y_normalized_error for r in rows),
    )


# fundamental arc of the p = 1/2 ball curve: irreducible quintic relation
CP_HALF_QUINTIC: dict[tuple[int, int], int] = {
    (0, 0): -45253,
    (1, 0): 86140,
    (2, 0): -37030,
    (3, 0): -3220,
    (4, 0): -765,
    (5, 0): 128,
    (0, 1): -86140,
    (1, 1): 169060,
    (2, 1): -80340,
    (3, 1): -1940,
    (4, 1): -640,
    (0, 2): -37030,
    (1, 2): 80340,
    (2, 2): -44590,
    (3, 2): 1280,
    (0, 3): 3220,
    (1, 3): -1940,
    (2, 3): -1280,
    (0, 4): -765,
    (1, 4): 640,
    (0, 5): -128,
}


def cp_half_scaled_residual(x: float, y: float) -> float:
    """Quintic residual at (x, y), scaled by the total term magnitude."""
    num = 0.0
    scale = 0.0
    for (i, j), coef in CP_HALF_QUINTIC.items():
        term = coef * x**i * y**j
        num += term
        scale += abs(term)
    return abs(num) / scale


def implicit_residual(curve: LimitCurve, x: float, y: float) -> float | None:
    """Residual of the curve's known algebraic form at (x, y), None where
    none is known.

    For the p = 1/2 ball curve the residual is scaled (see
    cp_half_scaled_residual); elsewhere it is the plain defect.
    """
    p = curve.param
    if curve.family == "C":
        return y - (0.75 * x * x - 1.0)
    if curve.family == "C1" or (curve.family == "Cp" and p == 1):
        return math.sqrt(1.0 - abs(x)) + math.sqrt(1.0 - abs(y)) - 1.0
    if curve.family == "Cdelta":
        d = float(p)
        return 4.0 * d * (1.0 + d) ** 2 * (y + 1.0) - (1.0 + 3.0 * d) * (d * x + y + 1.0) ** 2
    if p == 2:
        return x * x + y * y - 1.0
    if p == Fraction(1, 2):
        return cp_half_scaled_residual(x, y)
    return None
