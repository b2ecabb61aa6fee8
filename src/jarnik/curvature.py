"""Local radii of curvature of the original (square-region) polygons.

At an irrational slope lam the fundamental arc has a unique vertex whose
two adjacent edges (q1, a1) and (q2, a2) have slopes bracketing lam; the
fractions a1/q1 < a2/q2 are consecutive order-Q Farey fractions.  The
circle through that vertex and its neighbors has the exact squared
radius

    r^2 = (a1^2 + q1^2)(a2^2 + q2^2)((a1+a2)^2 + (q1+q2)^2) / 4

by unimodularity, and the scaled radius is r / R(Q).  Everything here is
driven by the Farey/continued-fraction machinery, so a full trace over a
range of Q costs almost nothing beyond the integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .number_theory import (
    FareyNeighbors,
    GeneratedCF,
    QuadraticSurd,
    RationalReal,
    RealSpec,
    convergent_walk,
    farey_neighbor_runs,
    moebius_array as moebius_sieve,  # the ladder's check: int8 mu, no list
    totient_array as totient_sieve,  # the ladder's sieve: int64 totients, no list
)

_SQUARE_COEFF = math.pi**2 / 6.0


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


def limit_curve_radius(lam: float) -> float:
    """Radius of curvature of the parabolic limit curve at parameter lam."""
    return (2.0 / 3.0) * (1.0 + lam * lam) ** 1.5


def predicted_radius(order: int, lam: float, q1: int, q2: int) -> float:
    """Asymptotic scaled radius q1 q2 (q1+q2)/Q^3 * pi^2 (1+lam^2)^(3/2)/6."""
    return (
        q1 * q2 * (q1 + q2) / order**3 * _SQUARE_COEFF * (1.0 + lam * lam) ** 1.5
    )


# ---------------------------------------------------------------------------
# Exact scale factors over a ladder of orders
# ---------------------------------------------------------------------------


# Largest ladder top: below it every intermediate of _x_ladder fits int64.
# X(Q,1) <= S2(Q) <= Q^3, m(m+1)(2m+1) <= 6 Q^3 for m <= Q, and the terms
# d S2(Q//d) <= 8 Q^3/(3 d^2) of the Mobius sum add up to at most
# (4/9) pi^2 Q^3 < 5 Q^3; 6 * (10**6)**3 < 2**63.
MAX_LADDER_ORDER = 10**6
_BLOCK = 4096  # most orders in one item of curvature_runs, so a trace streams


def _x_by_moebius(order: int, mu) -> int:
    # X(Q,1) = sum_{d<=Q} mu(d) d S2(Q//d), an exact divisor-sum identity
    d = np.arange(1, order + 1, dtype=np.int64)
    m = order // d
    terms = m * (m + 1)
    terms *= 2 * m + 1
    terms //= 6
    terms *= d
    terms *= mu[1 : order + 1]  # an int8 array or a list
    return int(terms.sum())


def _x_ladder(q_max: int) -> np.ndarray:
    """X(Q,1) for Q = 0..q_max as an int64 array, the running sum of
    Q phi(Q), the vectors entering at denominator Q.  Before this returns,
    X(q_max,1) is checked through the independent Mobius divisor identity:
    every phi(q) enters it with weight q, so a wrong value anywhere shows
    there."""
    if not 1 <= q_max <= MAX_LADDER_ORDER:
        raise ValueError(f"ladder top {q_max} is outside 1..{MAX_LADDER_ORDER} (MAX_LADDER_ORDER)")
    xs = np.arange(q_max + 1, dtype=np.int64)
    xs *= totient_sieve(q_max)
    xs.cumsum(out=xs)
    x, check = int(xs[-1]), _x_by_moebius(q_max, moebius_sieve(q_max))
    if check != x:
        raise ArithmeticError(f"scale ladder drift at Q={q_max}: {x} != {check}")
    return xs


def scale_ladder(q_max: int) -> list[Fraction]:
    """R(Q) = 3 X(Q,1)/2 for Q = 0..q_max."""
    return [Fraction(3 * x, 2) for x in _x_ladder(q_max).tolist()]


# ---------------------------------------------------------------------------
# Samples and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True)
class CurvatureBounds:
    lambda_spec: str
    lambda_value: float
    band_low: float  # pi^2/6 (1+lam^2)^(3/2)
    band_high: float  # pi^2/3 (1+lam^2)^(3/2)
    limit_radius: float  # 2/3 (1+lam^2)^(3/2)
    exact_limsup: float | None = None  # from liminf k_{n-1}/k_n when periodic


def _bounds_for(lam: RealSpec) -> CurvatureBounds:
    value = float(lam)
    shape = (1.0 + value * value) ** 1.5
    periodic = isinstance(lam, QuadraticSurd) or (
        isinstance(lam, GeneratedCF) and getattr(lam, "periodic", False)
    )
    exact = None
    if periodic:
        # liminf of k_{n-1}/k_n over the (eventual) quotient cycle: the
        # minimum of the last 80 ratios up to n = 242
        ks = [k for _, k in islice(convergent_walk(lam.quotients()), 243)]
        exact_liminf = min(kp / k for kp, k in zip(ks[-81:-1], ks[-80:]))
        exact = (2.0 + exact_liminf) / (1.0 + exact_liminf) ** 2 * _SQUARE_COEFF * shape
    return CurvatureBounds(
        str(lam),
        value,
        _SQUARE_COEFF * shape,
        2.0 * _SQUARE_COEFF * shape,
        limit_curve_radius(value),
        exact,
    )


def _cut_point(lam: RealSpec | Fraction, side: str | None) -> tuple[Fraction | None, str, float]:
    """(the rational cut point or None, the CSV label, the float slope),
    with the side checked against the kind of slope."""
    if isinstance(lam, Fraction) or lam.is_rational:
        frac = lam.value if isinstance(lam, RationalReal) else Fraction(lam)
        if side is None:
            raise ValueError("rational slope is two-sided; pass side='+' or side='-'")
        if not 0 <= frac <= 1:
            raise ValueError("rational cut point must lie in [0, 1]")
        return frac, f"rat:{frac.numerator}/{frac.denominator}{side}", float(frac)
    if side is not None:
        raise ValueError("side applies only to rational slopes")
    return None, str(lam), float(lam)


def curvature_runs(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[tuple]:
    """(lo, hi, a1, q1, a2, q2, num, den, xs) for the runs of
    farey_neighbor_runs over [q_min, q_max], a long run in blocks of at
    most _BLOCK orders: the neighbors a1/q1 < a2/q2 of the slope at every
    order in lo..hi, r^2 = num/den of their vertex in lowest terms
    (unimodular neighbors make it a quarter of an integer), and xs the
    X(Q,1) of those orders as ints, R(Q) = 3 X(Q,1)/2.

    The slope, then the ladder, are checked before this returns: a refused
    slope builds no ladder, and a failed check yields no run.  Each run is
    certified in integers before it is yielded: a unimodular pair with
    max(q1, q2) <= lo and q1 + q2 > hi is consecutive in F_Q for every Q in
    the run; it must bracket an irrational slope (by lam.cmp) or hold a cut
    point on its side, and the runs must tile [q_min, q_max].
    """
    if not 2 <= q_min <= q_max:
        raise ValueError("need 2 <= q_min <= q_max")
    frac, _, _ = _cut_point(lam, side)
    runs = farey_neighbor_runs(lam if frac is None else frac, q_min, q_max, side)
    cut = None if frac is None else frac.as_integer_ratio()
    return _certified(runs, lam, side, cut, _x_ladder(q_max).tolist(), q_min, q_max)


def _certified(runs, lam, side, cut, xs: list[int], lo_next: int, q_max: int) -> Iterator[tuple]:
    for lo, hi, a1, q1, a2, q2 in runs:
        if not (lo == lo_next <= hi <= q_max and a2 * q1 - a1 * q2 == 1
                and q1 <= lo >= q2 and q1 + q2 > hi
                and (lam.cmp(Fraction(a1, q1)) > 0 > lam.cmp(Fraction(a2, q2)) if cut is None
                     else ((a1, q1) if side == "+" else (a2, q2)) == cut)):
            raise ArithmeticError(
                f"{a1}/{q1}, {a2}/{q2} are not the Farey neighbors of the slope for orders {lo}..{hi}")
        num = (a1 * a1 + q1 * q1) * (a2 * a2 + q2 * q2) * ((a1 + a2) ** 2 + (q1 + q2) ** 2)
        g = math.gcd(num, 4)
        while lo <= hi:
            end = hi if hi - lo < _BLOCK else lo + _BLOCK - 1
            yield lo, end, a1, q1, a2, q2, num // g, 4 // g, xs[lo : end + 1]
            lo = end + 1
        lo_next = lo
    if lo_next != q_max + 1:
        raise ArithmeticError(f"the neighbor runs stop at order {lo_next - 1}, before {q_max}")


def local_radius(order: int, lam: RealSpec | Fraction, side: str | None = None) -> CurvatureSample:
    """The curvature sample at a single order; see curvature_trace."""
    return curvature_trace(lam, order, order, side)[0]


def curvature_trace(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> list[CurvatureSample]:
    """One sample per integer order in [q_min, q_max], from curvature_runs:
    the samples of one run (or block) share its FareyNeighbors, of its
    first order, and its r^2.

    Rational lam needs a side ('+' or '-'); irrational lam must come as an
    exact RealSpec.
    """
    runs = curvature_runs(lam, q_min, q_max, side)
    _, lambda_spec, lam_value = _cut_point(lam, side)
    shape = (1.0 + lam_value * lam_value) ** 1.5
    samples = []
    for lo, hi, a1, q1, a2, q2, num, den, xs in runs:
        neighbors = FareyNeighbors(Fraction(a1, q1), Fraction(a2, q2), lo)
        r_squared, root, p = Fraction(num, den), math.sqrt(num / den), q1 * q2 * (q1 + q2)
        samples += [
            CurvatureSample(order, lambda_spec, neighbors, r_squared, root / (3 * x / 2),
                            p / order**3 * _SQUARE_COEFF * shape)
            for order, x in zip(range(lo, hi + 1), xs)
        ]
    return samples


def limsup_liminf_estimate(
    lam: RealSpec, q_max: int
) -> tuple[float, float, CurvatureBounds]:
    """Running sup and inf of the scaled radius over the window
    [q_max/4, q_max], with the theoretical band they should respect.

    These are window statistics of a finite trace, not certified limits;
    the band plays the role of the oracle.
    """
    if lam.is_rational:
        raise ValueError("limit estimates are defined for irrational slopes")
    if q_max < 8:
        raise ValueError("window too small")
    values = [r_tilde for _, r_tilde in trace_points(lam, max(2, q_max // 4), q_max)]
    return (max(values), min(values), _bounds_for(lam))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


_CSV_HEADER = "Q,q1,q2,r_squared_num,r_squared_den,r_tilde,predicted\n"


def trace_csv(samples: Sequence[CurvatureSample]) -> str:
    return _CSV_HEADER + "".join(
        f"{s.order},{s.q1},{s.q2},{s.r_squared.numerator},{s.r_squared.denominator},"
        f"{s.r_tilde!r},{s.predicted!r}\n" for s in samples)


def trace_lines(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[str]:
    """The text of trace_csv(curvature_trace(...)), a run at a time from
    curvature_runs, with its checks done before this returns."""
    runs = curvature_runs(lam, q_min, q_max, side)
    lam_value = _cut_point(lam, side)[2]
    shape = (1.0 + lam_value * lam_value) ** 1.5  # the factor of predicted_radius

    def lines():
        yield _CSV_HEADER
        for lo, hi, _, q1, _, q2, num, den, xs in runs:
            mid, root, p = f",{q1},{q2},{num},{den},", math.sqrt(num / den), q1 * q2 * (q1 + q2)
            yield "".join([
                f"{order}{mid}{root / (3 * x / 2)!r},{p / order**3 * _SQUARE_COEFF * shape!r}\n"
                for order, x in zip(range(lo, hi + 1), xs)
            ])

    return lines()


def trace_points(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[tuple[int, float]]:
    """(Q, r_tilde) of curvature_trace(...), from curvature_runs with no
    Fraction built, with its checks done before this returns."""
    runs = curvature_runs(lam, q_min, q_max, side)
    return (
        (order, root / (3 * x / 2))
        for lo, hi, *_, num, den, xs in runs
        for root in [math.sqrt(num / den)]
        for order, x in zip(range(lo, hi + 1), xs)
    )


def trace_svg(samples: Sequence[CurvatureSample], bounds: CurvatureBounds | None = None) -> str:
    """points_svg of the samples' (Q, r_tilde)."""
    return points_svg([(s.order, s.r_tilde) for s in samples], bounds)


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
