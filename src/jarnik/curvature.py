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
from itertools import accumulate, chain, islice
from typing import Iterator, Sequence

from .number_theory import (
    FareyNeighbors,
    GeneratedCF,
    QuadraticSurd,
    RationalReal,
    RealSpec,
    convergent_walk,
    farey_neighbor_rows,
    farey_neighbors_sided,
    moebius_sieve,
    totient_sieve,
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


def _sum_squares(n: int) -> int:
    return n * (n + 1) * (2 * n + 1) // 6


def _x_by_moebius(order: int, mu) -> int:
    # X(Q,1) = sum_{d<=Q} mu(d) d S2(Q//d), an exact divisor-sum identity
    total = 0
    for d in range(1, order + 1):
        m = mu[d]
        if m:
            total += m * d * _sum_squares(order // d)
    return total


def _x_ladder(q_max: int) -> Iterator[int]:
    """X(Q,1) for Q = 0..q_max as a running sum of Q phi(Q), the vectors
    entering at denominator Q.  Before this returns, X(q_max,1) is checked
    through the independent Mobius divisor identity: every phi(q) enters it
    with weight q, so a wrong value anywhere shows there."""
    if q_max < 1:
        raise ValueError("ladder top must be a positive integer")
    phi = totient_sieve(q_max)
    x = sum(q * f for q, f in enumerate(phi))
    check = _x_by_moebius(q_max, moebius_sieve(q_max))
    if check != x:
        raise ArithmeticError(f"scale ladder drift at Q={q_max}: {x} != {check}")
    return accumulate(q * f for q, f in enumerate(phi))


def scale_ladder(q_max: int) -> list[Fraction]:
    """R(Q) = 3 X(Q,1)/2 for Q = 0..q_max."""
    return [Fraction(3 * x, 2) for x in _x_ladder(q_max)]


# ---------------------------------------------------------------------------
# Samples and traces
# ---------------------------------------------------------------------------


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


def _checked_rows(walk, xs: Iterator[int]) -> Iterator[tuple[int, ...]]:
    for (order, a1, q1, a2, q2), x in zip(walk, xs):
        if a2 * q1 - a1 * q2 != 1 or q1 > order or q2 > order:
            raise ArithmeticError(f"{a1}/{q1}, {a2}/{q2} are not Farey neighbors of order {order}")
        yield order, a1, q1, a2, q2, x


def curvature_rows(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[tuple[int, int, int, int, int, int]]:
    """(Q, a1, q1, a2, q2, X(Q,1)) for every order Q in [q_min, q_max]: the
    neighbors a1/q1 < a2/q2 of the slope and R(Q) = 3 X(Q,1)/2, in integers.

    The slope, then the ladder, are checked before this returns: a refused
    slope builds no ladder, and a failed check yields no row.  A rational
    slope takes its neighbors at q_min, which refuses a cut point that order
    cannot hold; its free neighbor c/d then steps by (a, b), the cut point,
    each time the order admits d + b, as (c + a)/(d + b) is unimodular too.
    """
    if not 2 <= q_min <= q_max:
        raise ValueError("need 2 <= q_min <= q_max")
    frac, _, _ = _cut_point(lam, side)
    if frac is None:
        walk = farey_neighbor_rows(lam, q_min, q_max)
    else:
        first = farey_neighbors_sided(frac, side, q_min)
        a, b = frac.as_integer_ratio()
        c, d = (first.right if side == "+" else first.left).as_integer_ratio()
        steps = ((q, (q - d) // b) for q in range(q_min, q_max + 1))
        if side == "+":
            walk = ((q, a, b, c + k * a, d + k * b) for q, k in steps)
        else:
            walk = ((q, c + k * a, d + k * b, a, b) for q, k in steps)
    return _checked_rows(walk, islice(_x_ladder(q_max), q_min, None))


def _row_values(row: tuple[int, ...], lam_value: float) -> tuple:
    """(Q, q1, q2, r^2 numerator, r^2 denominator, r_tilde, predicted) of a
    row; unimodular neighbors make r^2 = num/4."""
    order, a1, q1, a2, q2, x = row
    num = (a1 * a1 + q1 * q1) * (a2 * a2 + q2 * q2) * ((a1 + a2) ** 2 + (q1 + q2) ** 2)
    g = math.gcd(num, 4)
    r_tilde = math.sqrt((num // g) / (4 // g)) / (3 * x / 2)
    return order, q1, q2, num // g, 4 // g, r_tilde, predicted_radius(order, lam_value, q1, q2)


def local_radius(order: int, lam: RealSpec | Fraction, side: str | None = None) -> CurvatureSample:
    """The curvature sample at a single order; see curvature_trace."""
    return curvature_trace(lam, order, order, side)[0]


def curvature_trace(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> list[CurvatureSample]:
    """One sample per integer order in [q_min, q_max], from curvature_rows.

    Rational lam needs a side ('+' or '-'); irrational lam must come as an
    exact RealSpec.
    """
    rows = curvature_rows(lam, q_min, q_max, side)
    _, lambda_spec, lam_value = _cut_point(lam, side)
    samples = []
    for row in rows:
        order, a1, q1, a2, q2, _ = row
        *_, num, den, r_tilde, predicted = _row_values(row, lam_value)
        neighbors = FareyNeighbors(Fraction(a1, q1), Fraction(a2, q2), order)
        r_squared = Fraction(num, den)
        samples.append(CurvatureSample(order, lambda_spec, neighbors, r_squared, r_tilde, predicted))
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


def _csv_line(order, q1, q2, num, den, r_tilde: float, predicted: float) -> str:
    return f"{order},{q1},{q2},{num},{den},{r_tilde!r},{predicted!r}\n"


def trace_csv(samples: Sequence[CurvatureSample]) -> str:
    fields = ((s.order, s.q1, s.q2, *s.r_squared.as_integer_ratio(), s.r_tilde, s.predicted)
              for s in samples)
    return _CSV_HEADER + "".join(_csv_line(*f) for f in fields)


def trace_lines(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[str]:
    """The text of trace_csv(curvature_trace(...)), line by line from
    curvature_rows, with its checks done before this returns."""
    rows = curvature_rows(lam, q_min, q_max, side)
    lam_value = _cut_point(lam, side)[2]
    return chain([_CSV_HEADER], (_csv_line(*_row_values(row, lam_value)) for row in rows))


def trace_points(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[tuple[int, float]]:
    """(Q, r_tilde) of curvature_trace(...), from curvature_rows with no
    Fraction built, with its checks done before this returns."""
    rows = curvature_rows(lam, q_min, q_max, side)
    lam_value = _cut_point(lam, side)[2]
    values = (_row_values(row, lam_value) for row in rows)
    return ((order, r_tilde) for order, _, _, _, _, r_tilde, _ in values)


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
