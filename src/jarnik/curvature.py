"""Local radii of curvature of the original (square-region) polygons.

At an irrational slope lam the fundamental arc has a unique vertex whose
two adjacent edges (q1, a1) and (q2, a2) have slopes bracketing lam; the
fractions a1/q1 < a2/q2 are consecutive order-Q Farey fractions.  The
circle through that vertex and its neighbors has the exact squared
radius

    r^2 = (a1^2 + q1^2)(a2^2 + q2^2)((a1+a2)^2 + (q1+q2)^2) / 4

by unimodularity, in lowest terms the trace's num/den columns, and the
scaled radius is r / R(Q) with R(Q) = 3 X(Q,1)/2 from the ladder; at a
rational cut point one neighbor is the slope itself, on the side asked
for.  Only the trace's rows carry these values: the tests check them
against a `Fraction` circumradius of three vertices.  Everything
here is driven by the Farey/continued-fraction machinery: the neighbors
of either kind of slope come from one convergent walk
(number_theory.farey_neighbor_families) and stay the same over runs of
orders, and the runs of one partial quotient form a family, an arithmetic
progression of runs.  A trace over a range of Q is evaluated a block of
orders at a time.  Each family is certified by its first and last runs,
in Python ints, and the families that fill a block are expanded into
int64 columns of runs together; r^2 is taken for each run (in int64
where a bound shows that it fits, in Python ints otherwise), and the two
float columns r_tilde and predicted, its asymptote q1 q2 (q1+q2)/Q^3
pi^2/6 (1+lam^2)^(3/2), are numpy expressions over the block, with the
same IEEE operations in the same order as one order at a time.  The CSV
text of a block is one byte grid (textgrid): the orders and the two
float columns are written by numpy digit kernels, repr's exact text for
the floats, and each run's integers are formatted once, each field at
its own width.  The SVG step
plot keeps only the r_tilde column, as one float64 array, and writes its
path from the {:.2f} texts of every x and y, a slice of steps at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
from typing import Iterator, NamedTuple

import numpy as np

from . import textgrid
from .number_theory import (
    RealSpec,
    _split_primes,
    family_runs,
    farey_neighbor_families,
    moebius_array,
    totient_array,
)

_SQUARE_COEFF = math.pi**2 / 6.0


def limit_curve_radius(lam: float) -> float:
    """Radius of curvature of the parabolic limit curve at parameter lam."""
    return (2.0 / 3.0) * (1.0 + lam * lam) ** 1.5


# ---------------------------------------------------------------------------
# Exact scale factors over a ladder of orders
# ---------------------------------------------------------------------------


# Largest ladder top: below it every intermediate of _x_ladder, and 3 X(Q,1)
# in the traces, fit int64.  X(Q,1) <= S2(Q) <= Q^3, m(m+1)(2m+1) <= 6 Q^3
# for m <= Q, and the terms d S2(Q//d) <= 8 Q^3/(3 d^2) of the Mobius sum
# add up to at most (4/9) pi^2 Q^3 < 5 Q^3, which bounds each group of them
# with one Q//d too; 6 * (10**6)**3 < 2**63.
MAX_LADDER_ORDER = 10**6


def _x_by_moebius(order: int, mu) -> int:
    # X(Q,1) = sum_{d<=Q} mu(d) d S2(Q//d), an exact divisor-sum identity,
    # summed over the about 2 sqrt(Q) distinct m = Q//d: with M(n) the sum of
    # mu(d) d over d <= n, the d with Q//d = m bring M(Q//m) - M(Q//(m+1)).
    # With s = isqrt(Q), those m are Q//d for d <= s, all distinct, and
    # below them the m <= Q//(s+1), where an m that no d reaches adds 0.
    mdsum = np.arange(order + 1, dtype=np.int64)
    mdsum *= mu[: order + 1]  # an int8 array or a list
    mdsum.cumsum(out=mdsum)
    root = math.isqrt(order)
    m = np.concatenate((np.arange(1, order // (root + 1) + 1), order // np.arange(root, 0, -1)))
    terms = m * (m + 1)
    terms *= 2 * m + 1
    terms //= 6
    terms *= mdsum[order // m] - mdsum[order // (m + 1)]
    return int(terms.sum())


def _x_ladder(q_max: int) -> np.ndarray:
    """X(Q,1) for Q = 0..q_max as an int64 array, the running sum of
    Q phi(Q), the vectors entering at denominator Q, computed in place in
    the totient array.  One sieve of Eratosthenes gives the primes of both
    the totient and the Mobius sieve.  Before this returns,
    X(q_max,1) is checked through the independent Mobius divisor identity:
    every phi(q) enters it with weight q, so a wrong value anywhere shows
    there."""
    if not 1 <= q_max <= MAX_LADDER_ORDER:
        raise ValueError(f"ladder top {q_max} is outside 1..{MAX_LADDER_ORDER} (MAX_LADDER_ORDER)")
    sieve = _split_primes(q_max)
    mu, xs = moebius_array(q_max, sieve), totient_array(q_max, sieve)
    xs *= np.arange(q_max + 1, dtype=np.int64)
    xs.cumsum(out=xs)
    x, check = int(xs[-1]), _x_by_moebius(q_max, mu)
    if check != x:
        raise ArithmeticError(f"scale ladder drift at Q={q_max}: {x} != {check}")
    return xs


# ---------------------------------------------------------------------------
# Bounds and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureBounds:
    lambda_spec: str
    lambda_value: float
    band_low: float  # pi^2/6 (1+lam^2)^(3/2)
    band_high: float  # pi^2/3 (1+lam^2)^(3/2)
    limit_radius: float  # 2/3 (1+lam^2)^(3/2)


def _bounds_for(lam: RealSpec) -> CurvatureBounds:
    """The band and the limit-curve radius at an irrational slope, from
    float(lam) alone."""
    value = float(lam)
    shape = (1.0 + value * value) ** 1.5
    return CurvatureBounds(
        str(lam),
        value,
        _SQUARE_COEFF * shape,
        2.0 * _SQUARE_COEFF * shape,
        limit_curve_radius(value),
    )


# Most orders in one block of a trace: the runs that fill a block are
# certified together, and its r_tilde and predicted columns computed, as
# numpy arrays of at most this length, so a trace streams in bounded memory.
_BLOCK = 4096
_INT64_MAX = 2**63 - 1
_FLOAT_EXACT = 2**53  # every integer below it, and every even one below 2^54, is a float64


class _Block(NamedTuple):
    """Orders lo..hi of a trace.  The runs that cover them, cut to the
    block, come as columns: counts[i] orders each, the neighbors
    a1/q1 < a2/q2 and r^2 = num/den of their vertex in lowest terms (int64,
    or Python ints where int64 could not hold num).  Per order: xs the
    X(Q,1) of the ladder, r_tilde and predicted as float64."""

    lo: int
    hi: int
    counts: np.ndarray
    a1: np.ndarray
    q1: np.ndarray
    a2: np.ndarray
    q2: np.ndarray
    num: np.ndarray
    den: np.ndarray
    xs: np.ndarray
    r_tilde: np.ndarray
    predicted: np.ndarray


def _refuse(run: tuple) -> None:
    lo, hi, a1, q1, a2, q2 = run
    raise ArithmeticError(
        f"{a1}/{q1}, {a2}/{q2} are not the Farey neighbors of the slope for orders {lo}..{hi}")


def _family_end(family) -> int:
    """The last order of a family's last run."""
    lo, hi, count = family[0], family[1], family[6]
    return hi + (count - 1) * (hi - lo + 1)


def _certified_families(rows: list[tuple], lo_next: int, q_max: int, lam, side, cut) -> np.ndarray:
    """The families (lo, hi, a1, q1, a2, q2, count, da1, dq1, da2, dq2) of
    `rows` as one (len(rows), 11) int64 array, certified in Python ints;
    the first run that fails raises.

    A run (lo, hi, a1, q1, a2, q2) passes when its pair is unimodular with
    max(q1, q2) <= lo and q1 + q2 > hi, and so consecutive in F_Q for every
    Q in lo..hi, when 0 <= a1, a2 <= lo, and when it brackets an irrational
    slope (by lam.cmp) or holds a cut point on its side; the runs must tile
    the orders from lo_next on, up to q_max.  The runs of a family tile its
    orders, and every condition on them but unimodularity is linear in the
    run i, or monotone, as a fraction (a + i da)/(q + i dq) with
    q + i dq > 0 is, so its first and last runs decide it.  So does
    a2 q1 - a1 q2 once they pass, as its i^2 coefficient da2 dq1 - da1 dq2
    is then 0.  At a cut point one pair is fixed.  At an irrational slope
    the last pair nests in the Farey interval of the first, n = count - 1:
    (a1 + n da1, q1 + n dq1) = i1 (a1, q1) + j1 (a2, q2) and (a2 + n da2,
    q2 + n dq2) = i2 (a1, q1) + j2 (a2, q2), i1 j2 - i2 j1 = 1, and
    n^2 (da2 dq1 - da1 dq2) = 2 - i1 - j2.  Integral steps make j1 and i2
    multiples of n, so i1 > 1 or j2 > 1 makes a last denominator at least
    (n + 1) q1 + n q2 or n q1 + (n + 1) q2, beyond the last run's first
    order lo + n (hi - lo + 1) < q1 + q2 + n min(q1, q2).  A family that
    fails is walked a run at a time to its first failing run, and a family
    of no run is refused by its first.  Every value of a certified family
    is at most q_max in magnitude, and the step of a family of one run is
    kept as 0.
    """
    sign = cache(lambda n, d: lam.cmp(Fraction(n, d)))  # neighboring runs share a fraction

    def passes(run, start):
        lo, hi, a1, q1, a2, q2 = run
        if not (lo == start <= hi <= q_max and min(a1, a2) >= 0 and max(a1, a2, q1, q2) <= lo
                and a2 * q1 - a1 * q2 == 1 and q1 + q2 > hi):
            return False
        if cut is None:
            return sign(a1, q1) > 0 > sign(a2, q2)
        return (a1, q1) == cut if side == "+" else (a2, q2) == cut

    certified = []
    for family in rows:
        lo, hi, a1, q1, a2, q2, count, da1, dq1, da2, dq2 = family
        length, span = hi - lo + 1, count - 1
        first = (lo, hi, a1, q1, a2, q2)
        last = (lo + span * length, hi + span * length, a1 + span * da1, q1 + span * dq1,
                a2 + span * da2, q2 + span * dq2)
        if not (count >= 1 and passes(first, lo_next) and (count == 1 or passes(last, last[0]))):
            for run in family_runs(family):
                if not passes(run, lo_next):
                    _refuse(run)
                lo_next = run[1] + 1
            _refuse(first)
        certified.append((*first, count, *(family[7:] if count > 1 else (0, 0, 0, 0))))
        lo_next = last[1] + 1
    return np.array(certified, dtype=np.int64).reshape(-1, 11)


def _squared_radii(a1, q1, a2, q2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r^2 = num/den of the vertex of each certified pair, in lowest terms
    (unimodular pairs make it a quarter of an integer), and sqrt(num/den)
    as math.sqrt(num / den) gives it.

    num is the product of three factors below 8 lo^2, so int64 holds them
    and, with 2^v the power of 2 in a factor, gcd(num, 4) =
    min(4, gcd(f1, 4) gcd(f2, 4) gcd(f3, 4)).  The product is an int64
    array where the largest factors show that it fits, and Python ints
    otherwise.  As den is 1, 2 or 4, num / den rounds once either way: as
    int division or as float(num), rounded once, over a power of 2.
    """
    f1, f2, f3 = a1 * a1 + q1 * q1, a2 * a2 + q2 * q2, (a1 + a2) ** 2 + (q1 + q2) ** 2
    g = np.minimum(np.gcd(f1, 4) * np.gcd(f2, 4) * np.gcd(f3, 4), 4)
    den = 4 // g
    if int(f1.max()) * int(f2.max()) * int(f3.max()) <= _INT64_MAX:
        num = f1 * f2 * f3 // g
        return num, den, np.sqrt(num / den)
    nums = np.array([x * y * z // k for x, y, z, k in zip(f1.tolist(), f2.tolist(), f3.tolist(), g.tolist())],
                    dtype=object)
    return nums, den, np.sqrt(nums.astype(np.float64) / den)


def _blocks(lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None) -> Iterator[_Block]:
    """The trace over [q_min, q_max] as _Blocks of at most _BLOCK orders.

    The side against the kind of slope, the orders, the slope, then the
    ladder, are checked before this returns: a refused slope builds no
    ladder, and a failed check yields no block.  The families of
    farey_neighbor_families are certified (_certified_families) before any
    block that holds a run of them is yielded.
    """
    cut = lam.as_integer_ratio() if isinstance(lam, Fraction) else None  # a rational cut point
    if (cut is None) != (side is None):
        raise ValueError("a rational slope needs a side, '+' or '-' (--side)" if side is None
                         else "a side (--side) applies only to a rational slope")
    if not 2 <= q_min <= q_max:
        raise ValueError("need 2 <= q_min <= q_max (--q-min, --q-max)")
    families = farey_neighbor_families(lam, q_min, q_max, side)
    value = float(lam)
    shape = (1.0 + value * value) ** 1.5  # the factor of the predicted radius
    return _evaluated(families, lam, side, cut, _x_ladder(q_max), q_min, q_max, shape)


def _evaluated(families, lam, side, cut, xs: np.ndarray, q_min: int, q_max: int, shape: float) -> Iterator[_Block]:
    held = np.empty((0, 11), dtype=np.int64)  # the rest of a certified family that goes on past the last block
    lo_next = q_min  # the first order that no certified family covers yet
    for lo in range(q_min, q_max + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, q_max)
        rows, start = [], lo_next
        if lo_next <= hi:
            for family in islice(families, _BLOCK):  # a family covers one order or more
                rows.append(family)
                if _family_end(family) >= hi:
                    break
        fams = held
        if rows:
            new = _certified_families(rows, start, q_max, lam, side, cut)
            lo_next = _family_end(rows[-1]) + 1
            fams = np.concatenate((held, new)) if len(held) else new
        if lo_next <= hi:
            raise ArithmeticError(f"the neighbor runs stop at order {lo_next - 1}, before {q_max}")
        # the runs that start by hi, expanded together: run i of a family
        # holds the orders lo + i length .. hi + i length
        length = fams[:, 1] - fams[:, 0] + 1
        taken = np.minimum(fams[:, 6], (hi - fams[:, 0]) // length + 1)
        ends = np.cumsum(taken)
        i = np.arange(ends[-1], dtype=np.int64) - np.repeat(ends - taken, taken)
        members = np.repeat(fams, taken, axis=0)
        his = members[:, 1] + i * (members[:, 1] - members[:, 0] + 1)
        a1, q1, a2, q2 = (members[:, 2:6] + i[:, None] * members[:, 7:]).T
        done = int(taken[-1]) - int(his[-1] > hi)  # the runs of the last family that end by hi
        held = fams[:0]
        if done < fams[-1, 6]:  # the rest goes on past hi
            held = fams[-1:].copy()
            held[0, :2] += done * length[-1]
            held[0, 2:6] += done * held[0, 7:]
            held[0, 6] -= done
        num, den, root = _squared_radii(a1, q1, a2, q2)
        cum = np.minimum(his, hi)
        counts = cum - np.concatenate(([lo - 1], cum[:-1]))
        x = xs[lo : hi + 1]
        p = np.repeat(q1 * q2 * (q1 + q2), counts)
        # p / Q^3 as Python's int division rounds it: the quotient of two
        # float64 values is correctly rounded, and both are exact while
        # Q^3 < 2^53, as p = q1 q2 (q1 + q2) is even and at most 2 Q^3
        if hi**3 < _FLOAT_EXACT:
            ratio = p / np.arange(lo, hi + 1, dtype=np.int64) ** 3
        else:
            ratio = np.array([n / q**3 for n, q in zip(p.tolist(), range(lo, hi + 1))])
        # 3 X(Q,1) < 2^63, and int64 -> float64 rounds once as int / int does
        yield _Block(lo, hi, counts, a1, q1, a2, q2, num, den, x,
                     np.repeat(root, counts) / (3 * x / 2), ratio * _SQUARE_COEFF * shape)
    extra = next(families, None)
    if extra is not None:  # no run may start past q_max
        _certified_families([extra], q_max + 1, q_max, lam, side, cut)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


_CSV_HEADER = "Q,q1,q2,r_squared_num,r_squared_den,r_tilde,predicted\n"


def trace_lines(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[str]:
    """The trace's CSV, a row "Q,q1,q2,num,den,r_tilde,predicted" per
    order after a header, a block at a time from
    _blocks, with its checks done before this returns.  Each block is one
    byte grid (textgrid): the Q column, the text "q1,q2,num,den," of each
    run in the block, each field at its own width, repeated over its
    orders, and r_tilde and predicted as repr writes them."""
    blocks = _blocks(lam, q_min, q_max, side)

    def lines():
        yield _CSV_HEADER
        for block in blocks:
            fields = (block.q1, block.q2, block.num, block.den)
            if block.num.dtype == object:  # numerators beyond int64, each run formatted once
                runs = textgrid.str_grid([f"{q1},{q2},{num},{den}," for q1, q2, num, den in
                                          zip(*(field.tolist() for field in fields))])
            else:  # each field at its own width
                runs = textgrid.joined([part for field in fields for part in (textgrid.int_grid(field), ",")])
            floats = textgrid.float_grid(np.stack((block.r_tilde, block.predicted), axis=1))
            yield textgrid.lines([textgrid.int_grid(np.arange(block.lo, block.hi + 1)), ",",
                                  np.repeat(runs, block.counts, axis=0), floats[:, 0], ",", floats[:, 1], "\n"])

    return lines()


def trace_svg_chunks(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[str]:
    """Step plot of the scaled radius against log10 Q as SVG, with the band
    and the limit-curve radius of an irrational slope drawn as horizontal
    rules.  The whole trace is taken from _blocks, as one float64 array of
    r_tilde (the plot's top is its maximum), before the first chunk; every
    x and y is formatted once ({:.2f}, textgrid.fixed_grid), and the path
    is written textgrid._SLICE steps at a time as one byte grid."""
    ys = np.concatenate([block.r_tilde for block in _blocks(lam, q_min, q_max, side)])
    xs = np.fromiter(map(math.log10, range(q_min, q_max + 1)), np.float64, len(ys))
    x0, x1 = float(xs.min()), float(xs.max())
    bounds = None if isinstance(lam, Fraction) else _bounds_for(lam)
    levels = (bounds.band_low, bounds.band_high, bounds.limit_radius) if bounds else ()
    top = max((float(ys.max()), *levels)) * 1.05  # of the levels, the band's ceiling is the highest
    width, height = 640.0, 400.0
    px = textgrid.fixed_grid((xs - x0) / (x1 - x0 or 1.0) * width, 2)
    py = textgrid.fixed_grid(height - ys / top * height, 2)
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">\n'
    )
    for level, dash in zip(levels, ("4 3", "4 3", "1 2")):
        y = height - level / top * height
        yield (f'  <line x1="0" y1="{y:.2f}" x2="{width}" y2="{y:.2f}" '
               f'stroke="gray" stroke-dasharray="{dash}" stroke-width="1"/>\n')
    yield f'  <path d="M {textgrid.lines([px[:1], " ", py[:1]])}'
    for start in range(1, len(px), textgrid._SLICE):
        end = min(start + textgrid._SLICE, len(px))
        yield textgrid.lines([" L ", px[start:end], " ", py[start - 1 : end - 1],
                              " L ", px[start:end], " ", py[start:end]])
    yield '" fill="none" stroke="black" stroke-width="1"/>\n</svg>\n'
