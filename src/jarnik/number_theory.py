"""Exact integer number theory.

Mobius and totient sieves, the Farey fractions of an order, the convergent
walk of a quotient stream and the Farey neighbors of a slope in runs of
orders read off it, plus exact specifications of real numbers (rationals,
quadratic surds, pattern-generated continued fractions) so that ordering
questions against fractions are decided with integer arithmetic only,
never floating point.

Conventions used throughout: a number x in (0,1) has the continued
fraction x = [0; b_1, b_2, ...] with positive integer partial quotients,
and the convergents h_n/k_n follow

    h_0 = 1, h_1 = 0, h_{n+1} = b_n h_n + h_{n-1}
    k_0 = 0, k_1 = 1, k_{n+1} = b_n k_n + k_{n-1}

so `convergent_walk` yields h_0/k_0 = 1/0 and then h_1/k_1 = 0/1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Mobius and totient sieves
# ---------------------------------------------------------------------------


def _small_primes_and_cofactors(limit: int) -> tuple[list[int], np.ndarray]:
    """The primes p <= sqrt(limit), and for n = 0..limit what is left of n
    once every such p is divided out: 1 or one prime above sqrt(limit)."""
    if limit < 1:
        raise ValueError("sieve limit must be a positive integer")
    rest = np.arange(limit + 1, dtype=np.int64)
    primes = []
    for p in range(2, math.isqrt(limit) + 1):
        if rest[p] == p:  # no smaller prime divides p
            primes.append(p)
            power = p
            while power <= limit:
                rest[power::power] //= p
                power *= p
    return primes, rest


def moebius_array(limit: int, sieve: tuple[list[int], np.ndarray] | None = None) -> np.ndarray:
    """mu(0..limit) as an int8 array (mu[0] = 0).

    mu(1) = 1; mu(n) = 0 when a prime square divides n; otherwise
    (-1)^(number of prime factors).  `sieve` is
    _small_primes_and_cofactors(limit) where the caller has it already.
    """
    primes, rest = sieve or _small_primes_and_cofactors(limit)
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes:
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    mu[rest > 1] *= -1
    return mu


# Orders per slice of the totient sieve's cofactor pass, which bounds its
# fancy-indexed temporaries.
_COFACTOR_SLICE = 1 << 16


def totient_array(limit: int, sieve: tuple[list[int], np.ndarray] | None = None) -> np.ndarray:
    """phi(0..limit) as an int64 array (phi[0] = 0).

    Each prime p <= sqrt(limit) takes phi(n) -= phi(n)/p on its multiples,
    then the one prime cofactor above sqrt(limit) that n may have, which
    still divides phi(n) at that point, is taken out the same way, a slice
    of orders at a time.  `sieve` is as for moebius_array.
    """
    primes, rest = sieve or _small_primes_and_cofactors(limit)
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in primes:
        phi[p::p] -= phi[p::p] // p
    for start in range(0, limit + 1, _COFACTOR_SLICE):
        part, cofactor = phi[start : start + _COFACTOR_SLICE], rest[start : start + _COFACTOR_SLICE]
        big = cofactor > 1
        part[big] -= part[big] // cofactor[big]
    return phi


# ---------------------------------------------------------------------------
# Farey sequences
# ---------------------------------------------------------------------------


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


def farey_fractions(
    order: int, cap: Sequence[int] | np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(a, q) as int64 arrays for the Farey fractions a/q of the order in
    (0, 1] with a <= cap[q] (cap[q] = q when no cap is given), increasing.

    Row q = 1..order is laid out as the numerators 1..cap[q], the pairs with
    gcd(a, q) = 1 are kept and ordered by an argsort of a/q, and that order
    is certified in integers: a[k+1] q[k] - a[k] q[k+1] > 0 for every k.
    """
    if order < 1:
        raise ValueError("Farey order must be a positive integer")
    rows = np.arange(order + 1, dtype=np.int64)
    counts = rows
    if cap is not None:
        cap = np.asarray(cap, dtype=np.int64)
        if cap.shape != rows.shape:
            raise ValueError(f"need one cap per row 0..{order}")
        counts = np.clip(cap, 0, rows)
    q = np.repeat(rows, counts)
    # a runs 1..counts[q] within each row: a global count less the row's start
    a = np.arange(1, len(q) + 1, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    coprime = np.gcd(a, q) == 1
    a, q = a[coprime], q[coprime]
    ranks = np.argsort(a / q)
    a, q = a[ranks], q[ranks]
    bad = np.flatnonzero(a[1:] * q[:-1] - a[:-1] * q[1:] <= 0)
    if len(bad):
        k = int(bad[0])
        raise ArithmeticError(
            f"Farey order certificate failed: {a[k]}/{q[k]} is not below "
            f"{a[k + 1]}/{q[k + 1]} at order {order}"
        )
    return a, q


# ---------------------------------------------------------------------------
# Exact real specifications
# ---------------------------------------------------------------------------


class RealSpec:
    """A real number given exactly, supporting integer-only comparisons.

    Subclasses implement cmp() against rationals and, for irrationals, a
    stream of continued fraction partial quotients.
    """

    is_rational = False

    def cmp(self, frac: Fraction) -> int:
        """Sign of (self - frac): -1, 0 or +1, decided exactly."""
        raise NotImplementedError

    def quotients(self) -> Iterator[int]:
        """Partial quotients b_1, b_2, ... of self = [0; b_1, b_2, ...]."""
        raise NotImplementedError

    def __float__(self) -> float:
        raise NotImplementedError

    def floor_scaled(self, q: int) -> int:
        """floor(self * q) for a positive integer q, exact."""
        if q < 1:
            raise ValueError("scale must be a positive integer")
        a = int(float(self) * q)  # seed, then correct with exact comparisons
        while a > 0 and self.cmp(Fraction(a, q)) < 0:
            a -= 1
        while self.cmp(Fraction(a + 1, q)) >= 0:
            a += 1
        return a


@dataclass(frozen=True)
class RationalReal(RealSpec):
    value: Fraction

    is_rational = True

    def cmp(self, frac: Fraction) -> int:
        d = self.value - frac
        return (d > 0) - (d < 0)

    def quotients(self) -> Iterator[int]:
        # Euclid on value in (0,1); terminates, final quotient >= 2 except for 0/1
        num, den = self.value.numerator, self.value.denominator
        while num:
            b, rem = divmod(den, num)
            yield b
            num, den = rem, num

    def floor_scaled(self, q: int) -> int:
        return (self.value.numerator * q) // self.value.denominator

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return f"rat:{self.value.numerator}/{self.value.denominator}"


def _floor_quadratic(p: int, d: int, q: int) -> int:
    """floor((p + sqrt(d))/q) for non-square d >= 0 and q != 0, exact."""
    s = math.isqrt(d)
    if q > 0:
        return (p + s) // q
    # d non-square makes (p + sqrt(d)) irrational, so the ceiling is floor+1
    return -((p + s) // (-q) + 1)


@dataclass(frozen=True)
class QuadraticSurd(RealSpec):
    """The number (p + sqrt(d))/q with integer data, d not a perfect square."""

    p: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if self.q == 0:
            raise ValueError("denominator of a surd must be nonzero")
        if self.d < 0:
            raise ValueError("radicand must be nonnegative")
        if math.isqrt(self.d) ** 2 == self.d:
            raise ValueError("radicand is a perfect square; use a rational spec")

    def cmp(self, frac: Fraction) -> int:
        # sign of (p + sqrt(d))/q - a/b via sign of (bp - aq + b sqrt(d)) * sign(bq)
        a, b = frac.numerator, frac.denominator
        t = a * self.q - b * self.p  # compare b*sqrt(d) against t
        if t < 0:
            num_sign = 1
        else:
            lhs = b * b * self.d
            rhs = t * t
            num_sign = (lhs > rhs) - (lhs < rhs)
        q_sign = 1 if self.q > 0 else -1
        return num_sign * q_sign

    def quotients(self) -> Iterator[int]:
        # integer PQa recurrence; rescale first so that q | d - p^2
        p, d, q = self.p, self.d, self.q
        if (d - p * p) % q:
            p, d, q = p * abs(q), d * q * q, q * abs(q)
        b0 = _floor_quadratic(p, d, q)
        if b0 != 0:
            raise ValueError("quotient stream requires a value in (0, 1)")
        while True:
            p = b0 * q - p
            q = (d - p * p) // q
            b0 = _floor_quadratic(p, d, q)
            yield b0

    def floor_scaled(self, q: int) -> int:
        return _floor_quadratic(self.p * q, self.d * q * q, self.q)

    def __float__(self) -> float:
        return (self.p + math.sqrt(self.d)) / self.q

    def __str__(self) -> str:
        return f"surd:({self.p}+sqrt({self.d}))/{self.q}"


@dataclass(frozen=True)
class GeneratedCF(RealSpec):
    """Irrational in (0,1) given by a generator of its partial quotients."""

    name: str
    factory: Callable[[], Iterator[int]] = field(compare=False)
    periodic: bool = False  # quotients eventually cycle

    def cmp(self, frac: Fraction) -> int:
        # Consecutive convergents bracket the value strictly; refine until
        # the query fraction falls outside the bracket.
        a, b = frac.numerator, frac.denominator
        for (lo_n, lo_d), (hi_n, hi_d) in pairwise(convergent_walk(self.factory())):
            if lo_n * hi_d > hi_n * lo_d:
                lo_n, lo_d, hi_n, hi_d = hi_n, hi_d, lo_n, lo_d
            if a * lo_d <= lo_n * b:
                return 1  # value > lo >= frac
            if a * hi_d >= hi_n * b:
                return -1
        raise ValueError(f"quotient stream for {self.name} terminated; not irrational")

    def quotients(self) -> Iterator[int]:
        return self.factory()

    def __float__(self) -> float:
        for h, k in convergent_walk(self.factory()):
            if k > 1 << 40:
                break
        return h / k

    def __str__(self) -> str:
        return self.name


def _e_minus_2_quotients() -> Iterator[int]:
    # [0; 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, ...]
    yield 1
    even = 2
    while True:
        yield even
        yield 1
        yield 1
        even += 2


def _periodic_quotients(head: Sequence[int], cycle: Sequence[int]) -> Iterator[int]:
    yield from head
    while True:
        yield from cycle


E_MINUS_2 = GeneratedCF("const:e-2", _e_minus_2_quotients)
INV_SQRT3 = QuadraticSurd(0, 3, 3)  # 1/sqrt(3) = sqrt(3)/3

_CF_LITERAL = re.compile(r"^cf:\[0;([0-9,]*)(?:\(([0-9,]+)\))?\]$")
_SURD = re.compile(r"^surd:\((-?\d+)\+sqrt\((\d+)\)\)/(-?\d+)$")


def parse_real(text: str) -> RealSpec:
    """Parse the exact-number grammar.

    Accepted forms: ``rat:a/b``, ``surd:(P+sqrt(D))/Q``, ``const:e-2``,
    ``const:inv-sqrt3``, and ``cf:[0;b1,b2,...,(p1,p2,...)]`` where the
    parenthesised tail repeats forever.  A number that int() cannot read,
    not an integer (``rat:1/2/3``) or longer than the digits it converts,
    is refused with the text as typed.
    """
    text = text.strip()

    def integer(token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"unsupported real specification: {text!r}") from None

    if text.startswith("rat:"):
        num, _, den = text[4:].partition("/")
        try:
            value = Fraction(integer(num), integer(den)) if den else Fraction(integer(num))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        return RationalReal(value)
    if text == "const:e-2":
        return E_MINUS_2
    if text == "const:inv-sqrt3":
        return INV_SQRT3
    m = _SURD.match(text)
    if m:
        return QuadraticSurd(*map(integer, m.groups()))
    m = _CF_LITERAL.match(text)
    if m:
        head = tuple(integer(t) for t in m.group(1).split(",") if t)
        cycle = tuple(integer(t) for t in m.group(2).split(",")) if m.group(2) else ()
        if any(b < 1 for b in head + cycle):
            raise ValueError("partial quotients must be positive")
        if cycle:
            return GeneratedCF(text, lambda: _periodic_quotients(head, cycle), periodic=True)
        if not head:
            raise ValueError("empty continued fraction literal")
        value = Fraction(0)
        for b in reversed(head):
            value = Fraction(1, b + value)
        return RationalReal(value)
    raise ValueError(f"unsupported real specification: {text!r}")


# ---------------------------------------------------------------------------
# Convergents
# ---------------------------------------------------------------------------


def convergent_walk(quotients: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(h_n, k_n) for n = 0, 1, 2, ...: 1/0 and 0/1, then one convergent for
    each partial quotient of [0; b_1, b_2, ...] read from the stream."""
    h_prev, k_prev, h, k = 1, 0, 0, 1
    yield h_prev, k_prev
    yield h, k
    for b in quotients:
        h_prev, h = h, b * h + h_prev
        k_prev, k = k, b * k + k_prev
        yield h, k


# ---------------------------------------------------------------------------
# Farey neighbors
# ---------------------------------------------------------------------------


def farey_neighbor_runs(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[tuple[int, ...]]:
    """(lo, hi, a1, q1, a2, q2), in runs that tile the orders q_min..q_max:
    a1/q1 < a2/q2 are the consecutive Farey fractions around lam at every
    order in lo..hi.

    An irrational lam is walked by its convergents: with j k_n + k_{n-1} <=
    Q < (j+1) k_n + k_{n-1}, 1 <= j <= b_n, the bracketing denominators are
    k_n and j k_n + k_{n-1}.  A rational cut point (a Fraction a/b) takes a
    side and its sided neighbors at q_min; the free neighbor c/d then steps
    by (a, b) each time the order admits d + b, as (c + a)/(d + b) is
    unimodular too.  The arguments are checked before the walk is returned:
    reading b_1 rejects a value outside (0, 1), and the sided neighbors a
    cut point that order q_min cannot hold.
    """
    if not 1 <= q_min <= q_max:
        raise ValueError("need 1 <= q_min <= q_max")
    if isinstance(lam, Fraction):
        first = farey_neighbors_sided(lam, side, q_min)
        c, d = (first.right if side == "+" else first.left).as_integer_ratio()
        return _rational_runs(*lam.as_integer_ratio(), c, d, side, q_min, q_max)
    if lam.is_rational:
        raise ValueError("rational cut point; use farey_neighbors_sided")
    pairs = convergent_walk(lam.quotients())
    return _convergent_runs(pairs, (next(pairs), next(pairs), next(pairs)), q_min, q_max)


def _convergent_runs(pairs: Iterator[tuple[int, int]], window: tuple, lo: int, q_max: int) -> Iterator[tuple]:
    # window: the convergents n-1, n and n+1, with k_n + k_{n-1} <= lo < k_{n+1} + k_n
    (hp, kp), (h, k), (hn, kn) = window
    while lo <= q_max:
        while kn + k <= lo:
            (hp, kp), (h, k), (hn, kn) = (h, k), (hn, kn), next(pairs)
        j = (lo - kp) // k
        hi = min(q_max, (j + 1) * k + kp - 1, kn + k - 1)
        # the secondary lies between h_{n-1}/k_{n-1} and h_n/k_n, so it is
        # the left neighbor exactly when h_n/k_n is the larger of the two
        if h * kp > hp * k:
            yield lo, hi, j * h + hp, j * k + kp, h, k
        else:
            yield lo, hi, h, k, j * h + hp, j * k + kp
        lo = hi + 1


def _rational_runs(a: int, b: int, c: int, d: int, side: str, lo: int, q_max: int) -> Iterator[tuple]:
    step = (lo - d) // b
    c, d = c + step * a, d + step * b
    while lo <= q_max:  # c/d is the free neighbor from order d until d + b enters
        hi = q_max if d + b > q_max else d + b - 1
        yield (lo, hi, a, b, c, d) if side == "+" else (lo, hi, c, d, a, b)
        lo, c, d = hi + 1, c + a, d + b


def farey_neighbors_sided(lam: Fraction, side: str, order: int) -> FareyNeighbors:
    """Neighbor pair at a rational point: (lam, successor) or (predecessor, lam)."""
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if not 0 <= lam <= 1:
        raise ValueError("rational cut point must lie in [0, 1]")
    a, b = lam.numerator, lam.denominator
    if b > order:
        raise ValueError(f"denominator of {lam} exceeds Farey order {order}")
    if side == "+":
        if lam == 1:
            raise ValueError("1/1 has no successor in [0, 1]")
        if b == 1:  # lam = 0/1
            return FareyNeighbors(lam, Fraction(1, order), order)
        # successor c/d satisfies c*b - a*d = 1 with the largest d <= order
        d = -pow(a, -1, b) % b
        d += ((order - d) // b) * b
        c = (a * d + 1) // b
        return FareyNeighbors(lam, Fraction(c, d), order)
    if lam == 0:
        raise ValueError("0/1 has no predecessor in [0, 1]")
    if b == 1:  # lam = 1/1
        return FareyNeighbors(Fraction(order - 1, order), lam, order)
    # predecessor c/d satisfies a*d - c*b = 1 with the largest d <= order
    d = pow(a, -1, b) % b
    d += ((order - d) // b) * b
    c = (a * d - 1) // b
    return FareyNeighbors(Fraction(c, d), lam, order)
