"""Exact integer number theory.

Mobius and totient sieves over the primes of one sieve of Eratosthenes,
those above the square root of the limit taken a slice of their multiples
at a time, the Farey fractions of an order, the convergent
walk of a quotient stream and the Farey neighbors of a slope, irrational or
a rational cut point, in runs of orders read off its convergents: the runs
of one partial quotient form a family, the secondary convergents, an
arithmetic progression of pairs beside one fixed convergent.  Plus
exact specifications of irrational numbers (quadratic surds,
pattern-generated continued fractions) so that ordering questions against
fractions are decided with integer arithmetic only, never floating point.
A slope is one of two types: a rational one is a Fraction, ordered as
Fractions are, and an irrational one is a RealSpec, ordered by its cmp.

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
from itertools import chain, pairwise
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Mobius and totient sieves
# ---------------------------------------------------------------------------


def _split_primes(limit: int) -> tuple[list[int], np.ndarray]:
    """The primes p <= sqrt(limit) as a list and the primes in
    (sqrt(limit), limit] as an int64 array, from one boolean sieve of
    Eratosthenes."""
    if limit < 1:
        raise ValueError("sieve limit must be a positive integer")
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    root = math.isqrt(limit)
    primes = []
    for p in range(2, root + 1):
        if is_prime[p]:
            primes.append(p)
            is_prime[p * p :: p] = False
    return primes, np.flatnonzero(is_prime[root + 1 :]).astype(np.int64, copy=False) + (root + 1)


# Most multiples in one slice of the sieves' large-prime pass, which bounds
# its fancy-indexed temporaries at 128 KiB each; slices of 2^16 raise the
# peak RSS of the ladder at its cap by about 3.6 MB.
_MULTIPLES_SLICE = 1 << 14


def _large_prime_multiples(limit: int, large: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(P, m P) over every multiple m P <= limit of the primes P in `large`,
    all above sqrt(limit), as int64 arrays of at most _MULTIPLES_SLICE
    entries each.  An order has at most one prime factor above sqrt(limit),
    so these multiples are distinct.  Row P holds m = 1..limit // P, laid
    out as in farey_fractions; a slice takes the part of each row that falls
    in its window of the global count."""
    counts = limit // large
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(counts.sum())
    for lo in range(0, total, _MULTIPLES_SLICE):
        hi = min(lo + _MULTIPLES_SLICE, total)
        rows = slice(int(np.searchsorted(ends, lo, side="right")), int(np.searchsorted(starts, hi)))
        taken = np.minimum(ends[rows], hi) - np.maximum(starts[rows], lo)
        big = np.repeat(large[rows], taken)
        # m runs from 1 within each row: the global count less the row's start
        m = np.arange(lo + 1, hi + 1, dtype=np.int64) - np.repeat(starts[rows], taken)
        yield big, big * m


def moebius_array(limit: int, sieve: tuple[list[int], np.ndarray] | None = None) -> np.ndarray:
    """mu(0..limit) as an int8 array (mu[0] = 0).

    mu(1) = 1; mu(n) = 0 when a prime square divides n; otherwise
    (-1)^(number of prime factors).  Each prime p <= sqrt(limit) negates
    its multiples and zeroes those of p^2, then each prime above
    sqrt(limit), whose square exceeds limit, negates its multiples.
    `sieve` is _split_primes(limit) where the caller has it already.
    """
    primes, large = sieve or _split_primes(limit)
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes:
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    for _, idx in _large_prime_multiples(limit, large):
        mu[idx] *= -1
    return mu


def totient_array(limit: int, sieve: tuple[list[int], np.ndarray] | None = None) -> np.ndarray:
    """phi(0..limit) as an int64 array (phi[0] = 0).

    Each prime p <= sqrt(limit) takes phi(n) -= phi(n)/p on its multiples,
    then each prime P above sqrt(limit), which still divides phi(n) at that
    point, takes phi(n) = phi(n)/P (P-1) on its multiples, a slice of them
    at a time.  `sieve` is as for moebius_array.
    """
    primes, large = sieve or _split_primes(limit)
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in primes:
        phi[p::p] -= phi[p::p] // p
    for big, idx in _large_prime_multiples(limit, large):
        phi[idx] = phi[idx] // big * (big - 1)
    return phi


# ---------------------------------------------------------------------------
# Farey sequences
# ---------------------------------------------------------------------------


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
    """An irrational number given exactly, supporting integer-only
    comparisons: cmp() against fractions and a stream of continued
    fraction partial quotients.

    Every RealSpec is irrational, so cmp() never returns 0 and the stream
    never ends: QuadraticSurd refuses a square radicand, and the streams of
    GeneratedCF are infinite.  A rational number is a Fraction instead.
    """

    def cmp(self, frac: Fraction) -> int:
        """Sign of (self - frac): -1, 0 or +1, decided exactly."""
        raise NotImplementedError

    def quotients(self) -> Iterator[int]:
        """Partial quotients b_1, b_2, ... of self = [0; b_1, b_2, ...]."""
        raise NotImplementedError

    def __float__(self) -> float:
        raise NotImplementedError


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


def parse_real(text: str) -> RealSpec | Fraction:
    """Parse the exact-number grammar: a Fraction for ``rat:`` and a finite
    ``cf:`` literal, a RealSpec for every other form.

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
            return Fraction(integer(num), integer(den)) if den else Fraction(integer(num))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
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
        return value
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


def farey_neighbor_families(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[tuple[int, ...]]:
    """(lo, hi, a1, q1, a2, q2, count, da1, dq1, da2, dq2), in families of
    runs that tile the orders q_min..q_max: run i = 0..count-1 of a family
    holds the orders lo + i L .. hi + i L, L = hi - lo + 1, and the pairs
    (a1 + i da1)/(q1 + i dq1) < (a2 + i da2)/(q2 + i dq2), the consecutive
    Farey fractions around lam at each of its orders.

    Every slope is walked by its convergents: with j k_n + k_{n-1} <= Q <
    (j+1) k_n + k_{n-1}, 1 <= j <= b_n, the bracketing denominators are k_n
    and j k_n + k_{n-1}, so the runs of level n form one family, k_n orders
    a run, the secondaries (j h_n + h_{n-1})/(j k_n + k_{n-1}) beside the
    fixed convergent h_n/k_n: the step is (h_n, k_n, 0, 0) where the
    secondaries are the left neighbors and (0, 0, h_n, k_n) where they are
    the right ones.  A run that q_min or q_max cuts short is a family of
    its own.  A rational cut point (a Fraction a/b) takes a side and the
    expansion [0; ..., b_m] or [0; ..., b_m - 1, 1] of a/b whose
    next-to-last convergent P/K lies on that side, then one quotient that
    puts the next convergent beyond q_max: a/b is the secondary of the one
    run b..b + K - 1, paired with P/K, and the convergent of the family
    after it, paired with (j a + P)/(j b + K), b orders a run.  The
    arguments are checked before the walk is returned: reading b_1 rejects
    a value outside (0, 1), and a cut point is refused off [0, 1], with b
    above q_min, or without a neighbor on its side.
    """
    if not 1 <= q_min <= q_max:
        raise ValueError("need 1 <= q_min <= q_max")
    if not isinstance(lam, Fraction):
        quotients = lam.quotients()
        return _convergent_families(chain([next(quotients)], quotients), q_min, q_max)
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if not 0 <= lam <= 1:
        raise ValueError("rational cut point must lie in [0, 1]")
    a, b = lam.as_integer_ratio()
    if b > q_min:
        raise ValueError(f"denominator of {lam} exceeds Farey order {q_min}")
    quotients, num, den = [], a, b
    while num:  # Euclid: a/b = [0; b_1, ..., b_m], b_m >= 2 unless a/b is 0/1 or 1/1
        quotients.append(den // num)
        num, den = den % num, num
    # with m quotients, h_m k_{m+1} - h_{m+1} k_m = (-1)^m: the next-to-last
    # convergent h_m/k_m lies above a/b exactly when m is even, and
    # b_m - 1, 1 in place of b_m moves it to the other side
    if (len(quotients) % 2 == 0) != (side == "+"):
        if quotients[-1:] in ([], [1]):  # 0/1 and 1/1 = [0; 1]
            raise ValueError(f"{a}/{b} has no {'successor' if side == '+' else 'predecessor'} in [0, 1]")
        quotients[-1:] = [quotients[-1] - 1, 1]
    return _convergent_families(quotients + [q_max], q_min, q_max)


def farey_neighbor_runs(
    lam: RealSpec | Fraction, q_min: int, q_max: int, side: str | None = None
) -> Iterator[tuple[int, ...]]:
    """(lo, hi, a1, q1, a2, q2), in runs that tile the orders q_min..q_max:
    a1/q1 < a2/q2 are the consecutive Farey fractions around lam at every
    order in lo..hi.  These are the families of farey_neighbor_families
    expanded run by run, with its checks done before this returns."""
    return chain.from_iterable(map(family_runs, farey_neighbor_families(lam, q_min, q_max, side)))


def family_runs(family: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The runs (lo, hi, a1, q1, a2, q2) of a family of
    farey_neighbor_families, first to last."""
    lo, hi, a1, q1, a2, q2, count, da1, dq1, da2, dq2 = family
    length = hi - lo + 1
    for i in range(count):
        yield lo + i * length, hi + i * length, a1 + i * da1, q1 + i * dq1, a2 + i * da2, q2 + i * dq2


def _convergent_families(quotients: Iterable[int], lo: int, q_max: int) -> Iterator[tuple]:
    # level n, with the convergents n-1 and n and the quotient b_n, holds
    # the orders k_n + k_{n-1} .. k_{n+1} + k_n - 1, run j = 1..b_n from
    # j k_n + k_{n-1} on
    hp, kp, h, k = 1, 0, 0, 1
    for b in quotients:
        top = (b + 1) * k + kp - 1
        if lo <= top:
            last = top if top < q_max else q_max
            # the secondaries lie between h_{n-1}/k_{n-1} and h_n/k_n, so
            # they are the left neighbors exactly when h_n/k_n is the larger
            left = h * kp > hp * k
            j = (lo - kp) // k
            while lo <= last:
                start = j * k + kp
                # the runs from j on that end by last make one family, and a
                # run that q_min or q_max cuts short is one of its own
                count = 1 if lo > start else max((last + 1 - start) // k, 1)
                hi, sh = min(start + k - 1, last), j * h + hp
                if left:
                    yield lo, hi, sh, start, h, k, count, h, k, 0, 0
                else:
                    yield lo, hi, h, k, sh, start, count, 0, 0, h, k
                j += count
                lo = start + count * k
            if last == q_max:
                return
            lo = last + 1
        hp, h, kp, k = h, b * h + hp, k, b * k + kp
