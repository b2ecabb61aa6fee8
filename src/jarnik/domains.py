"""The admissible symmetric regions and their exact lattice membership.

Every region is closed, star-shaped about the origin and carries the
eight-fold dihedral symmetry of the unit square, so membership only
depends on (u, v) = (max(|x|,|y|), min(|x|,|y|)):

    square       u <= 1              octagon d = inf, slope (1, 0)
    diamond      u + v <= 1          octagon d = 1, slope (1, 1)
    octagon(d)   d*u + v <= d        slope (dn, dd) with d = dn/dd
    ball(p)      u^p + v^p <= 1

so each polygonal region is dn*u + dd*v <= dn for its integer slope.

Lattice membership of (q/Q, a/Q) is decided in integer arithmetic; for
ball exponents whose reduced denominator is 1, 2 or 3 by a polynomial
comparison, for larger denominators by an escalating integer-root
bracketing, so no point is ever classified by floating point.

The normalised moments of the wedge S(lam) = {(x,y) in S : x > 0,
0 < y <= lam x}, which a region's limit curve is made of, live with the
curves in `limit_curves`: `polygon_wedge`, exact rationals for a
polygonal region, and `ball_wedge`.  The moment integrals themselves,
those moments scaled, are a test oracle (`tests/oracles.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class DomainSpec:
    kind: str  # "square" | "diamond" | "octagon" | "ball"
    param: Fraction | None = None  # octagon slope d or ball exponent p
    # (dn, dd) of a polygonal region dn*u + dd*v <= dn; None for a ball
    slope: tuple[int, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind in ("square", "diamond"):
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
            slope = (1, 0) if self.kind == "square" else (1, 1)
        elif self.kind in ("octagon", "ball"):
            if self.param is None or self.param <= 0:
                raise ValueError(f"{self.kind} needs a positive parameter")
            slope = (self.param.numerator, self.param.denominator) if self.kind == "octagon" else None
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        object.__setattr__(self, "slope", slope)

    def __str__(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param}"


def square() -> DomainSpec:
    return DomainSpec("square")


def diamond() -> DomainSpec:
    return DomainSpec("diamond")


def octagon(delta: Rational | float) -> DomainSpec:
    if delta == math.inf:
        return square()
    return DomainSpec("octagon", _as_fraction(delta))


def ball(p: Rational | float) -> DomainSpec:
    if p == math.inf:
        return square()
    return DomainSpec("ball", _as_fraction(p))


def _as_fraction(value: Rational | float) -> Fraction:
    # Fraction(0.3) is 5404319552844595/2**54, and membership raises the
    # coordinates to that numerator: accept integral floats only.
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"parameter {value!r} is not an integer; pass a Fraction instead")
    return Fraction(value)


def parse_domain(text: str) -> DomainSpec:
    """Parse ``square``, ``diamond``, ``octagon:<d>`` or ``ball:<p>``.

    Parameters may be decimals or rationals ``a/b``; ``inf`` aliases the
    square for both families.
    """
    text = text.strip()
    if text in ("square", "diamond"):
        return DomainSpec(text)
    name, sep, raw = text.partition(":")
    if sep and name in ("octagon", "ball"):
        try:
            value = math.inf if raw == "inf" else Fraction(raw)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        return octagon(value) if name == "octagon" else ball(value)
    raise ValueError(f"unsupported domain specification: {text!r}")


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def _iroot_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0 by Newton iteration on integers."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    if k == 1:
        return x
    if k == 2:
        return math.isqrt(x)
    guess = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nxt = ((k - 1) * guess + x // guess ** (k - 1)) // k
        if nxt >= guess:
            break
        guess = nxt
    while guess**k > x:
        guess -= 1
    return guess


def _ball_sum_within(A: int, B: int, C: int, b: int) -> bool:
    """Decide A^(1/b) + B^(1/b) <= C^(1/b) for nonnegative integers, exactly.

    b = 1, 2 and 3 reduce to polynomial comparisons.  For b = 3, put
    G = C - A - B; the sum holds exactly when G >= 0 and G^3 >= 27ABC:
      s = A^(1/3) + B^(1/3) has s^3 = A + B + 3 (AB)^(1/3) s, so s^3 is a
      root at or above A + B of the cubic f(t) = (t - A - B)^3 - 27AB t;
      f(A + B) <= 0 and f is convex there, so f < 0 from A + B up to s^3,
      its only root there, and f >= 0 after: s^3 <= C iff G >= 0, f(C) >= 0.
    For b >= 4 and
    A, B > 0, Besicovitch's theorem (b-th roots of distinct b-th-power-free
    integers are linearly independent over Q) allows a tie only when
    A^(b-1) B = tB^b and A^(b-1) C = tC^b; multiplied by A^((b-1)/b) the
    comparison is then A + tB <= tC.  Scaled integer roots at escalating
    precision settle every other case.  A tie never passes either bracket
    test, so the costly tie test runs only when the first bracket, which
    separates almost every point, does not.
    """
    if b == 1:
        return A + B <= C
    if b == 2:
        # sqrt(A) + sqrt(B) <= sqrt(C)  <=>  C - A - B >= 0 and 4AB <= (C-A-B)^2
        gap = C - A - B
        return gap >= 0 and 4 * A * B <= gap * gap
    if b == 3:
        gap = C - A - B
        return gap >= 0 and 27 * A * B * C <= gap**3
    if not (A and B):
        return max(A, B) <= C
    for bits in (32, 64, 128, 256, 512, 1024, 4096):
        scale = 1 << bits
        sb = scale**b
        lo = _iroot_floor(A * sb, b) + _iroot_floor(B * sb, b)  # <= scale * (A^(1/b)+B^(1/b))
        hi = lo + 2  # floor roots each undershoot by < 1
        rc_lo = _iroot_floor(C * sb, b)
        if hi <= rc_lo:
            return True
        if lo > rc_lo + 1:
            return False
        if bits == 32:
            lead = A ** (b - 1)
            tb, tc = _iroot_floor(lead * B, b), _iroot_floor(lead * C, b)
            if tb**b == lead * B and tc**b == lead * C:
                return A + tb <= tc
    raise ArithmeticError("membership comparison did not separate; boundary case")


def lattice_contains(spec: DomainSpec, q: int, a: int, order: int) -> bool:
    """Whether (q/order, a/order) lies in the (closed) region."""
    u, v = abs(q), abs(a)
    if u < v:
        u, v = v, u
    if spec.slope is not None:
        dn, dd = spec.slope
        return dn * u + dd * v <= dn * order
    pn, pd = spec.param.numerator, spec.param.denominator
    try:
        return _ball_sum_within(u**pn, v**pn, order**pn, pd)
    except ArithmeticError as exc:
        raise ArithmeticError(f"{exc}: point ({q}, {a}) of region {spec} at order {order}") from exc
