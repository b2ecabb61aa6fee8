"""Independent reference implementations that the tests compare against.

The polygon construction here is the direct definition: test every lattice
point of the box for primitivity and membership, then sort the survivors
by exact angle with `Fraction` keys.  It makes O(Q^2) membership calls and
an O(Q^2 log Q) sort, so the package builds its polygons by the Farey walk
instead; these stay as the reference that walk must reproduce.  The Farey
neighbours of an irrational are likewise recomputed by mediant descent, a
route independent of the package's convergent walk, and R(Q) for the
square region is summed directly from the totients, without the ladder.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from jarnik.domains import DomainSpec, lattice_contains
from jarnik.number_theory import FareyNeighbors, RationalReal, RealSpec, totient_sieve
from jarnik.polygon import LatticePolygon, PrimitiveVector


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
    the (1, 0) edge ending at the origin."""
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
    return LatticePolygon(tuple(verts), order, spec)


def vertex_from_vectors(
    vectors: Sequence[PrimitiveVector], lam: RealSpec | Fraction | int
) -> tuple[int, int]:
    """Sum of the vectors with positive coordinates and slope at most lam."""
    spec = lam if isinstance(lam, RealSpec) else RationalReal(Fraction(lam))
    chosen = [v for v in vectors if v.q > 0 and v.a > 0 and spec.cmp(Fraction(v.a, v.q)) >= 0]
    return (sum(v.q for v in chosen), sum(v.a for v in chosen))


def farey_neighbors_stern_brocot(lam: RealSpec, order: int) -> FareyNeighbors:
    """Same query as farey_neighbors, by mediant descent from (0/1, 1/1)."""
    if order < 1:
        raise ValueError("Farey order must be a positive integer")
    if lam.is_rational:
        raise ValueError("rational cut point; use farey_neighbors_sided")
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
    phi = totient_sieve(order)
    return Fraction(3 * sum(q * phi[q] for q in range(1, order + 1)), 2)
