import math
import random
from fractions import Fraction

import pytest
from scipy import integrate

from jarnik.domains import (
    DomainSpec,
    ball,
    diamond,
    lattice_contains,
    octagon,
    parse_domain,
    square,
)
from jarnik import domains
from jarnik.domains import _ball_sum_within

from oracles import ball_sum_within_tie_first, contains, moment_integrals, scale_factor_asymptote

ALL_SPECS = [
    square(),
    diamond(),
    octagon(Fraction(1, 2)),
    octagon(1),
    octagon(2),
    ball(Fraction(1, 2)),
    ball(1),
    ball(2),
    ball(3),
    ball(Fraction(3, 2)),
]


def quadrature_moments(spec, lam):
    """Independent oracle: adaptive 2-D quadrature over the wedge."""
    if spec.kind == "square":
        ymax, xr = lam, lambda y: 1.0
    elif spec.kind == "diamond":
        ymax, xr = lam / (1 + lam), lambda y: 1.0 - y
    elif spec.kind == "octagon":
        d = float(spec.param)
        ymax, xr = d * lam / (d + lam), lambda y: 1.0 - y / d
    else:
        p = float(spec.param)
        ymax, xr = lam / (1 + lam**p) ** (1 / p), lambda y: (1 - y**p) ** (1 / p)
    opts = dict(epsabs=1e-12, epsrel=1e-12)
    mx, _ = integrate.dblquad(lambda x, y: x, 0, ymax, lambda y: y / lam, xr, **opts)
    my, _ = integrate.dblquad(lambda x, y: y, 0, ymax, lambda y: y / lam, xr, **opts)
    return mx, my


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def test_contains_examples():
    assert contains(square(), 1, 1)
    assert contains(diamond(), Fraction(1, 2), Fraction(1, 2))
    assert not contains(diamond(), Fraction(3, 5), Fraction(1, 2))
    assert contains(ball(2), Fraction(3, 5), Fraction(4, 5))  # on the circle
    assert not contains(ball(2), Fraction(3, 5), Fraction(4, 5) + Fraction(1, 10**9))


def test_ball_half_exact_boundary():
    # sqrt(1/4) + sqrt(1/4) = 1 exactly
    assert contains(ball(Fraction(1, 2)), Fraction(1, 4), Fraction(1, 4))
    assert not contains(ball(Fraction(1, 2)), Fraction(1, 4), Fraction(1, 4) + Fraction(1, 10**9))


def test_ball_non_halfinteger_exponent():
    b = ball(Fraction(3, 2))
    assert contains(b, Fraction(1, 2), Fraction(1, 2))
    assert not contains(b, Fraction(9, 10), Fraction(9, 10))
    # cube-root comparison path (denominator 3)
    b3 = ball(Fraction(2, 3))
    assert contains(b3, Fraction(1, 8), Fraction(27, 64)) is not None


def test_ball_sum_exact_tie_without_perfect_powers():
    # 2^(1/3) + 2^(1/3) = 16^(1/3), with none of 2, 2, 16 a perfect cube
    assert _ball_sum_within(2, 2, 16, 3)
    assert not _ball_sum_within(2, 2, 15, 3)
    assert _ball_sum_within(2, 2, 17, 3)
    # 3^(1/3) + 24^(1/3) = 81^(1/3): unequal terms, both ratios rational
    assert _ball_sum_within(3, 24, 81, 3)
    assert not _ball_sum_within(3, 24, 80, 3)
    # a zero term reduces to comparing the other against C, tie included
    assert _ball_sum_within(0, 5, 5, 3) and _ball_sum_within(5, 0, 5, 3)
    assert not _ball_sum_within(6, 0, 5, 3)


def test_ball_third_boundary_points_decided():
    # (2, 2) at order 16 lies on the boundary of ball(1/3): 2 * 2^(1/3) = 16^(1/3)
    spec = ball(Fraction(1, 3))
    assert lattice_contains(spec, 2, 2, 16)
    assert not lattice_contains(spec, 2, 3, 16)
    assert lattice_contains(spec, 3, 3, 24)
    assert lattice_contains(spec, 2, 16, 54)


def test_membership_failure_names_point_region_and_order(monkeypatch):
    def undecided(A, B, C, b):
        raise ArithmeticError("membership comparison did not separate; boundary case")

    monkeypatch.setattr(domains, "_ball_sum_within", undecided)
    with pytest.raises(ArithmeticError) as info:
        lattice_contains(ball(Fraction(5, 3)), 7, -3, 12)
    message = str(info.value)
    assert "membership comparison did not separate" in message
    assert "point (7, -3)" in message and "region ball:5/3" in message and "order 12" in message


@pytest.mark.parametrize("exponent", ["1/3", "2/3", "5/3", "7/3", "7/4", "199/10"])
def test_bracket_first_membership_matches_tie_first_oracle(exponent):
    # every lattice point 0 <= v <= u <= Q, for every order up to 40 and the
    # ball:1/3 tie orders 16, 24 and 54
    p = Fraction(exponent)
    pn, pd = p.numerator, p.denominator
    orders = list(range(1, 41)) + ([54] if p == Fraction(1, 3) else [])
    for order in orders:
        C = order**pn
        for u in range(order + 1):
            A = u**pn
            for v in range(u + 1):
                B = v**pn
                want = ball_sum_within_tie_first(A, B, C, pd)
                assert _ball_sum_within(A, B, C, pd) == want, (exponent, order, u, v)


def test_octagon_vertices_on_boundary():
    for d in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)):
        spec = octagon(d)
        c = d / (1 + d)
        assert contains(spec, 1, 0)
        assert contains(spec, 0, 1)
        assert contains(spec, c, c)
        assert not contains(spec, c + Fraction(1, 10**9), c + Fraction(1, 10**9))


def test_membership_symmetry_on_random_grid():
    rng = random.Random(11)
    pts = [
        (Fraction(rng.randint(-12, 12), 11), Fraction(rng.randint(-12, 12), 11))
        for _ in range(60)
    ]
    for spec in ALL_SPECS:
        for x, y in pts:
            v = contains(spec, x, y)
            assert v == contains(spec, y, x)
            assert v == contains(spec, -x, y)
            assert v == contains(spec, x, -y)


def test_lattice_contains_matches_fraction_route():
    rng = random.Random(5)
    for spec in ALL_SPECS:
        for _ in range(120):
            q, a = rng.randint(-30, 30), rng.randint(-30, 30)
            order = rng.randint(1, 25)
            assert lattice_contains(spec, q, a, order) == contains(
                spec, Fraction(q, order), Fraction(a, order)
            )


def test_polygonal_regions_hold_one_slope():
    assert square().slope == (1, 0)
    assert diamond().slope == (1, 1)
    assert parse_domain("octagon:5/2").slope == (5, 2)
    assert octagon(Fraction(10, 4)).slope == (5, 2)
    assert ball(2).slope is None


def test_domain_validation():
    with pytest.raises(ValueError):
        octagon(0)
    with pytest.raises(ValueError):
        ball(Fraction(-1, 2))
    with pytest.raises(ValueError):
        DomainSpec("square", Fraction(1))
    with pytest.raises(ValueError):
        DomainSpec("blob")


def test_infinite_parameters_alias_square():
    assert octagon(math.inf) == square()
    assert ball(math.inf) == square()
    assert parse_domain("octagon:inf") == square()
    assert parse_domain("ball:inf") == square()


def test_float_parameters_must_be_integral():
    # Fraction(0.3) has a numerator near 5.4e15, an exponent membership would use
    with pytest.raises(ValueError):
        ball(0.3)
    with pytest.raises(ValueError):
        octagon(2.5)
    assert ball(2.0) == ball(2)
    assert octagon(3.0) == octagon(3)


def test_parse_domain_grammar():
    assert parse_domain("square") == square()
    assert parse_domain("diamond") == diamond()
    assert parse_domain("octagon:2") == octagon(2)
    assert parse_domain("octagon:1/2") == octagon(Fraction(1, 2))
    assert parse_domain("ball:2.5") == ball(Fraction(5, 2))
    with pytest.raises(ValueError):
        parse_domain("pentagon:3")


# ---------------------------------------------------------------------------
# Moment integrals
# ---------------------------------------------------------------------------


def test_diamond_moments_at_one():
    m = moment_integrals(diamond(), 1)
    assert (m.mx, m.my) == (Fraction(1, 8), Fraction(1, 24))


def test_moments_vanish_at_zero():
    for spec in ALL_SPECS:
        m = moment_integrals(spec, 0)
        assert float(m.mx) == 0 and float(m.my) == 0


def test_square_moment_closed_form():
    for i in range(0, 11):
        lam = Fraction(i, 10)
        m = moment_integrals(square(), lam)
        assert m.mx == lam / 3
        assert m.my == lam * lam / 6


def test_moments_match_quadrature():
    for spec in [square(), diamond(), octagon(Fraction(1, 2)), octagon(1), octagon(2),
                 ball(Fraction(1, 2)), ball(2), ball(3)]:
        for i in (1, 3, 5, 7, 9):
            lam = i / 10
            got = moment_integrals(spec, Fraction(i, 10) if spec.kind != "ball" else lam)
            ox, oy = quadrature_moments(spec, lam)
            assert abs(float(got.mx) - ox) < 1e-8, (spec, lam)
            assert abs(float(got.my) - oy) < 1e-8, (spec, lam)


def test_ball2_moments_at_one_vs_quadrature_tight():
    got = moment_integrals(ball(2), 1.0)
    ox, oy = quadrature_moments(ball(2), 1.0)
    assert abs(got.mx - ox) < 1e-9
    assert abs(got.my - oy) < 1e-9


def test_octagon_one_equals_diamond_exactly():
    for i in range(0, 11):
        lam = Fraction(i, 10)
        assert moment_integrals(octagon(1), lam) == moment_integrals(diamond(), lam)


def test_ball_one_equals_diamond():
    for i in range(0, 11):
        lam = i / 10
        got = moment_integrals(ball(1), lam)
        want = moment_integrals(diamond(), Fraction(i, 10))
        assert abs(got.mx - float(want.mx)) < 1e-12
        assert abs(got.my - float(want.my)) < 1e-12


def test_moment_pair_invariants():
    # 0 <= my <= lam * mx, both nondecreasing in lam
    for spec in ALL_SPECS:
        prev = (0.0, 0.0)
        for i in range(1, 11):
            lam = Fraction(i, 10) if spec.kind != "ball" else i / 10
            m = moment_integrals(spec, lam)
            mx, my = float(m.mx), float(m.my)
            assert 0 <= my <= float(lam) * mx + 1e-15
            assert mx >= prev[0] - 1e-15 and my >= prev[1] - 1e-15
            prev = (mx, my)


def test_moment_rejects_bad_slope():
    with pytest.raises(ValueError):
        moment_integrals(diamond(), Fraction(3, 2))
    with pytest.raises(ValueError):
        moment_integrals(ball(2), -0.25)


# ---------------------------------------------------------------------------
# Scale-factor asymptotes
# ---------------------------------------------------------------------------


def test_scale_factor_asymptotes():
    assert scale_factor_asymptote(square()) == pytest.approx(3 / math.pi**2, abs=1e-15)
    assert scale_factor_asymptote(diamond()) == pytest.approx(1 / math.pi**2, abs=1e-15)
    assert scale_factor_asymptote(octagon(1)) == pytest.approx(1 / math.pi**2, abs=1e-15)
    d = 2.0
    want = d * (3 * d + 1) / (math.pi**2 * (d + 1) ** 2)
    assert scale_factor_asymptote(octagon(2)) == pytest.approx(want, abs=1e-15)


def test_ball_asymptote_consistent_with_moments():
    for p in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
        spec = ball(p)
        m = moment_integrals(spec, 1.0)
        assert scale_factor_asymptote(spec) == pytest.approx(
            6 * (float(m.mx) + float(m.my)) / math.pi**2, rel=1e-12
        )
