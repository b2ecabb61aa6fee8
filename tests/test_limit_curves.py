import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jarnik import limit_curves
from jarnik.cli import run
from jarnik.limit_curves import (
    LimitCurve,
    curve_csv_chunks,
    curve_svg_chunks,
    parse_curve,
)
from scipy.special import betainc
import oracles
from oracles import (
    CP_HALF_QUINTIC,
    curve_Cp_alternate_y,
    curve_Cp_exact,
    curve_Cp_mpmath,
    dihedral_images,
    implicit_residual,
    lentz_reg_inc_beta,
    rotate_scale_C,
    scalar_arc_point,
)

GRID = [i / 1000 for i in range(1001)]
C, C1 = LimitCurve("C"), LimitCurve("C1")


# ---------------------------------------------------------------------------
# The regularized incomplete beta I_z(a, b), as the Cp arc calls it:
# scipy.special.betainc(a, b, z)
# ---------------------------------------------------------------------------


def test_reg_inc_beta_endpoints():
    assert betainc(2.5, 0.5, 0.0) == 0.0
    assert betainc(2.5, 0.5, 1.0) == 1.0
    assert betainc(1, 1, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_reg_inc_beta_frozen_quadrature_value():
    # integral of t(1-t)^2 over [0, 0.3] equals 1161/40000 and B(2,3) = 1/12,
    # so I_0.3(2,3) = 0.3483 exactly
    assert betainc(2, 3, 0.3) == pytest.approx(0.3483, abs=1e-12)


def test_reg_inc_beta_against_mpmath():
    import mpmath

    cases = [
        (0.125, 0.5, 3.0), (0.9, 0.25, 1.5), (0.42, 2.0, 2.0),
        (0.77, 4.0, 0.5), (0.5, 8.0, 0.125), (0.03, 0.4, 0.4),
    ]
    for z, a, b in cases:
        want = float(mpmath.betainc(a, b, 0, z, regularized=True))
        assert betainc(a, b, z) == pytest.approx(want, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    z=st.floats(0.001, 0.999),
    a=st.floats(0.05, 10.0),
    b=st.floats(0.05, 10.0),
)
def test_reg_inc_beta_reflection_identity(z, a, b):
    total = betainc(a, b, z) + betainc(b, a, 1.0 - z)
    assert abs(total - 1.0) < 1e-12


def test_reg_inc_beta_monotone_in_z():
    values = [betainc(0.5, 2.5, z) for z in GRID[::10]]
    assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Parametric arcs
# ---------------------------------------------------------------------------


def test_curve_C_examples():
    assert C.point(0) == (0.0, -1.0)
    x, y = C.point(1)
    assert (x, y) == pytest.approx((2 / 3, -2 / 3), abs=1e-15)
    x, y = C.point(0.5)
    assert abs(y - (0.75 * x * x - 1)) < 1e-15


def test_curve_C1_examples():
    assert C1.point(0) == (0.0, -1.0)
    assert C1.point(1) == pytest.approx((0.75, -0.75), abs=1e-15)
    x, y = C1.point(0.37)
    assert abs(math.sqrt(1 - abs(x)) + math.sqrt(1 - abs(y)) - 1) < 1e-12


def test_curve_C1_identity_on_grid():
    curve = LimitCurve("C1")
    worst = max(abs(implicit_residual(curve, *curve.point(l))) for l in GRID)
    assert worst < 1e-12


def test_curve_Cdelta_reduces_to_C1_at_delta_1():
    # one wedge formula: the diamond's slope (1, 1) is the octagon's at d = 1
    got, want = LimitCurve("Cdelta", 1).points(GRID), C1.points(GRID)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_curve_Cdelta_tends_to_C():
    for lam in GRID[::50]:
        got = LimitCurve("Cdelta", 1e6).point(lam)
        want = C.point(lam)
        assert got == pytest.approx(want, abs=1e-5)


def test_curve_Cdelta_arc_end():
    x, y = LimitCurve("Cdelta", 2).point(1)
    assert (x, y) == pytest.approx((5 / 7, -5 / 7), abs=1e-15)


def test_curve_Cdelta_residual_on_grid():
    for d in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
        curve = LimitCurve("Cdelta", d)
        worst = max(abs(implicit_residual(curve, *curve.point(l))) for l in GRID)
        assert worst < 1e-12, d


def test_curve_Cdelta_rejects_degenerate():
    with pytest.raises(ValueError):
        LimitCurve("Cdelta", 0).point(0.5)
    with pytest.raises(ValueError):
        LimitCurve("Cdelta", -1).point(0.5)


def test_curve_Cp_unit_circle():
    for lam in GRID[::20]:
        x, y = LimitCurve("Cp", 2).point(lam)
        denom = math.sqrt(1 + lam * lam)
        assert (x, y) == pytest.approx((lam / denom, -1 / denom), abs=1e-9)


def test_curve_Cp_reduces_to_C1_at_p_1():
    for lam in GRID[::20]:
        assert LimitCurve("Cp", 1).point(lam) == pytest.approx(C1.point(lam), abs=1e-12)


def test_curve_Cp_half_quintic_residual():
    curve = LimitCurve("Cp", Fraction(1, 2))
    worst = max(implicit_residual(curve, *curve.point(l)) for l in GRID)
    assert worst < 1e-6


def test_curve_Cp_third_quintic_none():
    assert implicit_residual(LimitCurve("Cp", Fraction(1, 3)), 0.1, -0.9) is None


def test_quintic_vanishes_exactly_on_rational_parametrization():
    for i in range(11):
        t = Fraction(i, 10)
        x, y = curve_Cp_exact(2, t)
        value = sum(c * x**i_ * y**j for (i_, j), c in CP_HALF_QUINTIC.items())
        assert value == 0


def test_curve_Cp_exact_matches_float_path():
    for m in (1, 2, 3):
        for i in range(0, 11):
            t = Fraction(i, 10)
            xe, ye = curve_Cp_exact(m, t)
            xf, yf = LimitCurve("Cp", 1 / m).point(float(t) ** m)
            assert abs(float(xe) - xf) < 1e-12
            assert abs(float(ye) - yf) < 1e-12


def test_curve_Cp_alternate_y_agreement():
    for p in (0.5, 1.0, 1.5, 2.0, 3.0):
        for lam in GRID[::10]:
            assert abs(LimitCurve("Cp", p).point(lam)[1] - curve_Cp_alternate_y(p, lam)) < 1e-9


def test_curve_Cp_alternate_y_examples():
    assert curve_Cp_alternate_y(1, 0.5) == pytest.approx(-8 / 9, abs=1e-13)
    assert curve_Cp_alternate_y(1, 0) == -1.0
    assert curve_Cp_alternate_y(2, 1) == pytest.approx(-1 / math.sqrt(2), abs=1e-9)


def test_curve_Cp_rejects_degenerate():
    with pytest.raises(ValueError):
        LimitCurve("Cp", 0).point(0.5)
    with pytest.raises(ValueError):
        LimitCurve("Cp", -2).point(0.5)


def test_arcs_start_at_south_pole_and_are_monotone():
    curves = [
        LimitCurve("C"),
        LimitCurve("C1"),
        LimitCurve("Cdelta", Fraction(1, 2)),
        LimitCurve("Cdelta", Fraction(3)),
        LimitCurve("Cp", Fraction(1, 2)),
        LimitCurve("Cp", Fraction(2)),
    ]
    for curve in curves:
        assert curve.point(0) == pytest.approx((0.0, -1.0), abs=1e-12)
        ex, ey = curve.point(1.0)
        assert ex == pytest.approx(-ey, abs=1e-12)  # arc ends on the diagonal
        pts = [curve.point(l) for l in GRID[::10]]
        assert all(b[0] > a[0] and b[1] > a[1] for a, b in zip(pts, pts[1:])), curve


def test_arc_parameter_validated():
    with pytest.raises(ValueError):
        C.point(1.001)
    with pytest.raises(ValueError):
        LimitCurve("Cp", 2).point(-0.2)


def test_endpoint_tangent_symmetric_at_diagonal():
    # the arc meets its mirror image across y = -x smoothly: dx = dy at lam=1
    h = 1e-6
    for fn in (C.point, C1.point):
        x1, y1 = fn(1 - h)
        x2, y2 = fn(1)
        dx, dy = (x2 - x1) / h, (y2 - y1) / h
        assert abs(dx - dy) < 1e-5
        assert math.isfinite(dx) and math.isfinite(dy)


# ---------------------------------------------------------------------------
# Rotation onto the diamond curve
# ---------------------------------------------------------------------------


def test_rotate_scale_C_onto_C1():
    c1 = LimitCurve("C1")
    worst = max(abs(implicit_residual(c1, *rotate_scale_C(C.point(l)))) for l in GRID)
    assert worst < 1e-12


def test_rotate_scale_C_examples():
    assert rotate_scale_C((0, -1)) == pytest.approx((0.75, -0.75), abs=1e-15)
    assert rotate_scale_C((2 / 3, -2 / 3)) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert rotate_scale_C((0, 0)) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# Curve objects, parsing, export
# ---------------------------------------------------------------------------


def test_limit_curve_validation():
    with pytest.raises(ValueError):
        LimitCurve("C", Fraction(2))
    with pytest.raises(ValueError):
        LimitCurve("Cdelta")
    with pytest.raises(ValueError):
        LimitCurve("Cp", Fraction(-1))
    with pytest.raises(ValueError):
        LimitCurve("X")


def test_parse_curve():
    assert parse_curve("C") == LimitCurve("C")
    assert parse_curve("C1") == LimitCurve("C1")
    assert parse_curve("Cdelta:2") == LimitCurve("Cdelta", Fraction(2))
    assert parse_curve("Cp:1/2") == LimitCurve("Cp", Fraction(1, 2))
    assert parse_curve("Cp:2.5") == LimitCurve("Cp", Fraction(5, 2))
    with pytest.raises(ValueError):
        parse_curve("Cq:2")
    with pytest.raises(ValueError):
        parse_curve("Cp:0")


def test_sample_arc_and_csv():
    curve = LimitCurve("Cp", Fraction(2))
    text = "".join(curve_csv_chunks(curve, 100))
    lines = text.splitlines()
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 100
    assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
    assert lines[0] == "lambda,x,y"
    assert len(lines) == 101


def test_dihedral_images_count():
    images = dihedral_images([(0.25, -0.75)])
    assert len(images) == 8
    assert len({img[0] for img in images}) == 8


def test_curve_svg_well_formed():
    root = ET.fromstring("".join(curve_svg_chunks(LimitCurve("C1"), 64)))
    path = root.find("{http://www.w3.org/2000/svg}path")
    assert path is not None
    assert path.get("d").count("M ") == 8  # one subpath per dihedral image


# Cp:200's lam^p underflows below lam = 2^-5.11, where ball_wedge's hyp2f1
# series is its n = 0 term.
@pytest.mark.parametrize("curve", ["C", "C1", "Cdelta:2", "Cp:1/2", "Cp:3", "Cp:200"])
@pytest.mark.parametrize("samples", [2, 3, 1001])
def test_curve_svg_matches_the_per_image_oracle(curve, samples):
    c = parse_curve(curve)
    assert "".join(curve_svg_chunks(c, samples)) == oracles.curve_svg(c, samples)


# signed zeros, negatives, and values that {:.6f} rounds to -0.000000,
# 0.000000 or 1.000000: no arc of the four families has them all
MIXED_SIGNS = np.array([-0.0, 0.0, -1e-9, 4e-7, -4e-7, -0.0833, 0.25, -1.0416, -0.9999996, 1.0])


@pytest.mark.parametrize("samples", [2, 3, 1001])
def test_curve_svg_matches_the_per_image_oracle_on_an_arc_that_mixes_signs(monkeypatch, samples):
    def mixed(self, lams):
        n = len(lams)
        return np.column_stack((np.resize(MIXED_SIGNS, n), np.resize(MIXED_SIGNS[::-1], n)))

    monkeypatch.setattr(LimitCurve, "points", mixed)
    text = "".join(curve_svg_chunks(C, samples))
    assert text == oracles.curve_svg(C, samples)
    assert "-0.000000" in text and "--" not in text


@pytest.mark.parametrize("curve", ["C", "C1", "Cdelta:2", "Cp:3"])
@pytest.mark.parametrize("samples", [2, 3, 1001, 65537])
def test_curve_csv_matches_the_per_row_oracle(curve, samples):
    c = parse_curve(curve)
    assert "".join(curve_csv_chunks(c, samples)) == oracles.curve_csv(c, samples)


def test_curve_csv_streams_blocks_of_rows(monkeypatch):
    c = parse_curve("Cp:3")
    monkeypatch.setattr(limit_curves, "_CSV_BLOCK_ROWS", 7)
    chunks = list(curve_csv_chunks(c, 30))
    assert chunks[0] == "lambda,x,y\n"
    assert [chunk.count("\n") for chunk in chunks[1:]] == [7, 7, 7, 7, 2]
    assert "".join(chunks) == oracles.curve_csv(c, 30)


# ---------------------------------------------------------------------------
# Vectorised arcs against the scalar oracle
# ---------------------------------------------------------------------------

ORACLE_CURVES = [
    LimitCurve("C"),
    LimitCurve("C1"),
    LimitCurve("Cdelta", Fraction(2)),
    LimitCurve("Cdelta", Fraction(1, 3)),
    LimitCurve("Cp", Fraction(2)),
    LimitCurve("Cp", Fraction(3)),
    LimitCurve("Cp", Fraction(5, 3)),
]


@pytest.mark.parametrize("curve", ORACLE_CURVES, ids=str)
def test_points_match_scalar_oracle(curve):
    lams = np.linspace(0.0, 1.0, 2**14)
    param = None if curve.param is None else float(curve.param)
    want = np.array([scalar_arc_point(curve.family, param, lam) for lam in lams.tolist()])
    got = curve.points(lams)
    assert got.shape == (2**14, 2)
    assert np.abs(got - want).max() <= 4e-15


@pytest.mark.parametrize("curve", ORACLE_CURVES, ids=str)
def test_points_of_one_parameter_is_point(curve):
    for lam in (0.0, 1e-9, 0.25, 1 / 3, 0.5, 0.999, 1.0):
        assert tuple(curve.points([lam])[0].tolist()) == curve.point(lam)


@pytest.mark.parametrize("curve", ORACLE_CURVES, ids=str)
def test_points_reject_parameters_outside_unit_interval(curve):
    for bad in (1.0 + 1e-12, -1e-300, -0.5, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            curve.points([0.5, bad])
        with pytest.raises(ValueError):
            curve.point(bad)


# ---------------------------------------------------------------------------
# The Cp arc against the 40-digit oracle, where lam^p underflows too
# ---------------------------------------------------------------------------

# betainc serves p <= 1/2 and hyp2f1 p > 1/2: exponents on both sides of the cut
MPMATH_EXPONENTS = [Fraction(1, 389), Fraction(1, 3), Fraction(1, 2), Fraction(51, 100), Fraction(2, 3),
                    Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(3), Fraction(20),
                    Fraction(54), Fraction(77), Fraction(120), Fraction(200), Fraction(10**5)]
# lam = 0, the first step of the 256-, 2^14- and 2^20-sample grids, and 33 uniform slopes
MPMATH_SLOPES = [0.0, 1 / 255, 1 / 16383, 1 / (2**20 - 1)] + [i / 32 for i in range(33)]


@pytest.mark.parametrize("p", MPMATH_EXPONENTS, ids=str)
def test_cp_arc_matches_mpmath(p):
    got = LimitCurve("Cp", p).points(MPMATH_SLOPES)
    want = np.array([curve_Cp_mpmath(p, lam) for lam in MPMATH_SLOPES])
    assert np.abs(got - want).max() <= 4e-15


def test_converge_to_cp_200_falls_with_the_order(capsys):
    code = run(["converge", "--domain", "ball:200", "--curve", "Cp:200", "--q-list", "50,200,800"])
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    sup = [float(row[3]) for row in rows]
    assert code == 0 and len(sup) == 3
    assert sup[0] > sup[1] > sup[2]
    assert all(float(row[3]) <= float(row[4]) for row in rows)


def test_cp_100000_arc_runs_right_from_the_south_pole(capsys):
    code = run(["limit-curve", "--curve", "Cp:100000", "--samples", "5"])
    xs = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert code == 0 and xs[0] == 0.0
    assert 0 < xs[1] < xs[2] < xs[3] < xs[4]


def test_reg_inc_beta_agrees_with_continued_fraction_oracle():
    for a, b in ((0.5, 3.0), (1 / 3, 1 + 2 / 3), (2 / 3, 1 + 1 / 3), (0.6, 2.2), (4.0, 0.5)):
        for z in GRID[::50]:
            assert abs(betainc(a, b, z) - lentz_reg_inc_beta(z, a, b)) < 1e-14


def test_dihedral_images_match_oracle():
    arc = LimitCurve("Cp", Fraction(5, 3)).points(np.linspace(0.0, 1.0, 257))
    got = limit_curves.dihedral_images(arc)
    want = np.array(dihedral_images(arc.tolist()))
    assert got.shape == (8, 257, 2)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 where the oracle has it
