import math
from fractions import Fraction

import numpy as np
import pytest

from jarnik import analysis, textgrid
from jarnik.analysis import (
    ConvergenceRecord,
    _fold_octant,
    _nearest_d2,
    _parabola_arc_distance,
    _probe_points,
    _sorted_arc,
    check_pairing,
    convergence_csv,
    convergence_table,
    curve_distance,
    expected_curve,
)
from jarnik.domains import ball, diamond, octagon, parse_domain, square
from jarnik.limit_curves import LimitCurve, dihedral_images, parse_curve
from jarnik.polygon import build_polygon, scale_polygon

from oracles import curve_distance_oracle, lemma_check, moment_route_ratio, vertices_and_midpoints


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def test_distance_zero_for_points_on_curve():
    # a fine inscribed polygon of the unit circle sits on the ball(2) curve
    pts = tuple(
        (math.cos(2 * math.pi * k / 400), math.sin(2 * math.pi * k / 400))
        for k in range(400)
    )
    measured, slack = curve_distance(LimitCurve("Cp", Fraction(2)))(cycle_points(pts))
    assert measured + slack < 1e-3


def test_distance_exact_for_parabola_family():
    # points at known offsets from the four-arc parabolic curve
    pts = ((0.0, -1.25), (0.0, -0.75), (1.25, 0.0))
    measured, slack = curve_distance(LimitCurve("C"))(cycle_points(pts))
    assert slack == 0.0
    assert measured == pytest.approx(0.25, abs=1e-12)


def test_square_q4_distance_regression_baseline():
    (value,) = (row.bound for row in convergence_table(square(), [4], LimitCurve("C")))
    assert value == pytest.approx(0.0162934800, abs=1e-8)


def test_distance_decreases_along_geometric_ladder():
    values = [row.bound for row in convergence_table(square(), [25, 100, 400], LimitCurve("C"))]
    assert values[0] > values[1] > values[2]


def test_distance_rate_bounded():
    for row in convergence_table(square(), [50, 100, 200, 400], LimitCurve("C")):
        d, order = row.bound, row.order
        assert d * order / math.log(order) < 0.02, order


def test_distance_requires_dense_sampling():
    with pytest.raises(ValueError):
        convergence_table(square(), [4], LimitCurve("C"), samples=100)


# The folded distance must reproduce the full-image oracle bit for bit.
ORACLE_PAIRS = [
    ("square", "C"),
    ("diamond", "C1"),
    ("octagon:2", "Cdelta:2"),
    ("octagon:1/3", "Cdelta:1/3"),
    ("ball:2", "Cp:2"),
    ("ball:3", "Cp:3"),
    ("ball:5/3", "Cp:5/3"),
    ("ball:1/3", "Cp:1/3"),
    ("ball:1/2", "Cp:1/2"),
]
ORACLE_ORDERS = list(range(1, 81)) + [100, 150, 200, 300]
ORACLE_SAMPLES = (1000, 2048, 4096, 2**14)
FOLD_CURVES = ("C", "C1", "Cdelta:2", "Cdelta:1/3", "Cp:2", "Cp:3", "Cp:1/2")


def cycle_points(points):
    """The vertices and edge midpoints of the cycle through the points."""
    return vertices_and_midpoints(np.asarray(points, dtype=float))


def both_distances(curve, samples):
    """curve_distance and its oracle, functions of a point array, at each of
    the sample counts (the parabolic path takes no samples, so one count
    stands for all)."""
    counts = samples[:1] if curve.family == "C" else samples
    return [(curve_distance(curve, s), curve_distance_oracle(curve, s)) for s in counts]


@pytest.mark.parametrize("domain,curve", ORACLE_PAIRS, ids=[c for _, c in ORACLE_PAIRS])
def test_curve_distance_equals_the_full_image_oracle(domain, curve):
    # the polygon's probe set against every vertex and midpoint of its cycle
    spec, curve = parse_domain(domain), parse_curve(curve)
    pairs = both_distances(curve, ORACLE_SAMPLES)
    for order in ORACLE_ORDERS:
        poly = scale_polygon(build_polygon(spec, order))
        probe, cycle = _probe_points(poly, curve), vertices_and_midpoints(poly.xy)
        for folded, oracle in pairs:
            assert folded(probe) == oracle(cycle), order


def test_parabolic_distance_takes_its_probe_points_a_slice_at_a_time(monkeypatch):
    # the bound pass over slices of 7 points: many slices and a ragged last one
    monkeypatch.setattr(textgrid, "_SLICE", 7)
    curve = LimitCurve("C")
    for order in (3, 20, 45):
        poly = scale_polygon(build_polygon(square(), order))
        probe = _probe_points(poly, curve)
        assert len(probe) % 7
        assert curve_distance(curve)(probe) == curve_distance_oracle(curve)(vertices_and_midpoints(poly.xy))
    # the farthest point in every slice position, the last slice's included
    points = np.concatenate((np.random.default_rng(5).uniform(-0.05, 0.05, size=(31, 2)) + (0.0, -1.0), [[0.0, 0.0]]))
    want = curve_distance(curve)(points[-1:])
    for shift in range(len(points)):
        assert curve_distance(curve)(np.roll(points, shift, axis=0)) == want


@pytest.mark.parametrize("curve", FOLD_CURVES)
def test_curve_distance_confirms_asymmetric_and_mirror_points(curve):
    rng = np.random.default_rng(2024)
    scattered = rng.uniform(-1.3, 1.3, size=(400, 2))
    t = rng.uniform(-1.3, 1.3, size=60)
    zero = np.zeros_like(t)
    mirror = np.concatenate(
        [np.stack(pair, axis=1) for pair in ((zero, t), (t, zero), (t, t), (t, -t), (-zero, t), (t, -zero))]
    )
    signed_zeros = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-0.0, -1.0), (0.75, -0.0)]
    cases = [scattered, mirror, signed_zeros, scattered[:1], mirror[::7], rng.uniform(0.9, 1.1, size=(9, 2))]
    for folded, oracle in both_distances(parse_curve(curve), (1000, 4096)):
        for points in cases:
            probe = cycle_points(points)
            assert folded(probe) == oracle(probe), points


def test_quarter_sector_arc_not_the_nearest_is_confirmed():
    # On the diagonal x = y < 0 the rotated point (t, -t) can lie an ulp
    # nearer the curve than (-t, -t) does to the bottom arc, since the
    # cubic's arccos branch is not exact under the reflection x -> -x.
    t = np.linspace(0.01, 1.5, 20001)
    own, rotated = _parabola_arc_distance(-t, -t), _parabola_arc_distance(t, -t)
    loose = t[rotated < own]
    assert len(loose) > 0
    folded, oracle = both_distances(LimitCurve("C"), (1000,))[0]
    for s in loose[:: max(1, len(loose) // 12)]:
        probe = cycle_points([(-s, -s)])
        assert folded(probe) == oracle(probe)
        assert oracle(probe)[0] < _parabola_arc_distance(np.array([-s]), np.array([-s]))[0]


@pytest.mark.parametrize("curve", ["C1", "Cp:2", "Cp:3"])
def test_octant_arc_not_the_nearest_is_confirmed(curve):
    # Next to the diagonal, a mirrored sample can come out an ulp nearer to
    # a folded point than every sample of its own octant.
    from scipy.spatial import cKDTree

    arc = parse_curve(curve).points(np.linspace(0.0, 1.0, 1000))
    octant = np.stack((np.minimum(*np.abs(arc).T), -np.maximum(*np.abs(arc).T)), axis=1)
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 1.2, 20_000)
    points = np.stack((t, -t - rng.uniform(0.0, 1e-3, t.size) * rng.choice([1.0, 1e-6, 1e-12], t.size)), axis=1)
    own, _ = cKDTree(octant).query(points)
    every, _ = cKDTree(dihedral_images(arc).reshape(-1, 2)).query(points)
    loose = points[own > every]
    assert len(loose) > 0
    folded, oracle = both_distances(parse_curve(curve), (1000,))[0]
    for point in loose[:12]:
        probe = cycle_points([point])
        assert folded(probe) == oracle(probe)
        assert oracle(probe)[0] < cKDTree(octant).query(point)[0]


def brute_nearest_d2(arc, points, best):
    """min(best, (x - px)**2 + (y - py)**2 over every sample), a block of
    points at a time."""
    xs, ys = arc
    out = best.copy()
    step = max(1, 2**21 // len(xs))
    for start in range(0, len(points), step):
        px, py = points[start : start + step, :1], points[start : start + step, 1:]
        dx, dy = xs - px, ys - py
        out[start : start + step] = np.minimum(out[start : start + step], (dx * dx + dy * dy).min(axis=1))
    return out


def search_cases(arc, rng, count):
    """Query points for an arc: near it, far from it, beyond either end of
    its xs, at a sample's x exactly, and at signed zeros."""
    xs, ys = arc
    k = rng.integers(0, len(xs), count)
    near = np.stack((xs[k], ys[k]), axis=1) + rng.normal(0.0, 1e-4, (count, 2)) * rng.choice([1.0, 1e-3, 0.0], (count, 1))
    far = rng.uniform(-2.0, 2.0, (count, 2))
    left = np.stack((xs[0] - rng.uniform(0.0, 0.5, count), rng.uniform(-1.5, 0.5, count)), axis=1)
    right = np.stack((xs[-1] + rng.uniform(0.0, 0.5, count), rng.uniform(-1.5, 0.5, count)), axis=1)
    on_x = np.stack((xs[k], ys[k] + rng.uniform(-0.1, 0.1, count)), axis=1)
    zeros = np.array([(0.0, -1.0), (-0.0, -1.0), (0.0, 0.0), (-0.0, -0.0), (xs[0], ys[0]), (xs[-1], ys[-1])])
    return [near, far, left, right, on_x, zeros]


def test_nearest_search_equals_brute_force_on_a_1000_sample_arc():
    rng = np.random.default_rng(11)
    arc = _sorted_arc(_fold_octant(parse_curve("Cp:3").points(np.linspace(0.0, 1.0, 1000))))
    for points in search_cases(arc, rng, 300):
        unseeded = np.full(len(points), np.inf)
        assert np.array_equal(_nearest_d2(arc, points, unseeded.copy()), brute_nearest_d2(arc, points, unseeded))
        # a running minimum: some seeds below the true minimum, some above
        seed = brute_nearest_d2(arc, points, unseeded) * rng.choice([0.5, 1.0, 2.0], len(points))
        found = _nearest_d2(arc, points, seed.copy())
        assert np.array_equal(found, brute_nearest_d2(arc, points, seed))


def test_nearest_search_with_duplicate_sample_xs():
    rng = np.random.default_rng(12)
    xs = np.repeat(np.round(rng.uniform(0.0, 0.7, 400), 2), 3)
    ys = rng.uniform(-1.2, -0.5, xs.size)
    arc = _sorted_arc(np.stack((xs, ys), axis=1))
    assert len(np.unique(arc[0])) < len(arc[0]) // 3
    for points in search_cases(arc, rng, 300):
        best = np.full(len(points), np.inf)
        assert np.array_equal(_nearest_d2(arc, points, best.copy()), brute_nearest_d2(arc, points, best))


def test_nearest_search_finds_a_lone_sample_just_past_a_window():
    # Every sample is a wall at height D but one, the hole, level with the
    # queries: with D just above the hole's x distance, the hole is the
    # nearest sample, and it sits right at the edge of some window.
    n, h = 160, 2.0**-10
    xs = np.arange(n) * h
    px = np.concatenate((xs - h / 4, xs + h / 4, [xs[-1] + h, xs[0] - h]))
    points = np.stack((px, np.zeros_like(px)), axis=1)
    best = np.full(len(points), np.inf)
    for hole in (0, 1, n // 2, n - 2, n - 1):
        for k in range(66):
            for f in (0.2, 0.5, 0.8):
                ys = np.full(n, (k + f) * h)
                ys[hole] = 0.0
                arc = (xs, ys)
                expected = brute_nearest_d2(arc, points, best)
                assert np.array_equal(_nearest_d2(arc, points, best.copy()), expected), (hole, k, f)


def test_nearest_search_takes_more_points_than_one_slice():
    rng = np.random.default_rng(13)
    arc = _sorted_arc(_fold_octant(parse_curve("C1").points(np.linspace(0.0, 1.0, 1000))))
    count = 2 * analysis._WINDOW_ELEMENTS // (2 * analysis._FIRST_WIDTH) + 17
    points = np.concatenate(search_cases(arc, rng, count // 4))[:count]
    assert len(points) == count
    best = np.full(count, np.inf)
    assert np.array_equal(_nearest_d2(arc, points, best.copy()), brute_nearest_d2(arc, points, best))


def test_nearest_search_equals_brute_force_on_a_2_20_sample_arc(monkeypatch):
    rng = np.random.default_rng(14)
    arc = _sorted_arc(_fold_octant(parse_curve("C1").points(np.linspace(0.0, 1.0, 2**20))))
    points = np.concatenate(search_cases(arc, rng, 6))
    best = np.full(len(points), np.inf)
    expected = brute_nearest_d2(arc, points, best)
    assert np.array_equal(_nearest_d2(arc, points, best.copy()), expected)
    # rings capped far below the arc's length
    monkeypatch.setattr(analysis, "_WINDOW_ELEMENTS", 2**12)
    assert np.array_equal(_nearest_d2(arc, points, best.copy()), expected)


# ---------------------------------------------------------------------------
# Convergence tables
# ---------------------------------------------------------------------------


def test_pairing_accepts_proved_matches():
    check_pairing(square(), LimitCurve("C"))
    check_pairing(diamond(), LimitCurve("C1"))
    check_pairing(octagon(2), LimitCurve("Cdelta", Fraction(2)))
    check_pairing(ball(2), LimitCurve("Cp", Fraction(2)))
    # the diamond curve under its equivalent names
    check_pairing(octagon(1), LimitCurve("C1"))
    check_pairing(diamond(), LimitCurve("Cdelta", Fraction(1)))
    check_pairing(ball(1), LimitCurve("C1"))


def test_pairing_rejects_mismatches():
    with pytest.raises(ValueError):
        check_pairing(diamond(), LimitCurve("C"))
    with pytest.raises(ValueError):
        check_pairing(square(), LimitCurve("C1"))
    with pytest.raises(ValueError):
        check_pairing(octagon(2), LimitCurve("Cdelta", Fraction(3)))


def test_expected_curve_map():
    assert expected_curve(square()) == LimitCurve("C")
    assert expected_curve(diamond()) == LimitCurve("C1")
    assert expected_curve(ball(Fraction(1, 2))) == LimitCurve("Cp", Fraction(1, 2))


def test_octagon_one_table_equals_diamond_table():
    orders = [20, 60]
    a = convergence_table(diamond(), orders, LimitCurve("C1"), samples=4096)
    b = convergence_table(octagon(1), orders, LimitCurve("C1"), samples=4096)
    assert [r.sup_distance for r in a] == [r.sup_distance for r in b]
    assert [r.bound for r in a] == [r.bound for r in b]


def test_convergence_table_sorted_and_parallel_deterministic():
    orders = [40, 10, 20]
    seq = convergence_table(diamond(), orders, LimitCurve("C1"), samples=4096)
    assert [r.order for r in seq] == [10, 20, 40]


def test_convergence_csv_format():
    records = [ConvergenceRecord("diamond", 10, "C1", 0.5, 0.625)]
    text = convergence_csv(records)
    assert text.splitlines()[0] == "domain,Q,curve,sup_distance,bound"
    assert text.splitlines()[1] == "diamond,10,C1,0.5,0.625"


# ---------------------------------------------------------------------------
# Vertex-sum asymptotics
# ---------------------------------------------------------------------------


def test_lemma_check_main_term_at_1000():
    report = lemma_check([1000], [Fraction(1)])
    row = report.rows[0]
    assert abs(row.x_exact * math.pi**2 / (2 * 1000**3) - 1) < 0.01
    assert abs(row.y_exact * math.pi**2 / 1000**3 - 1) < 0.01


def test_lemma_normalized_errors_bounded_across_orders():
    report = lemma_check(
        [250, 500, 1000, 2000], [Fraction(i, 10) for i in range(1, 11)]
    )
    assert report.max_x_error < 0.6
    assert report.max_y_error < 0.6


def test_lemma_check_validation():
    with pytest.raises(ValueError):
        lemma_check([], [Fraction(1, 2)])
    with pytest.raises(ValueError):
        lemma_check([100], [Fraction(0)])
    with pytest.raises(ValueError):
        lemma_check([1, 100], [Fraction(1, 2)])


def test_lemma_report_renders():
    report = lemma_check([100], [Fraction(1, 2)])
    text = report.render()
    assert text.startswith("Q,lambda,X,Y,")
    assert "max_x_error" in text


def test_moment_route_agrees_with_lattice_sums():
    # integral route and direct summation route agree to ~10 log Q / Q
    order = 1000
    tolerance = 10 * math.log(order) / order
    for spec in (diamond(), octagon(2), ball(2)):
        for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            rx, ry = moment_route_ratio(spec, order, lam)
            assert abs(rx - 1) <= tolerance, (spec, lam, rx)
            assert abs(ry - 1) <= tolerance, (spec, lam, ry)
