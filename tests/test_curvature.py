import math
import random
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import islice, pairwise

import pytest

from jarnik.curvature import (
    limit_curve_radius,
    trace_lines,
    trace_svg_chunks,
)
from jarnik import curvature
from jarnik.curvature import _bounds_for, _x_by_moebius
from jarnik.domains import square
from jarnik.limit_curves import LimitCurve
from jarnik.number_theory import E_MINUS_2, INV_SQRT3, GeneratedCF, farey_neighbor_runs, moebius_array, parse_real
from jarnik.polygon import build_polygon, scale_polygon

from oracles import (
    CurvatureSample,
    circumradius_squared,
    curvature_runs,
    curvature_trace,
    farey_neighbor_scan,
    floor_scaled,
    fraction_trace_csv,
    fundamental_vertices,
    limsup_liminf_estimate,
    points_svg,
    predicted_radius,
    run_trace_lines,
    scale_factor,
    scale_ladder,
    square_scale_factor,
    x_by_moebius_terms,
)


def float_circumradius(p0, p1, p2):
    (x1, y1) = (p1[0] - p0[0], p1[1] - p0[1])
    (x2, y2) = (p2[0] - p1[0], p2[1] - p1[1])
    cross = y2 * x1 - y1 * x2
    num = (y1**2 + x1**2) * (y2**2 + x2**2) * ((y1 + y2) ** 2 + (x1 + x2) ** 2)
    return math.sqrt(num) / (2 * abs(cross))


# ---------------------------------------------------------------------------
# Circumradius
# ---------------------------------------------------------------------------


def test_circumradius_exact_values():
    assert circumradius_squared((7, 2), (9, 3), (12, 5)) == Fraction(1105, 2)
    assert circumradius_squared((4, 1), (7, 2), (9, 3)) == Fraction(725, 2)
    assert circumradius_squared((0, 0), (1, 0), (1, 1)) == Fraction(1, 2)


def test_circumradius_collinear_rejected():
    with pytest.raises(ValueError):
        circumradius_squared((0, 0), (2, 1), (4, 2))


def test_local_radius_inv_sqrt3_order_4():
    sample = curvature_trace(INV_SQRT3, 4, 4)[0]
    assert sample.r_squared == Fraction(1105, 2)
    assert (sample.q1, sample.q2) == (2, 3)


def test_local_radius_sided_order_4():
    plus = curvature_trace(Fraction(1, 2), 4, 4, side="+")[0]
    minus = curvature_trace(Fraction(1, 2), 4, 4, side="-")[0]
    assert plus.r_squared == Fraction(1105, 2)
    assert minus.r_squared == Fraction(725, 2)


def test_local_radius_matches_polygon_triple():
    # the closed form equals the circumradius of the actual vertex triple
    sample = curvature_trace(INV_SQRT3, 4, 4)[0]
    assert circumradius_squared((7, 2), (9, 3), (12, 5)) == sample.r_squared


def test_local_radius_requires_side_for_rationals():
    with pytest.raises(ValueError):
        curvature_trace(Fraction(1, 3), 10, 10)[0]
    with pytest.raises(ValueError):
        curvature_trace(INV_SQRT3, 10, 10, side="+")[0]


def test_closed_form_equals_circumradius_on_many_samples():
    specs = [
        INV_SQRT3,
        E_MINUS_2,
        parse_real("surd:(0+sqrt(2))/2"),
        parse_real("surd:(-1+sqrt(5))/2"),
        parse_real("cf:[0;(2,3)]"),
    ]
    rng = random.Random(23)
    checked = 0
    for _ in range(1000):
        spec = rng.choice(specs)
        order = rng.randint(2, 200)
        ((_, _, a1, q1, a2, q2, num, den, _),) = curvature_runs(spec, order, order)
        v = fundamental_vertices(square(), order, [spec])[0]
        before = (v[0] - q1, v[1] - a1)
        after = (v[0] + q2, v[1] + a2)
        assert circumradius_squared(before, v, after) == Fraction(num, den)
        checked += 1
    assert checked == 1000


def test_vertex_triple_lies_on_polygon():
    for order in (4, 15, 30):
        poly = build_polygon(square(), order)
        ((_, _, a1, q1, a2, q2, _, _, _),) = curvature_runs(INV_SQRT3, order, order)
        v = fundamental_vertices(square(), order, [INV_SQRT3])[0]
        idx = poly.vertices.index(v)
        assert poly.vertices[idx - 1] == (v[0] - q1, v[1] - a1)
        assert poly.vertices[idx + 1] == (v[0] + q2, v[1] + a2)


# ---------------------------------------------------------------------------
# Scale ladder
# ---------------------------------------------------------------------------


def test_scale_ladder_matches_direct_factor():
    ladder = scale_ladder(300)
    for order in (1, 4, 17, 63, 64, 65, 128, 256, 300):
        assert ladder[order] == square_scale_factor(order)
    assert ladder[4] == Fraction(51, 2)


def test_scale_ladder_crosscheck_runs():
    # the Mobius divisor identity holds at every 64th rung, not only at the top
    ladder = scale_ladder(256)
    mu = moebius_array(256).tolist()
    for order in range(64, 257, 64):
        assert ladder[order] == Fraction(3 * _x_by_moebius(order, mu), 2)
    assert ladder[256] == square_scale_factor(256)


def test_moebius_check_takes_the_int8_array_or_the_list():
    assert curvature.moebius_array is moebius_array
    mu = moebius_array(10**5)
    for order in (1, 2, 64, 1000, 10**5):
        assert _x_by_moebius(order, mu) == _x_by_moebius(order, mu.tolist()), order
    assert 3 * _x_by_moebius(10**5, mu) == 2 * scale_ladder(10**5)[10**5]


def test_moebius_check_grouped_by_quotient_is_the_sum_over_every_divisor():
    mu = moebius_array(10**6)
    for order in [*range(1, 3001), 12000, 300000, 10**6]:
        assert _x_by_moebius(order, mu) == x_by_moebius_terms(order, mu), order


def test_ladder_refuses_a_top_beyond_its_int64_bound(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(curvature, "totient_array", no_sieve)
    monkeypatch.setattr(curvature, "moebius_array", no_sieve)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_LADDER_ORDER"):
            curvature._x_ladder(2**40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    # the bound the ladder's comment derives: 6 Q^3 bounds every intermediate
    assert 6 * curvature.MAX_LADDER_ORDER**3 < 2**63


def test_ladder_at_the_cap_stays_within_20_mb():
    # the totient array, turned into the ladder in place, and the Mobius
    # check's running sum of the same length hold 16 MiB of it; a second
    # int64 array of the ladder's length, or an unsliced large-prime pass,
    # goes past 20 MiB
    tracemalloc.start()
    try:
        curvature._x_ladder(curvature.MAX_LADDER_ORDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_scale_ladder_guard_catches_a_wrong_totient(monkeypatch):
    # one wrong phi(q) far below the top still changes X(q_max, 1)
    sieve = curvature.totient_array

    def perturbed(limit, split_primes=None):
        phi = sieve(limit, split_primes)
        phi[97] += 1
        return phi

    monkeypatch.setattr(curvature, "totient_array", perturbed)
    with pytest.raises(ArithmeticError):
        scale_ladder(1000)


# ---------------------------------------------------------------------------
# Predictions and bounds
# ---------------------------------------------------------------------------


def test_predicted_radius_formula():
    lam = 1 / math.sqrt(3)
    want = 30 / 64 * math.pi**2 * (4 / 3) ** 1.5 / 6
    assert predicted_radius(4, lam, 2, 3) == pytest.approx(want, abs=1e-15)
    # q1 = q2 = Q/2 collapses to pi^2 (1+lam^2)^(3/2)/24
    assert predicted_radius(10, lam, 5, 5) == pytest.approx(
        math.pi**2 * (4 / 3) ** 1.5 / 24, abs=1e-15
    )


def test_prediction_tracks_exact_radius():
    trace = curvature_trace(INV_SQRT3, 500, 3000)
    worst = max(abs(s.r_tilde / s.predicted - 1) for s in trace)
    assert worst < 0.05


def test_limit_curve_radius_values():
    assert limit_curve_radius(0) == pytest.approx(2 / 3, abs=1e-15)
    assert limit_curve_radius(1) == pytest.approx(2 / 3 * 2**1.5, abs=1e-15)


def test_limit_curve_radius_matches_osculating_circle():
    lam, h, C = 0.5, 1e-4, LimitCurve("C")
    estimate = float_circumradius(C.point(lam - h), C.point(lam), C.point(lam + h))
    assert abs(estimate - limit_curve_radius(lam)) < 1e-6


def test_band_sits_above_limit_curve_radius():
    for i in range(0, 11):
        lam = i / 10
        bounds = _bounds_for(INV_SQRT3)  # shape factors scale identically
        assert math.pi**2 / 6 * (1 + lam * lam) ** 1.5 > limit_curve_radius(lam)
    assert bounds.band_low < bounds.band_high


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def test_trace_badly_approximable_lower_bound():
    # quotients of 1/sqrt(3) are bounded by B = 2, so the scaled radii sit
    # above (B+1)/(B+2)^2 * pi^2 (1+lam^2)^(3/2)/6, up to 10% finite-Q slack
    trace = curvature_trace(INV_SQRT3, 100, 5000)
    lam = 1 / math.sqrt(3)
    floor_bound = 3 / 16 * math.pi**2 * (1 + lam * lam) ** 1.5 / 6 * 0.9
    measured = min(s.r_tilde for s in trace)
    assert measured >= floor_bound
    assert measured == pytest.approx(0.4974503947, abs=1e-6)  # regression pin


@pytest.mark.parametrize(
    "lam, order, left, right",
    [
        (INV_SQRT3, 361, Fraction(56, 97), Fraction(153, 265)),
        (E_MINUS_2, 535, Fraction(334, 465), Fraction(51, 71)),
    ],
    ids=["inv-sqrt3", "e-2"],
)
def test_trace_minimum_agrees_with_polygon_route(lam, order, left, right):
    # the minima of the [100, 5000] traces, recomputed without the convergent
    # walk or the totient ladder: edge slopes by scanning every denominator,
    # the vertex triple by fundamental_vertex, R(Q) by the polygon route
    (sample,) = curvature_trace(lam, order, order)
    below = max(Fraction(floor_scaled(lam, q), q) for q in range(1, order + 1))
    above = min(Fraction(floor_scaled(lam, q) + 1, q) for q in range(1, order + 1))
    assert (sample.neighbors.left, sample.neighbors.right) == (below, above) == (left, right)
    # order-Q Farey fractions lie at least 1/Q^2 apart, so this slope cuts just before `below`
    before = fundamental_vertices(square(), order, [below - Fraction(1, 2 * order * order)])[0]
    vertex = fundamental_vertices(square(), order, [lam])[0]
    after = fundamental_vertices(square(), order, [above])[0]
    r_squared = circumradius_squared(before, vertex, after)
    assert sample.r_squared == r_squared
    assert sample.r_tilde == math.sqrt(r_squared) / float(scale_factor(square(), order))


def test_trace_unbounded_quotients_dip_lower():
    sqrt3_trace = curvature_trace(INV_SQRT3, 50, 5000)
    e2_trace = curvature_trace(E_MINUS_2, 50, 5000)
    assert min(s.r_tilde for s in e2_trace) < min(s.r_tilde for s in sqrt3_trace)


def test_trace_rational_side_plus_decays():
    trace = curvature_trace(Fraction(1, 2), 10, 2000, side="+")
    tail = [s.r_tilde for s in trace if s.order >= 1000]
    assert max(tail) < 0.05
    assert trace[0].lambda_spec == "rat:1/2+"
    # left endpoint stays pinned at 1/2
    assert all(s.neighbors.left == Fraction(1, 2) for s in trace)


def test_trace_rejects_slope_outside_unit_interval_before_ladder(monkeypatch):
    def no_ladder(q_max):
        raise AssertionError("ladder built for a rejected slope")

    monkeypatch.setattr(curvature, "_x_ladder", no_ladder)
    with pytest.raises(ValueError, match="quotient stream requires a value in"):
        curvature_trace(parse_real("surd:(1+sqrt(5))/2"), 2, 10**5)
    with pytest.raises(ValueError, match="must lie in"):
        curvature_trace(Fraction(3, 2), 2, 10**5, side="+")


def test_trace_validation():
    with pytest.raises(ValueError):
        curvature_trace(INV_SQRT3, 1, 10)
    with pytest.raises(ValueError):
        curvature_trace(Fraction(1, 2), 10, 20)  # missing side
    with pytest.raises(ValueError):
        curvature_trace(INV_SQRT3, 10, 20, side="+")


def test_limsup_liminf_estimate_window():
    sup, inf, bounds = limsup_liminf_estimate(INV_SQRT3, 5000)
    assert bounds.band_low < sup < bounds.band_high
    assert 0 < inf < bounds.band_low
    assert bounds.exact_limsup == pytest.approx(3.2111341654, abs=1e-6)
    assert sup <= bounds.exact_limsup + 0.01


def test_limsup_golden_tail_hits_band_floor():
    golden = parse_real("cf:[0;(1)]")
    _, _, bounds = limsup_liminf_estimate(golden, 400)
    assert bounds.exact_limsup == pytest.approx(bounds.band_low, abs=1e-9)


def test_liminf_estimate_decreases_for_e_minus_2():
    _, inf_small, _ = limsup_liminf_estimate(E_MINUS_2, 1000)
    _, inf_large, _ = limsup_liminf_estimate(E_MINUS_2, 10000)
    assert inf_large < inf_small


def test_limsup_rejects_rational():
    with pytest.raises(ValueError):
        limsup_liminf_estimate(Fraction(1, 2), 1000)


def test_scaled_radius_matches_scaled_polygon_geometry():
    order = 30
    sample = curvature_trace(INV_SQRT3, order, order)[0]
    poly = scale_polygon(build_polygon(square(), order))
    v = fundamental_vertices(square(), order, [INV_SQRT3])[0]
    rf = float(poly.scale)
    target = ((v[0] + 0.5) / rf, (v[1] - rf) / rf)
    idx = min(
        range(len(poly.vertices)),
        key=lambda i: math.dist(poly.vertices[i], target),
    )
    geom = float_circumradius(
        poly.vertices[idx - 1], poly.vertices[idx], poly.vertices[(idx + 1) % len(poly.vertices)]
    )
    assert abs(geom - sample.r_tilde) < 1e-10


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def test_trace_csv_format():
    lines = "".join(trace_lines(INV_SQRT3, 4, 8)).splitlines()
    assert lines[0] == "Q,q1,q2,r_squared_num,r_squared_den,r_tilde,predicted"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "4" and first[3] == "1105" and first[4] == "2"


TRACE_SLOPES = [
    ("surd:(-1+sqrt(5))/2", None, 2),
    ("const:e-2", None, 2),
    ("cf:[0;1,(2,3)]", None, 2),
    ("rat:2/5", "+", 5),
    ("rat:2/5", "-", 5),
    ("rat:0/1", "+", 2),
    ("rat:1/1", "-", 2),
    ("rat:3/7", "-", 7),
]


@pytest.mark.parametrize("text, side, q_min", TRACE_SLOPES)
def test_integer_rows_match_fraction_route(text, side, q_min):
    # 2/5 cannot start below order 5; it and 3/7 start where the order
    # first holds the cut point
    lam = parse_real(text)
    want = fraction_trace_csv(lam, q_min, 2000, side)
    assert "".join(trace_lines(lam, q_min, 2000, side)) == want


ORACLE_SLOPES = TRACE_SLOPES + [("rat:1/2", "+", 2), ("rat:1/2", "-", 2)]
# (q_min, q_max) pairs; (None, n) is n orders from the slope's own first order
ORACLE_RANGES = {
    # the first block ends at order q_min + _BLOCK - 1
    "block-edges": [(None, n) for n in (4095, 4096, 4097, 8192)],
    # the last orders whose r^2 numerator fits int64: 2/5- 22047, 1/1- 32767, 0/1+ 55108
    "int64-numerators": [(edge - 60, edge + d) for edge in (22048, 32768, 55109) for d in (-1, 0, 1)],
    # Q^3 < 2^53 up to Q = 208063
    "float-exact-cubes": [(208000, 208063), (208000, 208064), (208000, 208200)],
}


@pytest.mark.parametrize("ranges", list(ORACLE_RANGES))
@pytest.mark.parametrize("text, side, q_min", ORACLE_SLOPES)
def test_block_columns_match_the_run_at_a_time_trace(text, side, q_min, ranges):
    assert curvature._BLOCK == 4096
    lam = parse_real(text)
    for lo, n in ORACLE_RANGES[ranges]:
        lo, hi = (q_min, q_min + n - 1) if lo is None else (lo, n)
        assert "".join(trace_lines(lam, lo, hi, side)) == run_trace_lines(lam, lo, hi, side), (lo, hi)


@pytest.mark.parametrize("text, side, q_min", TRACE_SLOPES)
def test_neighbor_runs_expand_to_the_scanned_neighbors(text, side, q_min):
    lam = parse_real(text)
    runs = list(farey_neighbor_runs(lam, q_min, 2000, side))
    rows = [(q, *pair) for lo, hi, *pair in runs for q in range(lo, hi + 1)]
    assert rows == list(farey_neighbor_scan(lam, q_min, 2000, side))
    # each run is maximal: the next one holds another pair
    assert all(run[2:] != after[2:] for run, after in pairwise(runs))
    # and its orders are those where the pair stays consecutive
    assert all(lo >= max(q1, q2) and hi == min(2000, q1 + q2 - 1) for lo, hi, _, q1, _, q2 in runs)


@pytest.mark.parametrize("text, side", [
    ("const:inv-sqrt3", None), ("const:e-2", None), ("rat:2/5", "-"), ("rat:0/1", "+"),
])
def test_neighbor_runs_cut_at_run_ends(text, side):
    # q_min and q_max on a run end, one before it and one after it
    lam = parse_real(text)
    wide = list(farey_neighbor_runs(lam, 10, 600, side))
    pairs = {q: pair for lo, hi, *pair in wide for q in range(lo, hi + 1)}
    for end in [hi for _, hi, *_ in wide[1:-1]][-3:]:
        for q_min, q_max in ((a, b) for a in (end - 1, end, end + 1) for b in (end - 1, end, end + 1) if a <= b):
            runs = list(farey_neighbor_runs(lam, q_min, q_max, side))
            assert runs[0][0] == q_min and runs[-1][1] == q_max
            assert all(run[1] + 1 == after[0] for run, after in pairwise(runs))
            assert [(q, *pair) for lo, hi, *pair in runs for q in range(lo, hi + 1)] == [
                (q, *pairs[q]) for q in range(q_min, q_max + 1)]
            certified = curvature_runs(lam, q_min, q_max, side)
            assert [run[:6] for run in certified] == runs


def test_trace_svg_well_formed():
    svg = "".join(trace_svg_chunks(INV_SQRT3, 10, 200))
    root = ET.fromstring(svg)
    lines = root.findall("{http://www.w3.org/2000/svg}line")
    assert len(lines) == 3  # band floor, band ceiling, limit-curve radius
    assert root.find("{http://www.w3.org/2000/svg}path") is not None


def test_periodic_slope_whose_stream_raises_still_gets_bounds_and_svg():
    # the stream of cf:[0;1,(2,3)] raises past its 64th quotient, more than
    # float() and a trace to order 200 read: the bounds read no quotient
    def quotients():
        yield from islice(parse_real("cf:[0;1,(2,3)]").quotients(), 64)
        raise AssertionError("read past the 64th quotient")

    lam = GeneratedCF("cf:[0;1,(2,3)]", quotients, periodic=True)
    want = parse_real("cf:[0;1,(2,3)]")
    assert _bounds_for(lam) == _bounds_for(want)
    svg = "".join(trace_svg_chunks(lam, 2, 200))
    assert svg == "".join(trace_svg_chunks(want, 2, 200))


@pytest.mark.parametrize("text, side, q_min, q_max", [
    ("const:inv-sqrt3", None, 10, 2000),  # the band and the limit radius: three rules
    ("rat:1/2", "+", 10, 2000),  # a cut point: no rules
    ("cf:[0;1,(2,3)]", None, 2, 70000),  # more than one slice of steps
    ("const:e-2", None, 7, 7),  # one order: a lone M point
])
def test_trace_svg_chunks_are_the_point_list_svg(text, side, q_min, q_max):
    lam = parse_real(text)
    points = [(s.order, s.r_tilde) for s in curvature_trace(lam, q_min, q_max, side)]
    want = points_svg(points, None if isinstance(lam, Fraction) else _bounds_for(lam))
    assert "".join(trace_svg_chunks(lam, q_min, q_max, side)) == want


def test_sample_accessors():
    sample = curvature_trace(INV_SQRT3, 4, 4)[0]
    assert isinstance(sample, CurvatureSample)
    assert sample.r == pytest.approx(math.sqrt(1105 / 2), abs=1e-12)
    assert sample.r_tilde == pytest.approx(math.sqrt(1105 / 2) / 25.5, abs=1e-12)
