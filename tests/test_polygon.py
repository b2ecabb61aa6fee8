import hashlib
import math
import random
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from jarnik.domains import ball, diamond, octagon, parse_domain, square
from jarnik.number_theory import INV_SQRT3
from jarnik.polygon import (
    PrimitiveVector,
    ScaledPolygon,
    build_polygon,
    polygon_csv_chunks,
    polygon_svg_chunks,
    scale_polygon,
)

import jarnik.polygon as polygon_module
from jarnik import textgrid
import oracles
from oracles import contains, farey_sequence, fundamental_vertices, is_convex, scale_factor, sort_ccw

V4_FUNDAMENTAL = [
    PrimitiveVector(1, 0),
    PrimitiveVector(4, 1),
    PrimitiveVector(3, 1),
    PrimitiveVector(2, 1),
    PrimitiveVector(3, 2),
    PrimitiveVector(4, 3),
    PrimitiveVector(1, 1),
]

P4_RUN = [
    (-1, 0), (0, 0), (4, 1), (7, 2), (9, 3), (12, 5), (16, 8), (17, 9),
    (20, 13), (22, 16), (23, 18), (24, 21), (25, 25), (25, 26), (24, 30),
]


# ---------------------------------------------------------------------------
# Vector sets
# ---------------------------------------------------------------------------


def test_v4_has_48_vectors():
    assert len(build_polygon(square(), 4).edges()) == 48


def test_v4_fundamental_slice_order():
    vecs = [v for v in build_polygon(square(), 4).edges() if 0 <= v.a <= v.q]
    assert sort_ccw(vecs) == V4_FUNDAMENTAL


def test_fundamental_slopes_are_farey_fractions():
    # slopes a/q of the fundamental-arc vectors enumerate the Farey sequence
    for order in (3, 7, 20):
        vecs = sort_ccw([v for v in build_polygon(square(), order).edges() if 0 <= v.a <= v.q])
        slopes = [Fraction(v.a, v.q) for v in vecs]
        assert slopes == farey_sequence(order)


def test_primitive_vectors_diamond_vs_brute_force():
    got = set(build_polygon(diamond(), 100).edges())
    brute = set()
    for q in range(-100, 101):
        for a in range(-100, 101):
            if (q or a) and math.gcd(q, a) == 1 and abs(q) + abs(a) <= 100:
                brute.add(PrimitiveVector(q, a))
    assert got == brute


def test_primitive_vectors_respect_membership():
    rng = random.Random(3)
    for spec in (octagon(2), ball(Fraction(3, 2))):
        got = set(build_polygon(spec, 40).edges())
        for _ in range(300):
            q, a = rng.randint(-40, 40), rng.randint(-40, 40)
            if (q or a) and math.gcd(q, a) == 1:
                inside = contains(spec, Fraction(q, 40), Fraction(a, 40))
                assert (PrimitiveVector(q, a) in got) == inside


def test_primitive_vectors_closed_under_dihedral_maps():
    for spec in (square(), diamond(), octagon(2), ball(3)):
        vs = set(build_polygon(spec, 12).edges())
        for q, a in vs:
            assert PrimitiveVector(-q, a) in vs
            assert PrimitiveVector(a, q) in vs
            assert PrimitiveVector(-a, -q) in vs


# ---------------------------------------------------------------------------
# Counterclockwise ordering
# ---------------------------------------------------------------------------


def test_sort_ccw_axes():
    got = sort_ccw([PrimitiveVector(0, 1), PrimitiveVector(1, 0),
                    PrimitiveVector(-1, 0), PrimitiveVector(0, -1)])
    assert got == [PrimitiveVector(1, 0), PrimitiveVector(0, 1),
                   PrimitiveVector(-1, 0), PrimitiveVector(0, -1)]


def test_sort_ccw_matches_high_precision_angles():
    import mpmath

    rng = random.Random(17)
    vecs = set()
    while len(vecs) < 300:
        q, a = rng.randint(-60, 60), rng.randint(-60, 60)
        if (q or a) and math.gcd(q, a) == 1:
            vecs.add(PrimitiveVector(q, a))
    ordered = sort_ccw(sorted(vecs))
    with mpmath.workdps(50):
        angles = [mpmath.atan2(v.a, v.q) % (2 * mpmath.pi) for v in ordered]
    assert all(a1 < a2 for a1, a2 in zip(angles, angles[1:]))


def test_sort_ccw_rejects_duplicate_direction():
    with pytest.raises(ValueError):
        sort_ccw([PrimitiveVector(1, 1), PrimitiveVector(2, 2)])


# ---------------------------------------------------------------------------
# Polygon construction
# ---------------------------------------------------------------------------


def test_p4_vertex_run():
    poly = build_polygon(square(), 4)
    run = [poly.vertices[-1]] + list(poly.vertices[:14])
    assert run == P4_RUN


def test_diamond_octagon_one_and_ball_one_build_the_same_polygon():
    for order in range(1, 41):
        want = build_polygon(diamond(), order).vertices
        assert build_polygon(octagon(1), order).vertices == want
        assert build_polygon(ball(1), order).vertices == want


def test_order_1_octagon():
    poly = build_polygon(square(), 1)
    want = [PrimitiveVector(*v) for v in
            ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))]
    assert poly.edges() == want


@pytest.mark.parametrize("spec", [square(), diamond(), octagon(2), ball(3)])
@pytest.mark.parametrize("order", [1, 2, 3, 5, 10, 25, 50])
def test_closure_and_convexity(spec, order):
    poly = build_polygon(spec, order)
    es = poly.edges()
    assert sum(e.q for e in es) == 0 and sum(e.a for e in es) == 0
    assert is_convex(poly)


@pytest.mark.parametrize("spec", [square(), diamond(), octagon(2), ball(2)])
def test_lattice_polygon_eightfold_symmetry(spec):
    # vertex set invariant under the dihedral maps about the center
    # (-1/2, R); checked in doubled integer coordinates
    poly = build_polygon(spec, 20)
    r2 = 2 * scale_factor(spec, 20)  # integer: 2R
    assert r2.denominator == 1
    cx2, cy2 = -1, int(r2)
    doubled = {(2 * x - cx2, 2 * y - cy2) for x, y in poly.vertices}
    for mapped in (
        {(-u, v) for u, v in doubled},
        {(v, u) for u, v in doubled},
        {(-v, u) for u, v in doubled},
        {(-u, -v) for u, v in doubled},
    ):
        assert mapped == doubled


ORACLE_ORDERS = list(range(1, 41)) + [70, 100]
ORACLE_SLOPES = [Fraction(1, 3), Fraction(1, 2), 1, INV_SQRT3]


@pytest.mark.parametrize(
    "domain",
    ["square", "diamond", "octagon:2", "octagon:1/3", "ball:2", "ball:5/3", "ball:3",
     "ball:1/2", "ball:1/3"],
)
def test_farey_walk_matches_enumeration_oracle(domain):
    # exact agreement with the gcd enumeration and the Fraction-key sort
    spec = parse_domain(domain)
    for order in ORACLE_ORDERS:
        vectors = oracles.primitive_vectors(spec, order)
        if (domain == "diamond" and order == 1) or (domain == "ball:1/3" and order <= 7):
            # (1, 1) lies outside, and with it the whole fundamental arc
            assert PrimitiveVector(1, 1) not in vectors and len(vectors) == 4
        poly = build_polygon(spec, order)
        oracle = oracles.polygon_from_vectors(spec, order, vectors)
        assert poly == oracle
        assert Counter(poly.edges()) == Counter(vectors)
        ys = [y for _, y in oracle.vertices]
        r = Fraction(max(ys) - min(ys), 2)  # half the height
        assert scale_factor(spec, order) == r
        assert scale_polygon(poly).scale == r
        for lam in ORACLE_SLOPES:
            assert fundamental_vertices(spec, order, [lam])[0] == oracles.vertex_from_vectors(vectors, lam)


def _swap_two_ranks(monkeypatch):
    # argsort that puts the fourth and fifth fractions the wrong way round
    sort = np.argsort

    def misordered(keys, *args, **kwargs):
        ranks = sort(keys, *args, **kwargs)
        ranks[[3, 4]] = ranks[[4, 3]]
        return ranks

    monkeypatch.setattr(np, "argsort", misordered)


@pytest.mark.parametrize("domain", ["square", "octagon:2", "ball:5/3"])
def test_misordered_arc_trips_the_order_certificate(monkeypatch, domain):
    _swap_two_ranks(monkeypatch)
    with pytest.raises(ArithmeticError) as info:
        build_polygon(parse_domain(domain), 12)
    message = str(info.value)
    assert "Farey order certificate failed" in message
    assert f"region {domain}" in message and "order 12" in message


@pytest.mark.parametrize("domain", ["square", "octagon:1/3", "ball:5/3"])
def test_fundamental_vertices_from_one_arc_match_oracle(domain):
    spec = parse_domain(domain)
    lams = ORACLE_SLOPES + [0, Fraction(1, 10**9), Fraction(2, 3) - Fraction(1, 10**9)]
    for order in (1, 7, 30, 70):
        vectors = oracles.primitive_vectors(spec, order)
        want = [oracles.vertex_from_vectors(vectors, lam) for lam in lams]
        assert fundamental_vertices(spec, order, lams) == want


@pytest.mark.parametrize(
    "domain",
    ["square", "diamond", "octagon:2", "octagon:1/3", "ball:2", "ball:5/3", "ball:3",
     "ball:1/2", "ball:1/3"],
)
def test_array_scaling_and_export_match_per_vertex_formatting(domain):
    # the oracle grid of test_farey_walk_matches_enumeration_oracle, against
    # the per-tuple scaling and the per-vertex repr and svg formatting
    spec = parse_domain(domain)
    for order in ORACLE_ORDERS:
        poly = build_polygon(spec, order)
        sp = scale_polygon(poly)
        rf = float(sp.scale)
        assert sp.vertices == tuple(((x + 0.5) / rf, (y - rf) / rf) for x, y in poly.vertices)
        for shape in (poly, sp):
            want_csv = "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in shape.vertices)
            assert "".join(polygon_csv_chunks(shape)) == want_csv
            want_path = " L ".join(f"{x:.6f} {-y:.6f}" for x, y in shape.vertices)
            assert f'd="M {want_path} Z"' in "".join(polygon_svg_chunks(shape))


def digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()


def per_vertex(xy, row, rows=1 << 16):
    """[row(x, y) for each vertex (x, y)] of an (n, 2) array, in slices of
    so many vertices."""
    for start in range(0, len(xy), rows):
        yield list(map(row, *xy[start : start + rows].T.tolist()))


def per_vertex_text(xy, row):
    return ("".join(part) for part in per_vertex(xy, row))


def check_against_reference_cycle(spec, order):
    """The polygon's cycle, its scaled octant's cycle and both exports of
    each against the reference cycle, formatted vertex by vertex."""
    ref = oracles.reference_cycle(spec, order)
    poly = build_polygon(spec, order)
    assert poly.xy.dtype == np.int64 and np.array_equal(poly.xy, ref)
    sp = scale_polygon(poly)
    rf = float(sp.scale)
    scaled = np.concatenate(
        [np.array(part).reshape(-1, 2) for part in per_vertex(ref, lambda x, y: ((x + 0.5) / rf, (y - rf) / rf))]
    )
    assert np.array_equal(sp.xy.view(np.int64), scaled.view(np.int64))
    for shape, cycle in ((poly, ref), (sp, scaled)):
        csv = per_vertex_text(cycle, lambda x, y: f"{x!r},{y!r}\n")
        assert digest(polygon_module.polygon_csv_chunks(shape)) == digest(["x,y\n", *csv])
        head, *blocks, foot = polygon_module.polygon_svg_chunks(shape)
        path = per_vertex_text(cycle, lambda x, y: f"{x:.6f} {-y:.6f} L ")
        assert head.endswith('<path d="M ') and foot.startswith(' Z"')
        assert digest(blocks + [" L "]) == digest(path)
    (x0, y0), (x1, y1) = ref.min(axis=0).tolist(), ref.max(axis=0).tolist()
    pad = max(2, (x1 - x0) // 20)
    svg = "".join(polygon_svg_chunks(poly))
    assert f'viewBox="{x0 - pad} {-y1 - pad} {x1 - x0 + 2 * pad} {y1 - y0 + 2 * pad}"' in svg
    assert f'stroke-width="{max((x1 - x0) / 400.0, 0.05)}"' in svg


@pytest.mark.parametrize(
    "domain",
    ["square", "diamond", "octagon:2", "octagon:1/3", "ball:2", "ball:5/3", "ball:3",
     "ball:1/2", "ball:1/3"],
)
def test_arc_cycle_and_exports_match_the_reference_cycle(domain):
    spec = parse_domain(domain)
    for order in ORACLE_ORDERS:
        check_against_reference_cycle(spec, order)


@pytest.mark.parametrize("domain", ["square", "ball:5/3"])
def test_arc_cycle_and_exports_match_the_reference_cycle_at_the_order_cap(domain):
    check_against_reference_cycle(parse_domain(domain), 900)


def test_distinct_value_export_keeps_the_sign_of_zero():
    # 0.0 and -0.0 compare equal but print differently: an octant whose
    # magnitudes hold 0.0 gets -0.0 wherever its block is signed
    octant = np.array([(0.0, -0.5), (0.5, -0.0), (0.0, -0.5)])
    sp = ScaledPolygon(octant, Fraction(1, 2), 1, square())
    csv = "".join(polygon_csv_chunks(sp))
    assert csv == "x,y\n" + "".join(row + "\n" for row in [
        "0.0,-0.5", "0.5,-0.0",     # (a, -b)
        "0.0,-0.5", "0.5,-0.0",     # (b, -a), reversed
        "0.5,0.0", "0.0,0.5",       # (b, a)
        "0.5,0.0", "0.0,0.5",       # (a, b), reversed
        "-0.0,0.5", "-0.5,0.0",     # (-a, b)
        "-0.0,0.5", "-0.5,0.0",     # (-b, a), reversed
        "-0.5,-0.0", "-0.0,-0.5",   # (-b, -a)
        "-0.5,-0.0", "-0.0,-0.5",   # (-a, -b), reversed
    ])
    svg = "".join(polygon_svg_chunks(sp))
    path = svg[svg.index('d="M ') + len('d="M ') : svg.index(' Z"')]
    assert path.startswith("0.000000 0.500000 L 0.500000 0.000000 L ")
    assert path.endswith(" L -0.500000 0.000000 L -0.000000 0.500000")


KERNEL_VALUES = [0, 1, -1, 2**63 - 1, -(2**63 - 1)] + [
    sign * v for k in range(1, 19) for v in (10**k - 1, 10**k) for sign in (1, -1)
]


@pytest.mark.parametrize("chunk_rows", [7, 1 << 16])
def test_digit_kernel_matches_per_vertex_formatting(chunk_rows):
    # the kernel on slices of the value columns, each slice one grid of two
    # columns laid out between separators
    rng = random.Random(11)

    def kernel(x, y, mid, end):
        def rows(i):
            grid = textgrid.int_grid(np.stack((x[i : i + chunk_rows], y[i : i + chunk_rows]), axis=1))
            return textgrid.lines([grid[:, 0], mid, grid[:, 1], end])

        return "".join(rows(i) for i in range(0, len(x), chunk_rows))

    for values in (KERNEL_VALUES, [v for v in KERNEL_VALUES if abs(v) <= 2**53]):
        ys = values[::-1]
        rng.shuffle(ys)
        x, y = np.array(values, dtype=np.int64), np.array(ys, dtype=np.int64)
        assert kernel(x, y, ",", "\n") == "".join(f"{u!r},{w!r}\n" for u, w in zip(values, ys))
        if values is not KERNEL_VALUES:  # {:.6f} of an integer is exact up to 2^53
            want = "".join(f"{u:.6f} {-w:.6f} L " for u, w in zip(values, ys))
            assert kernel(x, -y, ".000000 ", ".000000 L ") == want


def test_octant_exports_stream_one_block_per_chunk():
    sp = scale_polygon(build_polygon(ball(Fraction(5, 3)), 30))
    size = len(sp.xy) // 8
    chunks = list(polygon_module.polygon_csv_chunks(sp))
    assert chunks[0] == "x,y\n" and "".join(chunks[1:]) == "".join(f"{x!r},{y!r}\n" for x, y in sp.vertices)
    assert max(chunk.count("\n") for chunk in chunks[1:]) == size
    svg = list(polygon_module.polygon_svg_chunks(sp))
    path = " L ".join(f"{x:.6f} {-y:.6f}" for x, y in sp.vertices)
    assert len(svg) == 10 and f'd="M {path} Z"' in "".join(svg)


def test_integer_exports_stream_one_block_per_chunk():
    poly = build_polygon(ball(Fraction(5, 3)), 30)
    size = len(poly.xy) // 8
    chunks = list(polygon_csv_chunks(poly))
    assert len(chunks) == 9 and chunks[0] == "x,y\n"
    assert "".join(chunks[1:]) == "".join(f"{x!r},{y!r}\n" for x, y in poly.vertices)
    assert [chunk.count("\n") for chunk in chunks[1:]] == [size] * 8
    svg = list(polygon_svg_chunks(poly))
    path = " L ".join(f"{x:.6f} {-y:.6f}" for x, y in poly.vertices)
    assert len(svg) == 10 and f'd="M {path} Z"' in "".join(svg)


@pytest.mark.parametrize("domain, order", [("square", 1), ("diamond", 1), ("square", 4)])
def test_integer_svg_writes_zero_height_without_a_sign(domain, order):
    # -y is written with "-" only where y is not 0: the vertices on the x
    # axis print 0.000000, in the unit square (diamond at Q = 1) as well
    poly = build_polygon(parse_domain(domain), order)
    svg = "".join(polygon_svg_chunks(poly))
    path = svg[svg.index('d="M ') + len('d="M ') : svg.index(' Z"')].split(" L ")
    on_axis = [f"{x}.000000 0.000000" for x, y in poly.vertices if y == 0]
    assert on_axis and all(point in path for point in on_axis)
    assert "-0.000000" not in svg
    assert path == [f"{x:.6f} {-y:.6f}" for x, y in poly.vertices]


def test_integer_export_calls_the_digit_kernel_once(monkeypatch):
    calls = Counter()

    def counting(name):
        kernel = getattr(textgrid, name)

        def call(*args):
            calls[name] += 1
            return kernel(*args)

        return call

    for name in ("sliced_int_grid", "int_grid"):
        monkeypatch.setattr(textgrid, name, counting(name))
    poly = build_polygon(octagon(2), 40)
    for export in (polygon_csv_chunks, polygon_svg_chunks):
        calls.clear()
        assert len(list(export(poly))) > 8
        assert calls == Counter(sliced_int_grid=1)


def test_fundamental_vertex_examples():
    assert fundamental_vertices(square(), 4, [INV_SQRT3])[0] == (9, 3)
    assert fundamental_vertices(square(), 4, [0])[0] == (0, 0)
    assert fundamental_vertices(ball(2), 17, [0])[0] == (0, 0)
    assert fundamental_vertices(square(), 4, [1])[0] == (17, 9)


def test_fundamental_vertex_is_polygon_vertex():
    for spec in (square(), diamond(), octagon(2), ball(2)):
        for order in (4, 11, 30):
            poly = build_polygon(spec, order)
            assert fundamental_vertices(spec, order, [1])[0] in poly.vertices
            assert fundamental_vertices(spec, order, [Fraction(1, 3)])[0] in poly.vertices


def test_fundamental_vertex_exact_at_farey_boundary():
    # slope exactly on a Farey fraction includes that edge
    v_below = fundamental_vertices(square(), 4, [Fraction(1, 2) - Fraction(1, 10**12)])[0]
    v_at = fundamental_vertices(square(), 4, [Fraction(1, 2)])[0]
    assert v_at == (v_below[0] + 2, v_below[1] + 1)


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def test_scale_factor_order_4():
    assert scale_factor(square(), 4) == Fraction(51, 2)  # 17 + 9 - 1/2


def test_scaled_polygon_edge_midpoint():
    for spec in (square(), diamond(), ball(2)):
        sp = scale_polygon(build_polygon(spec, 12))
        (x0, y0), (x1, y1) = sp.vertices[-1], sp.vertices[0]
        assert abs((x0 + x1) / 2) < 1e-12
        assert abs((y0 + y1) / 2 + 1) < 1e-12


def test_scaled_polygon_symmetry_and_center():
    for spec in (square(), diamond(), octagon(2)):
        sp = scale_polygon(build_polygon(spec, 30))
        pts = {(round(x, 9), round(y, 9)) for x, y in sp.vertices}
        assert {(-y, x) for x, y in pts} == pts
        assert {(y, x) for x, y in pts} == pts
        cx = sum(x for x, _ in sp.vertices) / len(sp.vertices)
        cy = sum(y for _, y in sp.vertices) / len(sp.vertices)
        assert abs(cx) < 1e-12 and abs(cy) < 1e-12
        assert max(math.hypot(x, y) for x, y in sp.vertices) < 1.5


def test_scale_ratio_at_order_1000():
    r = scale_factor(square(), 1000)
    assert 0.99 < float(r) / (3 * 1000**3 / math.pi**2) < 1.01


def test_scaled_edge_length_coefficient_stable():
    # longest scaled edge is ~ c/Q^2 with c near sqrt(2) pi^2 / 3
    cs = []
    for order in (50, 100, 200):
        sp = scale_polygon(build_polygon(square(), order))
        longest = max(
            math.dist(sp.vertices[i - 1], sp.vertices[i]) for i in range(len(sp.vertices))
        )
        cs.append(longest * order * order)
    assert all(4.0 < c < 4.66 for c in cs)
    assert max(cs) / min(cs) < 1.1


def test_vertex_sum_normalized_error_at_500():
    order = 500
    bound = 8 * math.log(order) / order
    for i in range(1, 11):
        lam = Fraction(i, 10)
        x, _ = fundamental_vertices(square(), order, [lam])[0]
        err = abs(x * math.pi**2 / (2 * float(lam) * order**3) - 1)
        assert err <= bound, (lam, err, bound)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def test_polygon_csv_layout():
    poly = build_polygon(square(), 4)
    lines = "".join(polygon_csv_chunks(poly)).splitlines()
    assert lines[0] == "x,y"
    assert lines[1] == "0,0"  # vertex following the (1,0) edge comes first
    assert len(lines) == 49


def test_polygon_svg_well_formed():
    for shape in (build_polygon(square(), 4), scale_polygon(build_polygon(square(), 4))):
        root = ET.fromstring("".join(polygon_svg_chunks(shape)))
        assert root.tag.endswith("svg")
        path = root.find("{http://www.w3.org/2000/svg}path")
        assert path is not None and path.get("d").startswith("M ")
    scaled = "".join(polygon_svg_chunks(scale_polygon(build_polygon(square(), 4))))
    assert 'viewBox="-1.2 -1.2 2.4 2.4"' in scaled
