"""Acceptance gate: one test per numbered criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure) and asserts every clause at its stated tolerance and runtime
budget.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction
from itertools import islice

from scipy import integrate
from scipy.special import betainc

from jarnik.analysis import convergence_table
from jarnik.domains import ball, diamond, octagon, square
from jarnik.limit_curves import LimitCurve
from jarnik.number_theory import E_MINUS_2, INV_SQRT3, convergent_walk, moebius_array, parse_real
from jarnik.polygon import build_polygon

from oracles import (
    circumradius_squared,
    curvature_trace,
    curve_Cp_alternate_y,
    farey_neighbors,
    farey_sequence,
    fundamental_vertices,
    implicit_residual,
    is_convex,
    limsup_liminf_estimate,
    moment_integrals,
    scale_factor,
)
from test_number_theory import CORPUS

P4_RUN = [
    (-1, 0), (0, 0), (4, 1), (7, 2), (9, 3), (12, 5), (16, 8), (17, 9),
    (20, 13), (22, 16), (23, 18), (24, 21), (25, 25), (25, 26), (24, 30),
]


def report(number, label, clauses, elapsed, budget):
    failed = [(name, detail) for name, ok, detail in clauses if not ok]
    status = "PASS" if not failed and elapsed < budget else "FAIL"
    print(f"criterion {number} ({label}): {status} in {elapsed:.1f}s")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    assert not failed, f"criterion {number} failed clauses: {failed}"


def test_criterion_1_exact_lattice_values():
    t0 = time.time()
    clauses = []

    poly = build_polygon(square(), 4)
    run = [poly.vertices[-1]] + list(poly.vertices[:14])
    clauses.append(("order-4 vertex run", run == P4_RUN, f"{run}"))

    count = len(build_polygon(square(), 4).edges())
    clauses.append(("48 vectors at order 4", count == 48, f"{count}"))

    vertex = fundamental_vertices(square(), 4, [INV_SQRT3])[0]
    clauses.append(("vertex (9,3)", vertex == (9, 3), f"{vertex}"))

    r1 = circumradius_squared((7, 2), (9, 3), (12, 5))
    r2 = circumradius_squared((4, 1), (7, 2), (9, 3))
    clauses.append(("radius^2 1105/2", r1 == Fraction(1105, 2), f"{r1}"))
    clauses.append(("radius^2 725/2", r2 == Fraction(725, 2), f"{r2}"))

    report(1, "exact lattice values", clauses, time.time() - t0, 1.0)


def test_criterion_2_farey_cf_suite():
    t0 = time.time()
    clauses = []

    want = [Fraction(*p) for p in ((0, 1), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1))]
    clauses.append(("order-4 Farey list", farey_sequence(4) == want, ""))

    nb = farey_neighbors(INV_SQRT3, 15)
    clauses.append(
        ("neighbors (4/7, 7/12)", (nb.left, nb.right) == (Fraction(4, 7), Fraction(7, 12)), f"{nb}")
    )

    cf1 = tuple(islice(INV_SQRT3.quotients(), 12))
    cf2 = tuple(islice(E_MINUS_2.quotients(), 12))
    clauses.append(("1/sqrt(3) quotients", cf1 == (1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1), f"{cf1}"))
    clauses.append(("e-2 quotients", cf2 == (1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1), f"{cf2}"))

    specs = [parse_real(s) for s in CORPUS]
    mismatches = 0
    for order in range(1, 201):
        seq = farey_sequence(order)
        for spec in specs:
            lo, hi = 0, len(seq) - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if spec.cmp(seq[mid]) > 0:
                    lo = mid
                else:
                    hi = mid
            got = farey_neighbors(spec, order)
            if (got.left, got.right) != (seq[lo], seq[hi]):
                mismatches += 1
    clauses.append(
        ("20-irrational corpus vs brute force, orders to 200", mismatches == 0, f"{mismatches} mismatches")
    )

    report(2, "Farey/continued-fraction suite", clauses, time.time() - t0, 30.0)


def test_criterion_3_vertex_sum_asymptotics():
    t0 = time.time()
    order = 2000
    x, y = fundamental_vertices(square(), order, [1])[0]

    x_err = abs(x * math.pi**2 / (2 * order**3) - 1)
    y_err = abs(y * math.pi**2 / order**3 - 1)
    r = scale_factor(square(), order)
    r_err = abs(float(r) * math.pi**2 / (3 * order**3) - 1)
    clauses = [
        ("X(2000,1) within 2%", x_err < 0.02, f"err {x_err:.5f}"),
        ("Y(2000,1) within 2%", y_err < 0.02, f"err {y_err:.5f}"),
        ("R(2000) within 2%", r_err < 0.02, f"err {r_err:.5f}"),
        ("R equals X+Y-1/2", r == Fraction(2 * (x + y) - 1, 2), f"{r}"),
    ]
    report(3, "vertex-sum asymptotics", clauses, time.time() - t0, 60.0)


def test_criterion_4_limit_curve_convergence():
    t0 = time.time()
    pairings = [
        (square(), LimitCurve("C")),
        (diamond(), LimitCurve("C1")),
        (octagon(2), LimitCurve("Cdelta", Fraction(2))),
        (ball(2), LimitCurve("Cp", Fraction(2))),
    ]
    clauses = []
    for spec, curve in pairings:
        d50, d500 = (row.bound for row in convergence_table(spec, [50, 500], curve))
        clauses.append(
            (f"{spec} vs {curve} below 0.02 at 500", d500 < 0.02, f"{d500:.6f}")
        )
        clauses.append(
            (f"{spec} vs {curve} decreasing 50 to 500", d500 < d50, f"{d50:.6f} -> {d500:.6f}")
        )
    report(4, "limit-curve convergence", clauses, time.time() - t0, 300.0)


def test_criterion_5_curve_identities():
    t0 = time.time()
    grid = [i / 500 for i in range(501)]
    clauses = []

    c1 = LimitCurve("C1")
    worst = max(abs(implicit_residual(c1, *c1.point(l))) for l in grid)
    clauses.append(("diamond-curve identity 1e-12", worst < 1e-12, f"{worst:.2e}"))

    worst = 0.0
    for d in (Fraction(1, 2), Fraction(2), Fraction(5)):
        curve = LimitCurve("Cdelta", d)
        worst = max(worst, max(abs(implicit_residual(curve, *curve.point(l))) for l in grid))
    clauses.append(("octagon-family parabola residual 1e-12", worst < 1e-12, f"{worst:.2e}"))

    worst = max(
        abs(math.hypot(*LimitCurve("Cp", 2).point(l)) - 1.0) for l in grid
    )
    clauses.append(("ball(2) curve is the unit circle 1e-9", worst < 1e-9, f"{worst:.2e}"))

    worst = max(
        max(abs(a - b) for a, b in zip(LimitCurve("Cp", 1).point(l), c1.point(l))) for l in grid
    )
    clauses.append(("ball(1) curve equals diamond curve 1e-12", worst < 1e-12, f"{worst:.2e}"))

    chalf = LimitCurve("Cp", Fraction(1, 2))
    worst = max(implicit_residual(chalf, *chalf.point(l)) for l in grid)
    clauses.append(("ball(1/2) quintic scaled residual 1e-6", worst < 1e-6, f"{worst:.2e}"))

    worst = 0.0
    for p in (0.5, 1.0, 1.5, 2.0, 3.0):
        worst = max(
            worst,
            max(abs(LimitCurve("Cp", p).point(l)[1] - curve_Cp_alternate_y(p, l)) for l in grid[::2]),
        )
    clauses.append(("two y-forms agree 1e-9", worst < 1e-9, f"{worst:.2e}"))

    report(5, "curve identities", clauses, time.time() - t0, 10.0)


def test_criterion_6_curvature_landmarks():
    t0 = time.time()
    clauses = []

    # At order Q the neighbours of lam have denominators k_n and
    # j k_n + k_{n-1}; the trace is lowest at the block ends
    # Q = k_n + k_{n+1} - 1, where q1 q2 (q1+q2)/Q^3 -> x/(1+x)^2 with
    # x = k_{n+1}/k_n.  The floor is the smallest of these limits over one
    # period of the continued fraction, times pi^2/6 (1+lam^2)^(3/2).  For
    # 1/sqrt(3) = [0; 1, (1, 2)] it is 4 pi^2 (3 sqrt3 - 5)/(9 sqrt3), at the
    # blocks with quotient 2, and the exact trace approaches it from above.
    ks = [k for _, k in islice(convergent_walk(INV_SQRT3.quotients()), 1, 41)]
    floor = min(x / (1 + x) ** 2 for x in (b / a for a, b in zip(ks[-3:], ks[-2:])))
    floor *= math.pi**2 / 6 * (1 + float(INV_SQRT3) ** 2) ** 1.5
    closed_form = 4 * math.pi**2 * (3 * math.sqrt(3) - 5) / (9 * math.sqrt(3))
    assert math.isclose(floor, closed_form, rel_tol=1e-12), (floor, closed_form)
    trace = curvature_trace(INV_SQRT3, 100, 5000)
    low = min(s.r_tilde for s in trace)
    clauses.append(
        (
            f"1/sqrt(3) trace stays above the floor {floor:.6f} on [100, 5000]",
            low > floor,
            f"min {low:.6f}",
        )
    )

    sup, _, _ = limsup_liminf_estimate(INV_SQRT3, 5000)
    clauses.append(
        ("1/sqrt(3) window-sup inside [2.28, 5.32]", 2.28 <= sup <= 5.32, f"sup {sup:.4f}")
    )

    # e-2 = [0; 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, ...]: a dip below 0.3 needs
    # the quotient 8, whose block ends at Q = 1001 + 8544 - 1 = 9544, so the
    # window runs to 10000
    e2_trace = curvature_trace(E_MINUS_2, 100, 10000)
    e2_min = min(s.r_tilde for s in e2_trace)
    clauses.append(
        ("e-2 trace attains a value below 0.3 on [100, 10000]", e2_min < 0.3, f"min {e2_min:.6f}")
    )

    half_trace = curvature_trace(Fraction(1, 2), 10, 2000, side="+")
    half_max = max(s.r_tilde for s in half_trace if s.order >= 1000)
    clauses.append(
        ("rational 1/2+ trace below 0.05 from order 1000", half_max < 0.05, f"max {half_max:.6f}")
    )

    report(6, "curvature landmarks", clauses, time.time() - t0, 300.0)


def test_criterion_7_property_suites():
    t0 = time.time()
    clauses = []

    # polygon closure, convexity, eight-fold symmetry
    bad = []
    for spec in (square(), diamond(), octagon(2), ball(2)):
        for order in (10, 50, 200):
            poly = build_polygon(spec, order)
            es = poly.edges()
            closed = sum(e.q for e in es) == 0 and sum(e.a for e in es) == 0
            r2 = 2 * scale_factor(spec, order)
            doubled = {(2 * x + 1, 2 * y - int(r2)) for x, y in poly.vertices}
            symmetric = all(
                mapped == doubled
                for mapped in (
                    {(-u, v) for u, v in doubled},
                    {(v, u) for u, v in doubled},
                    {(-v, u) for u, v in doubled},
                )
            )
            if not (closed and is_convex(poly) and symmetric):
                bad.append((str(spec), order))
    clauses.append(("polygon closure/convexity/symmetry", not bad, f"{bad}"))

    # Mobius divisor-sum identity
    limit = 10_000
    mu = moebius_array(limit).tolist()
    acc = [0] * (limit + 1)
    for d in range(1, limit + 1):
        if mu[d]:
            for n in range(d, limit + 1, d):
                acc[n] += mu[d]
    ok = acc[1] == 1 and all(v == 0 for v in acc[2:])
    clauses.append(("Mobius divisor sums", ok, ""))

    # beta identities
    worst = 0.0
    for i in range(1, 20):
        z = i / 20
        for a, b in ((0.5, 2.5), (2.0, 3.0), (0.25, 0.75), (4.0, 1.0)):
            worst = max(worst, abs(betainc(a, b, z) + betainc(b, a, 1 - z) - 1))
    ok = worst < 1e-12 and betainc(2, 3, 0) == 0 and betainc(2, 3, 1) == 1
    clauses.append(("beta reflection identity", ok, f"{worst:.2e}"))

    # moments against adaptive quadrature
    def quad_moments(spec, lam):
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

    worst = 0.0
    for spec in (square(), diamond(), octagon(Fraction(1, 2)), octagon(1), octagon(2), ball(2)):
        for i in (1, 5, 9):
            lam = i / 10
            got = moment_integrals(spec, Fraction(i, 10) if spec.kind != "ball" else lam)
            ox, oy = quad_moments(spec, lam)
            worst = max(worst, abs(float(got.mx) - ox), abs(float(got.my) - oy))
    clauses.append(("moments vs quadrature 1e-8", worst < 1e-8, f"{worst:.2e}"))

    report(7, "property suites", clauses, time.time() - t0, 120.0)
