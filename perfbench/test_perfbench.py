"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that tracing leaves every output byte-identical, that the
checks reject corrupted outputs, and that the workloads are reproducible.
"""

from __future__ import annotations

import json
import sys

import pytest

import checks
import run
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Op, ops_for

sys.path.insert(0, str(run.SRC))
import jarnik.cli as cli  # noqa: E402
from jarnik import domains, limit_curves, polygon  # noqa: E402

SMALL = [
    ("polygon", "--domain", "square", "--q", "12"),
    ("polygon", "--domain", "ball:5/3", "--q", "14", "--scaled"),
    ("converge", "--domain", "diamond", "--curve", "C1", "--q-list", "10,20", "--samples", "1000"),
    ("converge", "--domain", "ball:3", "--curve", "Cp:3", "--q-list", "10,20", "--samples", "1000"),
    ("limit-curve", "--curve", "Cp:3", "--samples", "500"),
    ("curvature", "--lambda", "const:inv-sqrt3", "--q-min", "5", "--q-max", "300"),
    ("curvature", "--lambda", "rat:2/5", "--side", "-", "--q-min", "5", "--q-max", "200"),
    ("curvature", "--lambda", "surd:(1+sqrt(5))/2", "--q-max", "50"),
]


def test_traced_outputs_are_byte_identical():
    ops = [Op("small", argv) for argv in SMALL]
    plain = run.run_pass(cli, ops)
    originals = (polygon.sort_ccw, domains.lattice_contains, polygon.lattice_contains,
                 limit_curves.LimitCurve.point)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert polygon.lattice_contains is not originals[2]
        traced = run.run_pass(cli, ops, tracer)
    finally:
        tracer.restore()
    assert (polygon.sort_ccw, domains.lattice_contains, polygon.lattice_contains,
            limit_curves.LimitCurve.point) == originals
    assert [o.key() for o in traced] == [o.key() for o in plain]
    assert [o.code for o in plain] == [0, 0, 0, 0, 0, 0, 0, 2]

    layer = tracing.pass_metrics(tracer)
    assert set(layer) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)
    for name in ("domains.lattice_contains.calls", "limit_curves.point.calls",
                 "analysis.probe_points", "curvature.samples", "number_theory.farey_neighbors.calls",
                 "curvature.local_radius.calls", "cli.output_bytes"):
        assert layer[name] > 0, name
    assert 0 < layer["domains.lattice_contains.accept_ratio"] < 1
    assert layer["curvature.samples"] == (300 - 5 + 1) + (200 - 5 + 1)
    assert layer["number_theory.farey_neighbors.calls"] == 200 - 5 + 1
    # self time never exceeds total time
    for s in tracer.spans:
        assert 0 <= s.end - s.start - s.child <= s.end - s.start + 1e-9


def test_integer_polygon_check_rejects_a_moved_vertex():
    out = run.run_op(cli, ("polygon", "--domain", "octagon:2", "--q", "9")).out
    verts = checks.parse_polygon(out, scaled=False)
    assert checks.check_integer_polygon(verts, 9) == []
    bad = list(verts)
    x, y = bad[5]
    bad[5] = (x + 1, y)
    assert checks.check_integer_polygon(bad, 9)


def test_scaled_polygon_check_compares_with_its_twin():
    plain = run.run_op(cli, ("polygon", "--domain", "ball:2", "--q", "11")).out
    scaled = run.run_op(cli, ("polygon", "--domain", "ball:2", "--q", "11", "--scaled")).out
    twin = checks.parse_polygon(plain, scaled=False)
    verts = checks.parse_polygon(scaled, scaled=True)
    assert checks.check_scaled_polygon(verts, twin) == []
    verts[3] = (verts[3][0] * (1 + 1e-9), verts[3][1])
    assert checks.check_scaled_polygon(verts, twin)


@pytest.mark.parametrize("lam, side", [("const:e-2", None), ("cf:[0;1,(2,3)]", None), ("rat:2/5", "-"), ("rat:2/5", "+")])
def test_curvature_check(lam, side):
    argv = ("curvature", "--lambda", lam) + (("--side", side) if side else ()) + ("--q-min", "6", "--q-max", "400")
    out = run.run_op(cli, argv).out
    assert checks.check_curvature(out, lam, side, 6, 400) == []
    lines = out.split("\n")
    q, q1, q2, *rest = lines[50].split(",")
    lines[50] = ",".join([q, q2, q1] + rest)
    assert checks.check_curvature("\n".join(lines), lam, side, 6, 400)


def test_converge_check_rejects_a_bound_below_the_distance():
    out = run.run_op(cli, ("converge", "--domain", "ball:2", "--curve", "Cp:2", "--q-list", "8,16", "--samples", "1000")).out
    assert checks.check_converge(out, "ball:2", "Cp:2", (8, 16)) == []
    head, row, *rest = out.split("\n")
    d, q, c, sup, bound = row.split(",")
    bad = "\n".join([head, ",".join([d, q, c, bound, sup])] + rest)
    assert checks.check_converge(bad, "ball:2", "Cp:2", (8, 16))


def test_reference_covers_the_default_seed():
    ref = json.loads(run.REFERENCE.read_text())
    labels = {op.label for w in WORKLOADS for op in ops_for(w, DEFAULT_SEED)}
    assert labels == set(ref["ops"])


def test_reference_compare_flags_a_changed_float():
    op = next(op for op in ops_for("converge", DEFAULT_SEED) if op.kind == "limit-curve")
    ref = json.loads(run.REFERENCE.read_text())["ops"][op.label]
    o = run.run_op(cli, op.argv)
    assert checks.compare_reference(op, ref, o.code, o.out, o.err) == []
    lines = o.out.split("\n")
    lam, x, y = lines[1].split(",")
    lines[1] = f"{lam},{float(x) + 1e-6!r},{y}"
    assert checks.compare_reference(op, ref, o.code, "\n".join(lines), o.err)


def test_workloads_are_reproducible_and_stay_in_their_bands():
    for workload in WORKLOADS:
        base = ops_for(workload, DEFAULT_SEED)
        for seed in (1, 2, 3):
            ops = ops_for(workload, seed)
            assert ops == ops_for(workload, seed)
            assert [op.kind for op in ops] == [op.kind for op in base]
            for op, ref in zip(ops, base):
                if "q" in op.params:
                    assert abs(op.params["q"] - ref.params["q"]) <= 4
                if "orders" in op.params:
                    assert all(abs(a - b) <= 3 for a, b in zip(op.params["orders"], ref.params["orders"]))
                if "q_max" in op.params:
                    assert abs(op.params["q_max"] - ref.params["q_max"]) <= 300
    assert ops_for("polygons", 1) != ops_for("polygons", 2)
