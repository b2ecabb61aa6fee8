import hashlib
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from jarnik import analysis, curvature, domains, limit_curves, number_theory, polygon
from jarnik.cli import (
    MAX_BALL_NUMERATOR,
    MAX_ORDER,
    MAX_SAMPLES,
    MAX_TRACE_ORDER,
    _selftest_checks,
    build_parser,
    run,
)
from oracles import curve_Cp_mpmath


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(code):
    """stdout of a fresh interpreter running `code` with this jarnik importable."""
    import jarnik

    src = os.path.dirname(os.path.dirname(jarnik.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60, env=env
    )
    return result.stdout


# ---------------------------------------------------------------------------
# polygon
# ---------------------------------------------------------------------------


def test_polygon_csv_stdout(capsys):
    code, out, _ = run_capture(capsys, ["polygon", "--domain", "square", "--q", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y"
    assert lines[1:8] == ["0,0", "4,1", "7,2", "9,3", "12,5", "16,8", "17,9"]
    assert len(lines) == 49  # 48 vertices


def test_polygon_deterministic(capsys):
    argv = ["polygon", "--domain", "ball:2", "--q", "12", "--scaled"]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second


def test_polygon_atomic_file_output(tmp_path, capsys):
    target = tmp_path / "poly.csv"
    code, _, _ = run_capture(
        capsys, ["polygon", "--domain", "square", "--q", "4", "--output", str(target)]
    )
    assert code == 0
    assert target.read_text().startswith("x,y\n0,0\n")
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".jarnik-tmp-")]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)], ids=["022", "002", "077"])
def test_output_file_mode_follows_the_umask(tmp_path, capsys, umask, mode):
    target = tmp_path / "poly.csv"
    saved = os.umask(umask)
    try:
        code, _, _ = run_capture(capsys, ["polygon", "--domain", "square", "--q", "4", "--output", str(target)])
    finally:
        os.umask(saved)
    assert code == 0 and target.stat().st_mode & 0o777 == mode


def test_polygon_svg(tmp_path, capsys):
    target = tmp_path / "poly.svg"
    code, _, _ = run_capture(
        capsys,
        ["polygon", "--domain", "square", "--q", "4", "--scaled",
         "--format", "svg", "--output", str(target)],
    )
    assert code == 0
    ET.parse(target)  # well-formed


def test_polygon_bad_domain_exit_2(capsys):
    code, _, err = run_capture(capsys, ["polygon", "--domain", "blob", "--q", "4"])
    assert code == 2
    assert "argument error" in err


def test_polygon_bad_order_exit_2(capsys):
    code, _, _ = run_capture(capsys, ["polygon", "--domain", "square", "--q", "0"])
    assert code == 2


def test_polygon_order_above_cap_exit_2(capsys):
    code, out, err = run_capture(
        capsys, ["polygon", "--domain", "square", "--q", str(MAX_ORDER + 1)]
    )
    assert code == 2 and out == ""
    assert str(MAX_ORDER + 1) in err and str(MAX_ORDER) in err


def test_polygon_large_ball_exponent(capsys):
    # 50**200 overflows a float; the row caps must still be found exactly
    base = ["polygon", "--domain", "ball:200", "--q", "50"]
    code, plain, _ = run_capture(capsys, base)
    assert code == 0
    code, scaled, _ = run_capture(capsys, base + ["--scaled"])
    assert code == 0 and len(scaled.splitlines()) == len(plain.splitlines())


@pytest.mark.parametrize("exponent", ["101/100", "1001/1000", "1000/999"])
def test_polygon_slow_ball_exponent_exit_2(capsys, exponent):
    # exact membership at these exponents does not finish in a minute at
    # MAX_ORDER; they are refused before any polygon is built
    code, out, err = run_capture(
        capsys, ["polygon", "--domain", f"ball:{exponent}", "--q", str(MAX_ORDER)]
    )
    assert code == 2 and out == ""
    assert "MAX_BALL_DENOMINATOR" in err


def test_converge_large_ball_numerator_exit_2(capsys):
    code, out, err = run_capture(
        capsys,
        ["converge", "--domain", f"ball:{MAX_BALL_NUMERATOR + 1}",
         "--curve", f"Cp:{MAX_BALL_NUMERATOR + 1}", "--q-list", "5"],
    )
    assert code == 2 and out == ""
    assert str(MAX_BALL_NUMERATOR) in err and "MAX_BALL_NUMERATOR" in err


# sha256 of the CSV bytes, pinned so that any change of polygon output shows
GOLDEN_POLYGON_SHA256 = {
    ("square", 12, False): "f73782cd727fb58e23e0c27464bba4ab49828da0ab873542f2deee12d6d9ae2e",
    ("square", 12, True): "2721c0f7b48b812e9e8022367ea79a4c70d8eed1ce6efd0f61b89f05e3916979",
    ("square", 37, False): "774c2e2aad74d1aef73bd866ca74887620e49994478c40b0fee933e60475120b",
    ("square", 37, True): "07936fbef8157dac0e5329f43784e48db9ec5365e273fc27728a0ced33a28789",
    ("diamond", 12, False): "9feef94a0e4dc4b299534c406c99ccf77a3416c245ea11831b64f7dde9fad910",
    ("diamond", 12, True): "53a41c2e2ac8cc111e89a59c47c0bfbacf0b0879559be090e07c2a293052824f",
    ("diamond", 37, False): "cba262298ffe34262211502a3e7bdf18a314c7bf4e18d426b1942d9c7128fd6d",
    ("diamond", 37, True): "8ccedff3c1915d73109962204cdcf0cc1561525e7347b36c6510b3d2cc2900b5",
    ("octagon:2", 12, False): "b5e8a5af78bd95f708ec462f5e3ba7bd3938fcebaf37ef9ef95ff44d1aacadea",
    ("octagon:2", 12, True): "4f6e2c359b5fc9549482b4c4c266ff73262ae5fc7767e715258684b7d761503e",
    ("octagon:2", 37, False): "94186ebad230982f7eb9de335b18ad71f5301d70e61d7155c865dab4b31f33bf",
    ("octagon:2", 37, True): "5d3c03fc8b34d69dd870c83d0e2adc1cfa38828f51f4d831f3efb6a0962d76e9",
    ("ball:2", 12, False): "8f6b153e41d9249cb57b3de554961c3cb5ab058a33dab4dad2b691781aebb7c8",
    ("ball:2", 12, True): "3a0cfd59524398895257f0685285dbb381bf5a33f893bcaaceea106d7dc36231",
    ("ball:2", 37, False): "f585e50dc883ed26b1b9fc1623e1028d6273bb2cf9f18e28e90b7432699d1f2e",
    ("ball:2", 37, True): "291cb7dfcd3b85d8fec9db2cb030f7f58a0fe9c32044eb1bda4850d919528925",
    ("ball:5/3", 12, False): "02bdff1cf1d4190f7ff8e7d9e198af399d651a773e5b1fd705b752b6f44f0f64",
    ("ball:5/3", 12, True): "85ba46a14d4c9e85d7880afa30be1b46905eab6c6cd3832b4fa5393c6d84886d",
    ("ball:5/3", 37, False): "2c561223d2f7919c9950e6bbc6e0f6fb35306325d2105aa2cebcaef90870413d",
    ("ball:5/3", 37, True): "0965bcc0921797a6127c479592dbe192063295d6ae69822b629d14d09e827408",
    # slopes whose reduced denominator is not 1 round d (Q - q) down in the row caps
    ("octagon:1/3", 37, False): "6fc96cfc085c096402e8b5400ec5c6bc043289129480c55cb5be566014ee0c57",
    ("octagon:5/2", 41, True): "ca551024eae67dcfef744f5e3e334e0376ee7e3d5cf616b26869b11bc2411859",
    # the diamond's shape under the octagon's label
    ("octagon:1", 30, False): "a6c66d9cdef22d902891e7fc31eedf73da17514d6ea0ddb78bed10d82cde209f",
    # larger scaled polygons, whose coordinates are formatted once per distinct value
    ("square", 200, True): "8b3a4dc442e096f2fb499df0616b3698d092bf8923b1a110a4d4f6ba7e901ec3",
    ("ball:5/3", 150, True): "02548a63496e51c42686addfc9ec3f998b5f8aa098cc78756d3d8a3226e7dcaf",
    # empty fundamental arcs: (1, 1) lies outside and the polygon is the unit square
    ("diamond", 1, False): "0b9ba44a45b7c7d85950457615de880221e7507f3997adb23b611ed877f36ab0",
    ("diamond", 1, True): "52e2174af0bbf974ae25bd5d1adada721e4aced224256e7ab384d1fd123fa7f0",
    ("ball:1/3", 5, False): "0b9ba44a45b7c7d85950457615de880221e7507f3997adb23b611ed877f36ab0",
    ("ball:1/3", 5, True): "52e2174af0bbf974ae25bd5d1adada721e4aced224256e7ab384d1fd123fa7f0",
}


@pytest.mark.parametrize("domain, order, scaled", sorted(GOLDEN_POLYGON_SHA256))
def test_polygon_golden_bytes(capsys, domain, order, scaled):
    argv = ["polygon", "--domain", domain, "--q", str(order)] + (["--scaled"] if scaled else [])
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_POLYGON_SHA256[domain, order, scaled]


# sha256 of the `polygon --format svg` bytes
GOLDEN_POLYGON_SVG_SHA256 = {
    ("square", 37, False): "903466125b60a93acab43582519fae14ce7ad288f68b52e7603065957b3939d6",
    ("square", 37, True): "96e5599b1cf195c2c88a8c5b891410a9833de2cbb8d87f6bda3a6237233bf400",
    ("octagon:5/2", 41, False): "495478710b02c78152c098ba75cafcd79c0ad35cba444f8cf6cabd7823f3636d",
    ("octagon:5/2", 41, True): "698f4833a63fad53b0640156711bf6ed6679dccb2091a87346bba7c02e0bb312",
    ("diamond", 1, False): "449ec18481d157f16975d198e77d27b37267d02059d35018b12c57440959117e",
    ("diamond", 1, True): "e7e067480abf3d366a63337f90bacce43724115cbd62f76f21bfd37031509f41",
    ("ball:1/3", 5, False): "449ec18481d157f16975d198e77d27b37267d02059d35018b12c57440959117e",
    ("ball:1/3", 5, True): "e7e067480abf3d366a63337f90bacce43724115cbd62f76f21bfd37031509f41",
}


@pytest.mark.parametrize("domain, order, scaled", sorted(GOLDEN_POLYGON_SVG_SHA256))
def test_polygon_svg_golden_bytes(capsys, domain, order, scaled):
    argv = ["polygon", "--domain", domain, "--q", str(order), "--format", "svg"]
    code, out, _ = run_capture(capsys, argv + (["--scaled"] if scaled else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_POLYGON_SVG_SHA256[domain, order, scaled]


@pytest.mark.parametrize("domain, order", [("ball:2", 1), ("ball:1/3", 7)])
def test_scaled_unit_square_when_diagonal_lies_outside(capsys, domain, order):
    # (1, 1) lies outside, so the polygon is the unit square and R = 1/2
    code, out, _ = run_capture(
        capsys, ["polygon", "--domain", domain, "--q", str(order), "--scaled"]
    )
    assert code == 0
    assert out == "x,y\n1.0,-1.0\n1.0,1.0\n-1.0,1.0\n-1.0,-1.0\n"


def test_polygon_membership_failure_exits_1_naming_point_region_and_order(capsys, monkeypatch):
    def undecided(A, B, C, b):
        raise ArithmeticError("membership comparison did not separate; boundary case")

    monkeypatch.setattr(domains, "_ball_sum_within", undecided)
    code, out, err = run_capture(capsys, ["polygon", "--domain", "ball:5/3", "--q", "10"])
    assert code == 1 and out == ""
    assert "membership comparison did not separate" in err
    assert "point (" in err and "region ball:5/3" in err and "order 10" in err


def test_polygon_order_certificate_failure_exits_1_naming_region_and_order(capsys, monkeypatch):
    sort = np.argsort

    def misordered(keys, *args, **kwargs):
        ranks = sort(keys, *args, **kwargs)
        ranks[[0, 1]] = ranks[[1, 0]]
        return ranks

    monkeypatch.setattr(np, "argsort", misordered)
    code, out, err = run_capture(capsys, ["polygon", "--domain", "diamond", "--q", "9"])
    assert code == 1 and out == ""
    assert "Farey order certificate failed" in err
    assert "region diamond" in err and "order 9" in err


@pytest.mark.parametrize("order", [16, 24, 54])
def test_ball_third_boundary_orders_succeed(capsys, order):
    # these orders put non-primitive lattice points exactly on the boundary
    base = ["polygon", "--domain", "ball:1/3", "--q", str(order)]
    code, plain, _ = run_capture(capsys, base)
    assert code == 0 and plain.startswith("x,y\n0,0\n")
    code, scaled, _ = run_capture(capsys, base + ["--scaled"])
    assert code == 0 and len(scaled.splitlines()) == len(plain.splitlines())
    code, table, _ = run_capture(
        capsys,
        ["converge", "--domain", "ball:1/3", "--curve", "Cp:1/3",
         "--q-list", str(order), "--samples", "1000"],
    )
    assert code == 0 and table.splitlines()[1].startswith(f"ball:1/3,{order},Cp:1/3,")


# ---------------------------------------------------------------------------
# limit-curve
# ---------------------------------------------------------------------------


def test_limit_curve_csv(capsys):
    code, out, _ = run_capture(
        capsys, ["limit-curve", "--curve", "Cp:2", "--samples", "100"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,x,y"
    assert len(lines) == 101
    for line in lines[1:]:
        _, x, y = (float(tok) for tok in line.split(","))
        assert abs(x * x + y * y - 1) < 1e-9  # points on the unit circle


def test_limit_curve_svg(capsys):
    code, out, _ = run_capture(
        capsys, ["limit-curve", "--curve", "Cdelta:2", "--samples", "32", "--format", "svg"]
    )
    assert code == 0
    ET.fromstring(out)


def test_limit_curve_bad_spec(capsys):
    code, _, _ = run_capture(capsys, ["limit-curve", "--curve", "Cq:1"])
    assert code == 2


# the last parameters whose arc is finite in float64 at lambda = 0 and 1,
# and the first past them: B(1/p, 2/p) underflows to 0 below p = 1/389,
# d^2 (3d + 1) below d = 1e-161, and (d + 1)^2 overflows above d = 1e102
FINITE_CURVE_EDGES = ["Cp:1/389", "Cdelta:1e-161", "Cdelta:1e102", "Cp:1e300"]
NONFINITE_CURVES = ["Cp:1/390", "Cp:1/400", "Cdelta:1e-162", "Cdelta:1e-300", "Cdelta:1e103", "Cdelta:1e400",
                    "Cdelta:1e300", "Cp:1e309"]


def matching_domain(curve: str) -> str:
    family, _, param = curve.partition(":")
    return f"{'octagon' if family == 'Cdelta' else 'ball'}:{param}"


@pytest.mark.parametrize("curve", FINITE_CURVE_EDGES)
def test_curve_parameters_at_the_edge_give_finite_rows(capsys, curve):
    code, out, _ = run_capture(capsys, ["limit-curve", "--curve", curve, "--samples", "4097"])
    assert code == 0
    rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
    assert rows.shape == (4097, 3) and np.isfinite(rows).all()
    if curve.startswith("Cdelta"):  # the ball exponents are capped far inside the edge
        code, out, _ = run_capture(capsys, ["converge", "--domain", matching_domain(curve), "--curve", curve,
                                            "--q-list", "5"])
        assert code == 0 and np.isfinite([float(v) for v in out.splitlines()[1].split(",")[-2:]]).all()


@pytest.mark.parametrize("curve", NONFINITE_CURVES)
def test_curve_parameters_past_the_edge_exit_2(capsys, curve):
    code, out, err = run_capture(capsys, ["limit-curve", "--curve", curve])
    assert code == 2 and out == "" and "is not finite" in err
    code, out, err = run_capture(capsys, ["converge", "--domain", matching_domain(curve), "--curve", curve,
                                          "--q-list", "5"])
    assert code == 2 and out == ""
    assert "is not finite" in err or "MAX_BALL" in err


def test_closed_stdout_exits_1_quietly():
    # the reader takes one line and closes the pipe while the trace is written
    import jarnik

    src = os.path.dirname(os.path.dirname(jarnik.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "jarnik.cli", "curvature", "--lambda", "const:e-2", "--q-max", "100000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"Q,q1,q2,r_squared_num,r_squared_den,r_tilde,predicted\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1 and err == b""


# sha256 of the `limit-curve` CSV bytes at 1001 samples; C and Cdelta:2
# were recorded from the scalar arcs, Cp:2 and Cp:3 once scipy's hyp2f1
# evaluated the ball family for p > 1/2 (scipy 1.17.1), and C1 once it was
# evaluated as the polygonal wedge at slope (1, 1), the bytes of Cdelta:1
GOLDEN_LIMIT_CURVE_SHA256 = {
    "C": "d386edf04e42bcd6fedffc97a13adced9ee49dc9fed4e51b82062d398a193c99",
    "C1": "e19e7f6a02932456cff6e14d885c1c198b7c512b3a2b3f77e2b00bdc27d98397",
    "Cdelta:2": "3503c2c084ecb60d6ad5233125bf1defadde554a235ad5f6b4ce766d0f305fb2",
    "Cp:2": "3f071d845d5291564bf480d24f83f446376cafee5158024dc08cdf63e95e9ae0",
    "Cp:3": "a4829b9bf1b80c5a264a1074bd51dbf78008c046b07153c5f3df96b429fd3a71",
    "Cdelta:1/3": "2b3c7193d4f8bd350652a79969779f23eb2a05076066def7f65150d082ece3ac",
}


@pytest.mark.parametrize("curve", list(GOLDEN_LIMIT_CURVE_SHA256))
def test_limit_curve_golden_bytes(capsys, curve):
    code, out, _ = run_capture(capsys, ["limit-curve", "--curve", curve, "--samples", "1001"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LIMIT_CURVE_SHA256[curve]


@pytest.mark.parametrize("curve", ["Cp:2", "Cp:3"])
def test_limit_curve_cp_golden_rows_lie_near_the_mpmath_arc(capsys, curve):
    # why the Cp goldens hold these bytes: every row is within 8e-16 of the
    # 40-digit arc (betainc's rows were up to 1.11e-15 off)
    code, out, _ = run_capture(capsys, ["limit-curve", "--curve", curve, "--samples", "1001"])
    rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
    p = Fraction(curve.partition(":")[2])
    want = np.array([curve_Cp_mpmath(p, lam) for lam in rows[:, 0].tolist()])
    assert code == 0 and rows.shape == (1001, 3)
    assert np.abs(rows[:, 1:] - want).max() <= 8e-16


def test_limit_curve_svg_golden_bytes_at_the_sample_cap(capsys):
    # recorded when each image was still joined from per-value strings
    argv = ["limit-curve", "--curve", "Cp:3", "--samples", "1048576", "--format", "svg"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "13be2f1306e4ae1756ff1001fd23e6917edd6d69eb3a53ba4e3c65df3c21966a"


def test_limit_curve_samples_above_cap_exit_2(capsys):
    # refused while the arguments are parsed, before any arc is sampled
    code, out, err = run_capture(
        capsys, ["limit-curve", "--curve", "Cp:3", "--samples", str(MAX_SAMPLES + 1)]
    )
    assert code == 2 and out == ""
    assert str(MAX_SAMPLES + 1) in err and "MAX_SAMPLES" in err


def test_limit_curve_one_sample_exit_2(capsys):
    code, out, err = run_capture(capsys, ["limit-curve", "--curve", "C", "--samples", "1"])
    assert code == 2 and out == ""
    assert "argument error" in err


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_small_table(capsys):
    code, out, _ = run_capture(
        capsys,
        ["converge", "--domain", "diamond", "--curve", "C1",
         "--q-list", "16,8", "--samples", "2048"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "domain,Q,curve,sup_distance,bound"
    assert lines[1].startswith("diamond,8,C1,")
    assert lines[2].startswith("diamond,16,C1,")


# sha256 of the `converge` CSV bytes, pinned so that any change of its output shows
GOLDEN_CONVERGE_SHA256 = {
    ("square", "C"): "72bbcdedaf19549e9c0d3ce21074755fb022151a317dcfb27df724323c3c5fb2",
    ("diamond", "C1"): "9d997056f9b7da4e2a7f06ad5b76bb311568176188e4dafb22ca8a8c068bfd57",
    ("octagon:2", "Cdelta:2"): "441927f2898ff50e5c72baa36dba88e456091f7ecd4cbab03608282e9b3de755",
    ("octagon:1/3", "Cdelta:1/3"): "34caf369794551a79587642561fbc06f5a0fecb4ff1dcd98dd76e259bccf6e76",
}


@pytest.mark.parametrize("domain, curve", sorted(GOLDEN_CONVERGE_SHA256))
def test_converge_golden_bytes(capsys, domain, curve):
    argv = ["converge", "--domain", domain, "--curve", curve,
            "--q-list", "20,40", "--samples", "2048"]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CONVERGE_SHA256[domain, curve]


def test_converge_rejects_mismatched_pairing(capsys):
    code, _, err = run_capture(
        capsys,
        ["converge", "--domain", "diamond", "--curve", "C", "--q-list", "8"],
    )
    assert code == 2
    assert "converges to" in err


def test_converge_order_above_cap_exit_2(capsys):
    # the small order first: the cap is checked before any table row is built
    code, out, err = run_capture(
        capsys,
        ["converge", "--domain", "square", "--curve", "C",
         "--q-list", f"5,{MAX_ORDER + 1}"],
    )
    assert code == 2 and out == ""
    assert str(MAX_ORDER + 1) in err and str(MAX_ORDER) in err


def test_converge_samples_above_cap_exit_2(capsys):
    code, out, err = run_capture(
        capsys,
        ["converge", "--domain", "ball:3", "--curve", "Cp:3",
         "--q-list", "5", "--samples", str(MAX_SAMPLES + 1)],
    )
    assert code == 2 and out == ""
    assert str(MAX_SAMPLES + 1) in err and "MAX_SAMPLES" in err


def test_converge_too_few_samples_exit_2_before_any_polygon(capsys, monkeypatch):
    def no_polygon(spec, order):
        raise AssertionError(f"polygon {spec} built at order {order}")

    monkeypatch.setattr(analysis, "build_polygon", no_polygon)
    code, out, err = run_capture(
        capsys,
        ["converge", "--domain", "ball:3", "--curve", "Cp:3", "--q-list", "5", "--samples", "999"],
    )
    assert code == 2 and out == ""
    assert "argument error" in err


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_curvature_trace_csv(capsys):
    code, out, _ = run_capture(
        capsys,
        ["curvature", "--lambda", "const:inv-sqrt3", "--q-min", "4", "--q-max", "10"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Q,q1,q2,r_squared_num,r_squared_den,r_tilde,predicted"
    assert lines[1].split(",")[:5] == ["4", "2", "3", "1105", "2"]


# sha256 of the `curvature` CSV bytes over Q = 5..3000, for three irrational
# and two one-sided rational slopes
GOLDEN_CURVATURE_SHA256 = {
    ("const:inv-sqrt3", None): "583a130f540a6908f83ea1e70c4ebed05508f4808e5ec32e28f4934502bd6af6",
    ("const:e-2", None): "2effd0fcc908d04969b3c492eda09d2626aed1f0023fe8342b86d4209b43efce",
    ("cf:[0;1,(2,3)]", None): "b4eb4cbe9417d7f543ef5ecc920c50d419cd4b591b267f4873863ce25f4d8ac3",
    ("rat:2/5", "-"): "07ac95ecf0dccf15c4ae2bdcf8dabe1c13eae579618aa02c9bf2a38ed2ad44f4",
    ("rat:1/2", "+"): "1b5b2b34d52227816404f7ee6379ca1a965c87738ee62bac2489160f43a5edca",
}


@pytest.mark.parametrize("lam, side", list(GOLDEN_CURVATURE_SHA256))
def test_curvature_golden_bytes(capsys, lam, side):
    argv = ["curvature", "--lambda", lam, "--q-min", "5", "--q-max", "3000"]
    code, out, _ = run_capture(capsys, argv + (["--side", side] if side else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CURVATURE_SHA256[lam, side]


@pytest.mark.parametrize("side", ["+", "-"])
def test_one_cut_point_one_trace(capsys, side):
    # 2/5 written in lowest terms, unreduced, and as its two finite
    # continued fraction expansions is one Fraction, so one trace
    outs = set()
    for lam in ("rat:2/5", "rat:4/10", "cf:[0;2,2]", "cf:[0;2,1,1]"):
        code, out, err = run_capture(capsys, ["curvature", "--lambda", lam, "--side", side,
                                              "--q-min", "5", "--q-max", "3000"])
        assert code == 0 and err == "", lam
        outs.add(out)
    assert len(outs) == 1


# sha256 of the `curvature --format svg` bytes over Q = 10..2000
GOLDEN_CURVATURE_SVG_SHA256 = {
    ("const:inv-sqrt3", None): "18d9bc951c7a9f033a0512ffdde5da56f77c28b81294953d9191520228fb18aa",
    ("rat:1/2", "+"): "f36ac28c50e8b91b6f83d3b53f56c4bf008dbe1054852aec12c8e78774c4ae5e",
}


@pytest.mark.parametrize("lam, side", list(GOLDEN_CURVATURE_SVG_SHA256))
def test_curvature_svg_golden_bytes(capsys, lam, side):
    argv = ["curvature", "--lambda", lam, "--q-min", "10", "--q-max", "2000", "--format", "svg"]
    code, out, _ = run_capture(capsys, argv + (["--side", side] if side else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CURVATURE_SVG_SHA256[lam, side]


def test_curvature_order_above_cap_exit_2(capsys):
    # refused while the arguments are parsed, before any work
    code, out, err = run_capture(
        capsys,
        ["curvature", "--lambda", "const:e-2", "--q-max", str(MAX_TRACE_ORDER + 1)],
    )
    assert code == 2 and out == ""
    assert str(MAX_TRACE_ORDER + 1) in err and "MAX_TRACE_ORDER" in err
    assert MAX_TRACE_ORDER >= 100_000


def test_trace_cap_stays_under_the_ladder_int64_bound():
    assert MAX_TRACE_ORDER <= curvature.MAX_LADDER_ORDER


def test_curvature_slope_outside_unit_interval(capsys):
    code, out, err = run_capture(
        capsys, ["curvature", "--lambda", "surd:(1+sqrt(5))/2", "--q-max", "50"]
    )
    assert code == 2 and out == ""
    assert err == "jarnik: argument error: quotient stream requires a value in (0, 1)\n"


@pytest.mark.parametrize("lam, side, q_min, message", [
    ("rat:2/5", "-", "2", "denominator of 2/5 exceeds Farey order 2"),
    ("rat:1/1", "+", "2", "1/1 has no successor in [0, 1]"),
    ("rat:0/1", "-", "5", "0/1 has no predecessor in [0, 1]"),
    ("rat:3/2", "+", "2", "rational cut point must lie in [0, 1]"),
    ("rat:1/2", None, "2", "a rational slope needs a side, '+' or '-' (--side)"),
    ("const:e-2", "+", "2", "a side (--side) applies only to a rational slope"),
], ids=["2/5-", "1/1+", "0/1-", "3/2+", "1/2-no-side", "e-2+"])
def test_curvature_rational_slope_refused_before_ladder(capsys, monkeypatch, lam, side, q_min, message):
    def no_ladder(q_max):
        raise AssertionError(f"R(Q) ladder built up to {q_max}")

    monkeypatch.setattr(curvature, "_x_ladder", no_ladder)
    argv = ["curvature", "--lambda", lam, "--q-min", q_min, "--q-max", str(MAX_TRACE_ORDER)]
    code, out, err = run_capture(capsys, argv + (["--side", side] if side else []))
    assert code == 2 and out == ""
    assert err == f"jarnik: argument error: {message}\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_curvature_wrong_totient_fails_before_any_output(capsys, monkeypatch, tmp_path, to_file):
    sieve = curvature.totient_array

    def perturbed(limit, split_primes=None):
        phi = sieve(limit, split_primes)
        phi[97] += 1
        return phi

    monkeypatch.setattr(curvature, "totient_array", perturbed)
    argv = ["curvature", "--lambda", "const:inv-sqrt3", "--q-min", "2", "--q-max", "1000"]
    code, out, err = run_capture(capsys, argv + (["--output", str(tmp_path / "t.csv")] if to_file else []))
    assert code == 1 and out == ""
    assert err.startswith("jarnik: computation failed: scale ladder drift at Q=1000")
    assert os.listdir(tmp_path) == []


def _as_families(walk):
    """A walk of runs (lam, q_min, q_max, side) -> (lo, hi, a1, q1, a2, q2),
    as the family stream that curvature reads: each run a family of one."""
    def families(lam, q_min, q_max, side=None):
        return ((*run, 1, 0, 0, 0, 0) for run in walk(lam, q_min, q_max, side))

    return families


def _first_run_one_order_too_long(lam, q_min, q_max, side=None):
    (lo, hi, *pair), *rest = number_theory.farey_neighbor_runs(lam, q_min, q_max, side)
    return iter([(lo, hi + 1, *pair), *rest])


def _unimodular_but_not_consecutive(lam, q_min, q_max, side=None):
    # 0/1 < lam < 1/1 for every order, though 1/2 lies between them from order 2
    return iter([(q_min, q_max, 0, 1, 1, 1)])


@pytest.mark.parametrize("walk", [_first_run_one_order_too_long, _unimodular_but_not_consecutive],
                         ids=["hi-one-too-large", "not-consecutive"])
@pytest.mark.parametrize("lam, side", [("const:inv-sqrt3", None), ("rat:2/5", "-")])
def test_curvature_uncertified_neighbor_run_writes_nothing(capsys, monkeypatch, tmp_path, walk, lam, side):
    monkeypatch.setattr(curvature, "farey_neighbor_families", _as_families(walk))
    argv = ["curvature", "--lambda", lam, "--q-min", "5", "--q-max", "1000", "--output", str(tmp_path / "t.csv")]
    code, out, err = run_capture(capsys, argv + (["--side", side] if side else []))
    assert code == 1 and out == ""
    assert err.startswith("jarnik: computation failed: ") and "are not the Farey neighbors" in err
    assert os.listdir(tmp_path) == []


def _replaced(runs, i, *new):
    return iter(runs[:i] + list(new) + runs[i + 1 :])


# Each edit breaks one condition of the run certificate at run i, away from
# the first run of its block, and keeps every other condition.
_RUN_EDITS = {
    "hi-one-too-large": lambda runs, i: _replaced(runs, i, (runs[i][0], runs[i][1] + 1, *runs[i][2:])),
    # the pair of the run before: unimodular and bracketing, but its
    # mediant enters at an order of the run
    "not-consecutive": lambda runs, i: _replaced(runs, i, (*runs[i][:2], *runs[i - 1][2:])),
    "hi-one-too-small": lambda runs, i: _replaced(runs, i, (runs[i][0], runs[i][1] - 1, *runs[i][2:])),
    "empty-run-inserted": lambda runs, i: _replaced(runs, i, (runs[i][0], runs[i][0] - 1, *runs[i][2:]), runs[i]),
    # the pair of the run after: a denominator above the run's first order
    "next-pair-early": lambda runs, i: _replaced(runs, i, (*runs[i][:2], *runs[i + 1][2:])),
    "not-unimodular": lambda runs, i: _replaced(runs, i, (*runs[i][:2], runs[i][2] - 1, *runs[i][3:])),
    "last-run-past-q-max": lambda runs, i: _replaced(
        runs, len(runs) - 1, (runs[-1][0], runs[-1][1] + 1, *runs[-1][2:])),
    "run-past-q-max-appended": lambda runs, i: iter(runs + [(runs[-1][1] + 1, runs[-1][1] + 1, *runs[-1][2:])]),
    "beyond-int64": lambda runs, i: _replaced(runs, i, (*runs[i][:2], runs[i][2] + 2**64, *runs[i][3:])),
}


def _edited_walk(at, edit):
    def walk(lam, q_min, q_max, side=None):
        runs = list(number_theory.farey_neighbor_runs(lam, q_min, q_max, side))
        return edit(runs, len(runs) // 2 if at is None else at)

    return walk


def _refused_run_writes_nothing(capsys, monkeypatch, tmp_path, walk, lam, side, why="are not the Farey neighbors"):
    _refused_families_write_nothing(capsys, monkeypatch, tmp_path, _as_families(walk), lam, side, why)


def _refused_families_write_nothing(capsys, monkeypatch, tmp_path, families, lam, side, why):
    monkeypatch.setattr(curvature, "farey_neighbor_families", families)
    argv = ["curvature", "--lambda", lam, "--q-min", "5", "--q-max", "10000", "--output", str(tmp_path / "t.csv")]
    code, out, err = run_capture(capsys, argv + (["--side", side] if side else []))
    assert code == 1 and out == ""
    assert err.startswith("jarnik: computation failed: ") and why in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("edit", list(_RUN_EDITS))
@pytest.mark.parametrize("lam, side, at", [("const:inv-sqrt3", None, None), ("rat:2/5", "-", 99)],
                         ids=["inv-sqrt3-middle-run", "2/5-100th-run"])
def test_curvature_run_failing_mid_block_writes_nothing(capsys, monkeypatch, tmp_path, edit, lam, side, at):
    walk = _edited_walk(at, _RUN_EDITS[edit])
    _refused_run_writes_nothing(capsys, monkeypatch, tmp_path, walk, lam, side)


@pytest.mark.parametrize("lam, side, at, other, other_side", [
    ("const:inv-sqrt3", None, None, number_theory.E_MINUS_2, None),
    ("rat:2/5", "-", 99, Fraction(2, 5), "+"),
], ids=["inv-sqrt3-then-e-2", "2/5-then-2/5+"])
def test_curvature_neighbors_of_another_slope_mid_block_write_nothing(
        capsys, monkeypatch, tmp_path, lam, side, at, other, other_side):
    # consecutive pairs that tile the orders, from run `at` on those of
    # another slope or side: only the bracket (or the cut point) refuses them
    def switch(runs, i):
        return iter(runs[:i] + list(number_theory.farey_neighbor_runs(other, runs[i][0], 10000, other_side)))

    _refused_run_writes_nothing(capsys, monkeypatch, tmp_path, _edited_walk(at, switch), lam, side)


@pytest.mark.parametrize("lam, side, edit", [
    ("rat:1/2", "+", lambda a1, q1, a2, q2: (a1, q1, a2 - 2**63, q2)),
    ("rat:1/4", "-", lambda a1, q1, a2, q2: (a1 + 2**62, q1, a2, q2)),
], ids=["1/2+-numerator-below-0", "1/4--numerator-above-lo"])
def test_curvature_run_whose_int64_test_wraps_writes_nothing(capsys, monkeypatch, tmp_path, lam, side, edit):
    # a numerator off by 2^64 / q in the column next to an even denominator
    # q: a2 q1 - a1 q2 wraps to 1 in int64, and only 0 <= a1, a2 <= lo stops it
    walk = _edited_walk(99, lambda runs, i: _replaced(runs, i, (*runs[i][:2], *edit(*runs[i][2:]))))
    _refused_run_writes_nothing(capsys, monkeypatch, tmp_path, walk, lam, side)


def _last_pair(families):
    """The index of the last family of two runs, and the orders lo..hi of
    its second run."""
    f = max(i for i, family in enumerate(families) if family[6] == 2)
    lo, hi = families[f][:2]
    return f, f"{hi + 1}..{2 * hi - lo + 1}"


def _step_breaking_the_last_run(families):
    # one more on the numerator that steps: the first run keeps a2 q1 - a1 q2
    # = 1, the second has 1 + q1 or 1 - q2
    f, orders = _last_pair(families)
    lo, hi, a1, q1, a2, q2, count, da1, dq1, da2, dq2 = families[f]
    families[f] = (lo, hi, a1, q1, a2, q2, count, da1 + (dq1 > 0), dq1, da2 + (dq2 > 0), dq2)
    return families, orders


def _count_one_order_past_q_max(families):
    # 0/1+ walks one family of runs one order long, up to q_max
    *head, count, da1, dq1, da2, dq2 = families[-1]
    families[-1] = (*head, count + 1, da1, dq1, da2, dq2)
    return families, f"{head[1] + count}..{head[1] + count}"


def _mediant_inside_the_last_run(families):
    # a step of 0 keeps the pair of the first run in the second, where their
    # mediant, of denominator q1 + q2 = its first order, enters at once
    f, orders = _last_pair(families)
    families[f] = (*families[f][:7], 0, 0, 0, 0)
    return families, orders


@pytest.mark.parametrize("lam, side, edit", [
    ("const:inv-sqrt3", None, _step_breaking_the_last_run),
    ("rat:0/1", "+", _count_one_order_past_q_max),
    ("const:inv-sqrt3", None, _mediant_inside_the_last_run),
], ids=["step-breaks-unimodularity-at-the-last-run", "count-one-order-past-q-max", "mediant-inside-the-last-run"])
def test_curvature_family_failing_at_its_last_run_writes_nothing(capsys, monkeypatch, tmp_path, lam, side, edit):
    # the first run of the family passes, and its last run is the one refused
    genuine = list(number_theory.farey_neighbor_families(number_theory.parse_real(lam), 5, 10000, side))
    edited, orders = edit(genuine)
    _refused_families_write_nothing(capsys, monkeypatch, tmp_path, lambda *walk: iter(edited), lam, side,
                                    f"are not the Farey neighbors of the slope for orders {orders}\n")


@pytest.mark.parametrize("lam, side", [("const:inv-sqrt3", None), ("rat:2/5", "-")])
def test_curvature_walk_that_stops_short_writes_nothing(capsys, monkeypatch, tmp_path, lam, side):
    walk = _edited_walk(None, lambda runs, i: iter(runs[:-1]))
    _refused_run_writes_nothing(capsys, monkeypatch, tmp_path, walk, lam, side, "the neighbor runs stop at order")


def test_curvature_rational_needs_side(capsys):
    code, _, err = run_capture(
        capsys, ["curvature", "--lambda", "rat:1/2", "--q-max", "20"]
    )
    assert code == 2
    assert "--side" in err


def test_curvature_sided_and_svg(capsys):
    code, out, _ = run_capture(
        capsys,
        ["curvature", "--lambda", "rat:1/2", "--side", "+",
         "--q-min", "10", "--q-max", "60", "--format", "svg"],
    )
    assert code == 0
    ET.fromstring(out)


def test_curvature_bad_range(capsys):
    code, _, _ = run_capture(
        capsys, ["curvature", "--lambda", "const:e-2", "--q-min", "50", "--q-max", "10"]
    )
    assert code == 2


@pytest.mark.parametrize("argv, module, work", [
    (["polygon", "--domain", "square", "--q", "8"], polygon, "build_polygon"),
    (["limit-curve", "--curve", "C"], limit_curves, "curve_csv_chunks"),
    (["converge", "--domain", "square", "--curve", "C", "--q-list", "8"], analysis, "convergence_table"),
    (["curvature", "--lambda", "const:e-2", "--q-max", "50"], curvature, "trace_lines"),
], ids=["polygon", "limit-curve", "converge", "curvature"])
@pytest.mark.parametrize("where, reason", [
    (lambda d: str(d / "missing" / "out.csv"), "No such file or directory"),
    (lambda d: str(d), "Is a directory"),
    (lambda d: str(d / "missing") + os.sep, "No file name"),
    (lambda d: "", "No file name"),
], ids=["missing-directory", "directory", "missing-directory-name", "empty"])
def test_unwritable_output_refused_before_any_work(capsys, monkeypatch, tmp_path, argv, module, work, where, reason):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for an unwritable output")

    monkeypatch.setattr(module, work, no_work)
    monkeypatch.chdir(tmp_path)  # where an empty name resolves
    target = where(tmp_path)
    code, out, err = run_capture(capsys, argv + ["--output", target])
    assert code == 2 and out == ""
    assert err == f"jarnik: argument error: cannot write {target}: {reason}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--lambda", "rat:1/0", "--side", "+", "--q-max", "10"],
        ["curvature", "--lambda", "rat:0/0", "--side", "+", "--q-max", "10"],
        ["polygon", "--domain", "octagon:1/0", "--q", "5"],
        ["polygon", "--domain", "ball:1/0", "--q", "5"],
        ["limit-curve", "--curve", "Cp:1/0"],
        ["limit-curve", "--curve", "Cdelta:3/0"],
        ["converge", "--domain", "square", "--curve", "Cp:2/0", "--q-list", "5"],
    ],
)
def test_zero_denominator_is_an_argument_error(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("jarnik: argument error: zero denominator")


@pytest.mark.parametrize("argv, message", [
    (["polygon", "--domain", "square", "--q", "abc"], "argument --q: invalid order value: 'abc'"),
    (["limit-curve", "--curve", "C", "--samples", "abc"], "argument --samples: invalid samples value: 'abc'"),
    (["curvature", "--lambda", "const:e-2", "--q-max", "abc"], "argument --q-max: invalid order value: 'abc'"),
    (["converge", "--domain", "square", "--curve", "C", "--q-list", "5,x"],
     "argument --q-list: invalid order list value: '5,x'"),
], ids=["q", "samples", "q-max", "q-list"])
def test_malformed_integer_names_the_kind_of_number(capsys, argv, message):
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == "" and message in err


# the Fractions of these parameters have hundreds or thousands of digits;
# past 4300 even formatting them fails
@pytest.mark.parametrize("argv, typed", [
    (["limit-curve", "--curve", "Cdelta:1e300"], "Cdelta:1e300"),
    (["limit-curve", "--curve", "Cdelta:1e5000"], "Cdelta:1e5000"),
    (["limit-curve", "--curve", "Cp:1e-5000"], "Cp:1e-5000"),
    (["converge", "--domain", "octagon:2", "--curve", "Cp:1e-5000", "--q-list", "5"], "Cp:1e-5000"),
    (["polygon", "--domain", "ball:1e300", "--q", "5"], "ball:1e300"),
    (["polygon", "--domain", "ball:1e5000", "--q", "5"], "ball:1e5000"),
    (["converge", "--domain", "ball:1e5000", "--curve", "Cp:2", "--q-list", "5"], "ball:1e5000"),
])
def test_refusal_quotes_the_parameter_as_typed(capsys, argv, typed):
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("jarnik: argument error: ") and typed in err


# int() reads neither a number past 4300 digits nor "2/3"
@pytest.mark.parametrize("lam", [
    "rat:1/2/3",
    "rat:1/" + "7" * 5000,
    "surd:(" + "1" * 5000 + "+sqrt(5))/2",
    "cf:[0;" + "9" * 5000 + "]",
    "cf:[0;1,(" + "9" * 5000 + ")]",
], ids=["rat-two-slashes", "rat-5000-digits", "surd-5000-digits", "cf-5000-digits", "cf-cycle-5000-digits"])
def test_slope_refusal_quotes_the_argument_as_typed(capsys, lam):
    code, out, err = run_capture(capsys, ["curvature", "--lambda", lam, "--q-max", "10"])
    assert code == 2 and out == ""
    assert err == f"jarnik: argument error: unsupported real specification: {lam!r}\n"


@pytest.mark.parametrize("domain", ["octagon:1e300", "octagon:1e5000"])
def test_pairing_refusal_quotes_the_domain_and_curve_as_typed(capsys, domain):
    code, out, err = run_capture(capsys, ["converge", "--domain", domain, "--curve", "Cdelta:2", "--q-list", "5"])
    assert code == 2 and out == ""
    param = domain.partition(":")[2]
    assert err == f"jarnik: argument error: domain {domain} converges to Cdelta:{param}, not Cdelta:2\n"


# ---------------------------------------------------------------------------
# selftest and plumbing
# ---------------------------------------------------------------------------


def test_selftest_passes_and_is_deterministic(capsys):
    code, first, _ = run_capture(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in first
    code, second, _ = run_capture(capsys, ["selftest"])
    assert first == second


def test_selftest_reads_r_squared_from_the_trace_rows(monkeypatch):
    # the 1105/2 check reads the order-4 row of the trace the curvature
    # command writes, so a wrong numerator in that row fails it
    real = curvature.trace_lines

    def moved(*args, **kwargs):
        return (chunk.replace("4,2,3,1105,2,", "4,2,3,1106,2,") for chunk in real(*args, **kwargs))

    monkeypatch.setattr(curvature, "trace_lines", moved)
    rows = "".join(curvature.trace_lines(number_theory.INV_SQRT3, 4, 4)).splitlines()
    assert rows[1].startswith("4,2,3,1106,2,")
    failing = [name for name, ok, _ in _selftest_checks() if not ok]
    assert any("1105/2" in name for name in failing), failing


def test_parser_is_built_on_the_first_run_and_never_at_import():
    code = (
        "import argparse, contextlib, io\n"
        "built = 0\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    global built\n"
        "    built += 1\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import jarnik, jarnik.cli\n"
        "counts = [built]\n"
        "for argv in (['polygon', '--domain', 'square', '--q', '4'], ['selftest'], ['polygon', '--q', 'x']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        jarnik.cli.run(argv)\n"
        "    counts.append(built)\n"
        "print(*counts)"
    )
    at_import, *after_runs = map(int, run_python(code).split())
    assert at_import == 0 and after_runs[0] > 0  # the parser and one per subcommand
    assert after_runs == [after_runs[0]] * 3


def test_runs_sharing_the_parser_stay_independent(capsys, tmp_path):
    # each argv follows one that would leak into it if state carried over
    argvs = [
        ["polygon", "--domain", "square"],
        ["polygon", "-h"],
        ["polygon", "--domain", "diamond", "--q", "6", "--output", str(tmp_path / "out.csv")],
        ["polygon", "--domain", "diamond", "--q", "6"],
        ["polygon", "--domain", "square", "--q", "5", "--scaled", "--format", "svg"],
        ["polygon", "--domain", "square", "--q", "5"],
        ["curvature", "--lambda", "rat:2/5", "--side", "-", "--q-min", "5", "--q-max", "40"],
        ["curvature", "--lambda", "const:e-2", "--q-max", "40"],
        ["curvature", "--lambda", "surd:(1+sqrt(5))/2", "--q-max", "40"],
    ]
    forward = [run_capture(capsys, argv) for argv in argvs]
    backward = [run_capture(capsys, argv) for argv in reversed(argvs)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [2, 0, 0, 0, 0, 0, 0, 0, 2]


def test_help_documents_all_flags():
    parser = build_parser()
    for sub_name, flags in {
        "polygon": ["--domain", "--q", "--scaled", "--format", "--output"],
        "limit-curve": ["--curve", "--samples", "--format", "--output"],
        "converge": ["--domain", "--curve", "--q-list", "--samples", "--output"],
        "curvature": ["--lambda", "--side", "--q-min", "--q-max", "--format", "--output"],
    }.items():
        sub = next(
            act for act in parser._actions if hasattr(act, "choices") and act.choices
        ).choices[sub_name]
        text = sub.format_help()
        for flag in flags:
            assert flag in text, (sub_name, flag)


def test_import_leaves_scipy_spatial_unloaded():
    code = "import sys, jarnik, jarnik.cli; print('scipy.spatial' in sys.modules)"
    assert run_python(code).strip() == "False"


def test_sampled_converge_leaves_scipy_spatial_unloaded():
    code = (
        "import contextlib, io, sys; from jarnik.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = run(['converge', '--domain', 'diamond', '--curve', 'C1', '--q-list', '30'])\n"
        "print(code, out.getvalue().count('diamond,30,C1,'), 'scipy.spatial' in sys.modules)"
    )
    assert run_python(code).split() == ["0", "1", "False"]


def test_import_leaves_scipy_special_unloaded():
    code = "import sys, jarnik, jarnik.cli; print('scipy.special' in sys.modules)"
    assert run_python(code).strip() == "False"


def test_unknown_command_exit_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()

