"""A seeded sweep over the accepted input space of every subcommand.

Each command is drawn at a small size from the range the CLI accepts,
weighted towards the edges of its parameters: the ball exponent caps
(MAX_BALL_NUMERATOR, MAX_BALL_DENOMINATOR), `Cp` exponents from 1/389 to
10^5, `Cdelta` from 1e-161 to 1e102, the first and last orders, and the
ladder's top order.  Every command must exit 0, and its output must pass
the structural invariants of `invariants.py`.  The draws depend only on
the seed, so a failure names an argv that reproduces it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from jarnik.cli import MAX_BALL_DENOMINATOR, MAX_BALL_NUMERATOR, MAX_TRACE_ORDER, run
import invariants

SEED = 20260
DRAWS = 24

BALL_EDGES = [f"{MAX_BALL_NUMERATOR}", f"1/{MAX_BALL_DENOMINATOR}", f"{MAX_BALL_NUMERATOR - 1}/{MAX_BALL_DENOMINATOR}",
              f"{MAX_BALL_NUMERATOR}/{MAX_BALL_DENOMINATOR - 1}", "1/3", "3/2", "1", "2"]
CP_EDGES = ["1/389", "1/2", "20", "54", "77", "120", "135", "200", "1000", "100000"]
CDELTA_EDGES = ["1e-161", "1/1000000000000", "1", "2", "1e102"]


def _ball(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(BALL_EDGES)
    return f"{rng.randint(1, MAX_BALL_NUMERATOR)}/{rng.randint(1, MAX_BALL_DENOMINATOR)}"


def _cp(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(CP_EDGES)
    den = rng.randint(1, 389)  # p = num/den from 1/389 to 10^5, log-uniform
    return f"{max(1, round(den * 10 ** rng.uniform(-math.log10(389), 5)))}/{den}"


def _cdelta(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(CDELTA_EDGES)
    return f"{10 ** rng.uniform(-160, 101):.3g}"


def _order(rng: random.Random, top: int) -> int:
    return rng.choice([1, 2, 3, top]) if rng.random() < 0.3 else rng.randint(4, top)


def _pair(rng: random.Random) -> tuple[str, str]:
    """A region and its own limit curve, as `converge` pairs them."""
    kind = rng.choice(["square", "diamond", "octagon", "ball", "ball"])
    if kind == "square":
        return "square", "C"
    if kind == "diamond":
        return "diamond", "C1"
    if kind == "octagon":
        d = rng.choice(["1/1000", "1/3", "1", "2", "1000", str(Fraction(rng.randint(1, 50), rng.randint(1, 50)))])
        return f"octagon:{d}", f"Cdelta:{d}"
    p = str(Fraction(_ball(rng)))
    return f"ball:{p}", f"Cp:{p}"


def _slope(rng: random.Random) -> tuple[str, str | None]:
    """A slope literal and its side; a rational's denominator is at most 300."""
    kind = rng.choice(["rat", "rat", "const", "surd", "cf"])
    if kind == "rat":
        den = rng.choice([1, 2, 3, rng.randint(4, 300)])
        num = rng.randint(0, den)
        side = "+" if num == 0 else "-" if num == den else rng.choice("+-")
        return f"rat:{num}/{den}", side
    if kind == "const":
        return rng.choice(["const:inv-sqrt3", "const:e-2"]), None
    if kind == "surd":
        d = rng.choice([n for n in range(2, 1000) if math.isqrt(n) ** 2 != n])
        q = rng.randint(1, 50)
        root = math.isqrt(d)
        p = rng.randint(-root, q - root - 1)  # 0 < (p + sqrt d)/q < 1
        return f"surd:({p}+sqrt({d}))/{q}", None
    head = ",".join(str(rng.randint(1, 9)) for _ in range(rng.randint(0, 3)))
    cycle = ",".join(str(rng.randint(1, 9)) for _ in range(rng.randint(1, 3)))
    return f"cf:[0;{head + ',' if head else ''}({cycle})]", None


def _run(capsys, argv: list[str]) -> str:
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, (argv, captured.err)
    return captured.out


def _failures(checked: list[tuple[list[str], list[str]]]) -> list[str]:
    return [f"jarnik {' '.join(argv)}: {problems}" for argv, problems in checked if problems]


def test_sweep_polygon(capsys):
    rng = random.Random(SEED)
    checked = []
    for _ in range(2 * DRAWS):
        domain = rng.choice(["square", "diamond", f"octagon:{rng.randint(1, 1000)}/{rng.randint(1, 1000)}"]
                            + [f"ball:{_ball(rng)}"] * 3)
        # n-th roots for ball denominators n >= 4 keep their orders lower
        order = _order(rng, 40 if domain.startswith("ball") else 120)
        argv = ["polygon", "--domain", domain, "--q", str(order)]
        scaled = rng.random() < 0.5
        if rng.random() < 0.25:
            out = _run(capsys, argv + ["--format", "svg"] + (["--scaled"] if scaled else []))
            checked.append((argv, invariants.svg_path_problems(out, closed=True)))
        else:
            out = _run(capsys, argv + (["--scaled"] if scaled else []))
            checked.append((argv, invariants.polygon_problems(out, order, scaled)))
    assert _failures(checked) == []


def test_sweep_limit_curve(capsys):
    rng = random.Random(SEED + 1)
    checked = []
    for _ in range(3 * DRAWS):
        curve = rng.choice(["C", "C1", f"Cdelta:{_cdelta(rng)}"] + [f"Cp:{_cp(rng)}"] * 3)
        samples = rng.choice([2, 3, 256, 2**14, rng.randint(2, 5000)])
        argv = ["limit-curve", "--curve", curve, "--samples", str(samples)]
        if rng.random() < 0.25:
            out = _run(capsys, argv + ["--format", "svg"])
            checked.append((argv, invariants.limit_curve_svg_problems(out, samples)))
        else:
            checked.append((argv, invariants.limit_curve_problems(_run(capsys, argv), samples)))
    # exponents whose lam^p underflows on the first steps of the grid
    for p, samples in (("77", 2**14), ("135", 256), ("200", 256), ("1000", 256), ("100000", 5)):
        argv = ["limit-curve", "--curve", f"Cp:{p}", "--samples", str(samples)]
        checked.append((argv, invariants.limit_curve_problems(_run(capsys, argv), samples)))
    assert _failures(checked) == []


def test_sweep_converge(capsys):
    rng = random.Random(SEED + 2)
    checked = []
    for _ in range(DRAWS):
        domain, curve = _pair(rng)
        orders = [_order(rng, 80) for _ in range(rng.randint(1, 3))]
        samples = rng.choice([1000, 2048, 4096])
        argv = ["converge", "--domain", domain, "--curve", curve,
                "--q-list", ",".join(map(str, orders)), "--samples", str(samples)]
        checked.append((argv, invariants.converge_problems(_run(capsys, argv), domain, curve, orders)))
    assert _failures(checked) == []


def test_sweep_curvature(capsys):
    rng = random.Random(SEED + 3)
    checked = []
    for i in range(DRAWS):
        lam, side = _slope(rng)
        # one window at the ladder's top order; small ones elsewhere, from
        # past a rational slope's denominator, as the trace needs
        q_max = MAX_TRACE_ORDER if i == 0 else rng.randint(600, 3000)
        q_min = max(2, q_max - rng.randint(0, 300))
        argv = ["curvature", "--lambda", lam, "--q-min", str(q_min), "--q-max", str(q_max)]
        argv += ["--side", side] if side else []
        if rng.random() < 0.25:
            out = _run(capsys, argv + ["--format", "svg"])
            checked.append((argv, invariants.svg_path_problems(out, closed=False)))
        else:
            out = _run(capsys, argv)
            checked.append((argv, invariants.curvature_problems(out, lam, side, q_min, q_max)))
    assert _failures(checked) == []


def test_sweep_selftest(capsys):
    lines = _run(capsys, ["selftest"]).splitlines()
    passed, total = lines[-1].split()[0].split("/")
    assert passed == total and all(line.startswith("PASS") for line in lines[:-1])


@pytest.mark.parametrize("text, want", [
    ("rat:2/5", Fraction(2, 5)),
    ("surd:(-1+sqrt(5))/2", None),
    ("const:inv-sqrt3", None),
    ("const:e-2", None),
    ("cf:[0;1,(2,3)]", None),
])
def test_sweep_slopes_are_exact_or_within_2_to_the_minus_256(text, want):
    import mpmath

    got = invariants.slope_fraction(text)
    if want is not None:
        assert got == want
        return
    with mpmath.workdps(100):
        exact = {
            "surd:(-1+sqrt(5))/2": (mpmath.sqrt(5) - 1) / 2,
            "const:inv-sqrt3": 1 / mpmath.sqrt(3),
            "const:e-2": mpmath.e - 2,
            # x = [0; 1, y] with y = [2; 3, y]: y = (3 + sqrt 15)/3
            "cf:[0;1,(2,3)]": 1 / (1 + 1 / ((3 + mpmath.sqrt(15)) / 3)),
        }[text]
        assert abs(mpmath.mpf(got.numerator) / got.denominator - exact) < mpmath.mpf(2) ** -250
