"""The benchmark's workloads: fixed-shape command sets for `jarnik.cli.run`.

Each workload is a list of ops, one CLI invocation each.  The seed picks
the orders inside narrow bands around fixed base sizes; seed 0 gives the
base sizes themselves, and the reference outputs in `reference.json` were
recorded for that set.  Offsets are a seeded permutation of a zero-sum set,
so every seed does about the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    """One CLI call and what its correct outcome is.

    `kind` selects the output check.  `known_defect` marks an op that the
    program is known to fail: its documented failure (exit 1 with the
    message in `known_message`) is counted against `ops_ok` but is not a
    benchmark error; any other failure is.
    """

    kind: str  # polygon | converge | limit-curve | curvature | reject
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)
    expect_exit: int = 0
    known_defect: bool = False
    known_message: str = ""

    @property
    def label(self) -> str:
        return "jarnik " + " ".join(self.argv)


def _offsets(rng: random.Random, spread: tuple[int, ...], count: int) -> list[int]:
    """`count` offsets, a shuffled copy of the zero-sum `spread` (cycled)."""
    pool = [spread[i % len(spread)] for i in range(count)]
    rng.shuffle(pool)
    return pool


def _rng(workload: str, seed: int) -> random.Random | None:
    return None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")


def _pick(rng: random.Random | None, spread: tuple[int, ...], count: int) -> list[int]:
    return [0] * count if rng is None else _offsets(rng, spread, count)


# polygons ------------------------------------------------------------------

POLYGON_BASES = (("square", 70), ("diamond", 90), ("octagon:2", 80), ("ball:2", 80), ("ball:5/3", 70))
POLYGON_SPREAD = (-4, -2, 0, 2, 4)
BOUNDARY_DOMAIN = "ball:1/3"
BOUNDARY_ORDERS = (16, 54, 100)  # 16 and 54 fail at a boundary tie
BOUNDARY_FAILING = (16, 54)
BOUNDARY_MESSAGE = "membership comparison did not separate"


def polygon_ops(seed: int) -> list[Op]:
    offsets = _pick(_rng("polygons", seed), POLYGON_SPREAD, len(POLYGON_BASES))
    ops = []
    for (domain, base), off in zip(POLYGON_BASES, offsets):
        q = base + off
        for scaled in (False, True):
            argv = ("polygon", "--domain", domain, "--q", str(q)) + (("--scaled",) if scaled else ())
            ops.append(Op("polygon", argv, {"domain": domain, "q": q, "scaled": scaled}))
    for q in BOUNDARY_ORDERS:
        argv = ("polygon", "--domain", BOUNDARY_DOMAIN, "--q", str(q), "--scaled")
        ops.append(
            Op(
                "polygon",
                argv,
                {"domain": BOUNDARY_DOMAIN, "q": q, "scaled": True},
                known_defect=q in BOUNDARY_FAILING,
                known_message=BOUNDARY_MESSAGE if q in BOUNDARY_FAILING else "",
            )
        )
    return ops


# converge ------------------------------------------------------------------

CONVERGE_PAIRS = (
    ("square", "C"),
    ("diamond", "C1"),
    ("octagon:2", "Cdelta:2"),
    ("ball:2", "Cp:2"),
    ("ball:3", "Cp:3"),
    ("ball:5/3", "Cp:5/3"),
)
CONVERGE_ORDERS = (30, 60)
CONVERGE_SPREAD = ((-2, -1, 0, 1, 2), (-3, -2, 0, 2, 3))
CONVERGE_SAMPLES = 4096
CURVE_OP = ("Cp:3", 20000)
CURVE_SPREAD = (-400, -200, 0, 200, 400)


def converge_ops(seed: int) -> list[Op]:
    rng = _rng("converge", seed)
    low = _pick(rng, CONVERGE_SPREAD[0], len(CONVERGE_PAIRS))
    high = _pick(rng, CONVERGE_SPREAD[1], len(CONVERGE_PAIRS))
    ops = []
    for (domain, curve), lo, hi in zip(CONVERGE_PAIRS, low, high):
        orders = (CONVERGE_ORDERS[0] + lo, CONVERGE_ORDERS[1] + hi)
        argv = (
            "converge", "--domain", domain, "--curve", curve,
            "--q-list", ",".join(map(str, orders)), "--samples", str(CONVERGE_SAMPLES),
        )
        ops.append(Op("converge", argv, {"domain": domain, "curve": curve, "orders": orders}))
    curve, samples = CURVE_OP
    samples += 0 if rng is None else rng.choice(CURVE_SPREAD)
    argv = ("limit-curve", "--curve", curve, "--samples", str(samples))
    ops.append(Op("limit-curve", argv, {"curve": curve, "samples": samples}))
    return ops


# curvature -----------------------------------------------------------------

CURVATURE_SLOPES = (
    ("const:inv-sqrt3", None),
    ("const:e-2", None),
    ("cf:[0;1,(2,3)]", None),
    ("rat:2/5", "-"),
)
CURVATURE_Q_MIN = 5
CURVATURE_Q_MAX = 12000
CURVATURE_SPREAD = (-300, -150, 0, 150, 300)
MALFORMED_SLOPE = "surd:(1+sqrt(5))/2"


def curvature_ops(seed: int) -> list[Op]:
    offsets = _pick(_rng("curvature", seed), CURVATURE_SPREAD, len(CURVATURE_SLOPES) + 1)
    ops = []
    for (lam, side), off in zip(CURVATURE_SLOPES, offsets):
        q_max = CURVATURE_Q_MAX + off
        argv = ("curvature", "--lambda", lam) + (("--side", side) if side else ()) + (
            "--q-min", str(CURVATURE_Q_MIN), "--q-max", str(q_max),
        )
        ops.append(
            Op("curvature", argv, {"lam": lam, "side": side, "q_min": CURVATURE_Q_MIN, "q_max": q_max})
        )
    # A slope outside (0, 1): the correct outcome is an argument error.
    argv = ("curvature", "--lambda", MALFORMED_SLOPE, "--q-max", str(CURVATURE_Q_MAX + offsets[-1]))
    ops.append(Op("reject", argv, expect_exit=2))
    return ops


WORKLOADS = {
    "polygons": polygon_ops,
    "converge": converge_ops,
    "curvature": curvature_ops,
}


def ops_for(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)
