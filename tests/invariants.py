"""Structural invariants of the command outputs, valid for every accepted
input: each check takes an output's text and returns a list of problems,
empty when the output passes.

* polygon: closed, strictly convex, primitive edges in the order's box,
  an edge set that is eight-fold symmetric (the scaled polygon's edges are
  the integer edges over one scale, recovered and checked the same way);
* limit curve: the uniform lambda grid, an arc from (0, -1) that stays in
  the fourth quadrant of the unit square, ends on the diagonal and is
  convex;
* converge: one row per requested order, 0 <= sup_distance <= bound;
* curvature: consecutive orders, consecutive Farey denominators whose
  numerators, read off the exact slope, make unimodular neighbours, and
  the exact squared radius of those neighbours.

The slope of a curvature trace is read from its literal by `slope_fraction`,
within 2^-256 for the irrationals, independently of `jarnik.number_theory`.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import islice

_SVG = "{http://www.w3.org/2000/svg}"


def svg_path_problems(text: str, closed: bool) -> list[str]:
    """A well-formed SVG whose path starts with a move, and for a polygon
    ends closed."""
    path = ET.fromstring(text).find(f"{_SVG}path")
    d = "" if path is None else path.get("d", "")
    if not d.startswith("M ") or closed and not d.endswith(" Z"):
        return ["no closed path" if closed else "no path"]
    return []


def _rows(text: str, header: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"expected header {header!r} and a final newline")
    return [line.split(",") for line in lines[1:-1]]


# ---------------------------------------------------------------------------
# Polygons
# ---------------------------------------------------------------------------


def _edge_problems(edges: list[tuple[int, int]], order: int) -> list[str]:
    problems = []
    turns = list(zip(edges, edges[1:] + edges[:1]))
    if any(x1 * y2 - y1 * x2 <= 0 for (x1, y1), (x2, y2) in turns):
        problems.append("not strictly convex")
    else:
        turning = sum(math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2) for (x1, y1), (x2, y2) in turns)
        if abs(turning - 2 * math.pi) > 1e-6:
            problems.append("edges do not turn exactly once")
    if any(math.gcd(q, a) != 1 for q, a in edges):
        problems.append("an edge is not primitive")
    if any(max(abs(q), abs(a)) > order for q, a in edges):
        problems.append(f"an edge leaves the box of order {order}")
    edge_set = set(edges)
    if len(edge_set) != len(edges):
        problems.append("repeated edge")
    if any((a, q) not in edge_set or (-a, q) not in edge_set for q, a in edges):
        problems.append("edge set is not eight-fold symmetric")
    return problems


def _cycle_edges(verts):
    return [(x - px, y - py) for (px, py), (x, y) in zip(verts[-1:] + verts[:-1], verts)]


def polygon_problems(text: str, order: int, scaled: bool) -> list[str]:
    """The vertex CSV of `polygon`: integer vertices from (0, 0) round to
    (-1, 0), or scaled ones whose (1, 0) edge is centred on (0, -1)."""
    conv = float if scaled else int
    verts = [(conv(x), conv(y)) for x, y in _rows(text, "x,y")]
    if len(verts) < 4:
        return [f"{len(verts)} vertices"]
    if not scaled:
        if verts[0] != (0, 0) or verts[-1] != (-1, 0):
            return ["not closed: vertices must run from (0, 0) round to (-1, 0)"]
        return _edge_problems(_cycle_edges(verts), order)
    (x0, y0), (x1, y1) = verts[-1], verts[0]
    if abs(x0 + x1) > 1e-12 or abs(y0 + 1) > 1e-12 or abs(y1 + 1) > 1e-12:
        return ["the (1, 0) edge is not centred on (0, -1)"]
    scale = 1.0 / (x1 - x0)  # R(Q): the (1, 0) edge has length 1/R(Q)
    float_edges = [(dx * scale, dy * scale) for dx, dy in _cycle_edges(verts)]
    edges = [(round(dx), round(dy)) for dx, dy in float_edges]
    if any(abs(dx - q) > 1e-6 or abs(dy - a) > 1e-6 for (dx, dy), (q, a) in zip(float_edges, edges)):
        return ["scaled edges are not integer vectors over one scale"]
    return _edge_problems(edges, order)


# ---------------------------------------------------------------------------
# Limit curves and convergence tables
# ---------------------------------------------------------------------------


def limit_curve_problems(text: str, samples: int) -> list[str]:
    """The uniform lambda grid, and an arc from (0, -1) in the fourth
    quadrant of the unit square, to the diagonal, convex."""
    rows = _rows(text, "lambda,x,y")
    if len(rows) != samples:
        return [f"{len(rows)} rows for {samples} samples"]
    if any(float(row[0]) != i / (samples - 1) for i, row in enumerate(rows)):
        return ["lambda column is not the uniform grid"]
    pts = [(float(x), float(y)) for _, x, y in rows]
    problems = []
    if pts[0] != (0.0, -1.0):
        problems.append(f"arc starts at {pts[0]}, not (0, -1)")
    if any(not (-1e-12 <= x <= 1 + 1e-12 and -1 - 1e-12 <= y <= 1e-12) for x, y in pts):
        problems.append("arc leaves the fourth quadrant of the unit square")
    if abs(pts[-1][0] + pts[-1][1]) > 1e-9:
        problems.append(f"arc ends at {pts[-1]}, off the diagonal")
    steps = [(x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in zip(pts, pts[1:])]
    if any(x1 * y2 - y1 * x2 < -1e-15 for (x1, y1), (x2, y2) in zip(steps, steps[1:])):
        problems.append("arc is not convex")
    return problems


def limit_curve_svg_problems(text: str, samples: int) -> list[str]:
    """Eight images of `samples` points each, all in the square [-1, 1]^2
    (to the six places written)."""
    path = ET.fromstring(text).find(f"{_SVG}path")
    images = [part.split(" L ") for part in path.get("d")[2:].split(" M ")]
    if len(images) != 8 or any(len(image) != samples for image in images):
        return ["not eight images of one point per sample"]
    coords = [float(v) for image in images for point in image for v in point.split(" ")]
    if any(abs(v) > 1.0 for v in coords):
        return ["a point leaves the square [-1, 1]^2"]
    return []


def converge_problems(text: str, domain: str, curve: str, orders: list[int]) -> list[str]:
    rows = _rows(text, "domain,Q,curve,sup_distance,bound")
    problems = []
    if [int(row[1]) for row in rows] != sorted(set(orders)):
        problems.append("rows do not match the requested orders")
    for d, q, c, sup, bound in rows:
        if (d, c) != (domain, curve):
            problems.append(f"Q={q}: row names {d},{c}")
        if not 0 <= float(sup) <= float(bound) < math.inf:
            problems.append(f"Q={q}: need 0 <= sup_distance <= bound, got {sup}, {bound}")
    return problems


# ---------------------------------------------------------------------------
# Curvature traces
# ---------------------------------------------------------------------------

_SURD = re.compile(r"surd:\((-?\d+)\+sqrt\((\d+)\)\)/(\d+)")
_CF = re.compile(r"cf:\[0;([0-9,]*?),?\(([0-9,]+)\)\]")
_ONE = 1 << 256


def _periodic(head, cycle):
    yield from head
    while True:
        yield from cycle


def _e_minus_2():
    yield 1
    k = 2
    while True:
        yield from (k, 1, 1)
        k += 2


def slope_fraction(text: str) -> Fraction:
    """The slope of a curvature literal: exact for `rat:`, within 2^-256
    otherwise."""
    if text.startswith("rat:"):
        return Fraction(text[4:])
    if text == "const:inv-sqrt3":
        return Fraction(math.isqrt(3 * _ONE * _ONE), 3 * _ONE)
    m = _SURD.fullmatch(text)
    if m:
        p, d, q = map(int, m.groups())
        return (p + Fraction(math.isqrt(d * _ONE * _ONE), _ONE)) / q
    if text == "const:e-2":
        quotients = _e_minus_2()
    else:
        m = _CF.fullmatch(text)
        if not m:
            raise ValueError(f"no slope for {text!r}")
        head = [int(t) for t in m.group(1).split(",") if t]
        quotients = _periodic(head, [int(t) for t in m.group(2).split(",")])
    h_prev, k_prev, h, k = 1, 0, 0, 1
    for b in islice(quotients, 10_000):
        h_prev, k_prev, h, k = h, k, b * h + h_prev, b * k + k_prev
        if k * k > _ONE:
            return Fraction(h, k)
    raise ValueError(f"no convergent of {text!r} reached 2^128")


def curvature_problems(text: str, lam_text: str, side: str | None, q_min: int, q_max: int) -> list[str]:
    rows = _rows(text, "Q,q1,q2,r_squared_num,r_squared_den,r_tilde,predicted")
    if [int(row[0]) for row in rows] != list(range(q_min, q_max + 1)):
        return ["orders are not q_min..q_max"]
    lam = slope_fraction(lam_text)
    for row in rows:
        order, q1, q2, r_num, r_den = (int(t) for t in row[:5])
        if not (1 <= q1 <= order and 1 <= q2 <= order < q1 + q2):
            return [f"Q={order}: {q1}, {q2} are not consecutive Farey denominators"]
        # the left neighbour is lam itself on the + side of a rational, the
        # right one on its - side; otherwise both lie strictly beside lam
        a1 = math.floor(lam * q1) if side == "+" else math.ceil(lam * q1) - 1
        a2 = math.ceil(lam * q2) if side == "-" else math.floor(lam * q2) + 1
        if a2 * q1 - a1 * q2 != 1:
            return [f"Q={order}: neighbours {a1}/{q1}, {a2}/{q2} are not unimodular"]
        r_sq = Fraction((a1 * a1 + q1 * q1) * (a2 * a2 + q2 * q2) * ((a1 + a2) ** 2 + (q1 + q2) ** 2), 4)
        if (r_sq.numerator, r_sq.denominator) != (r_num, r_den):
            return [f"Q={order}: squared radius {r_num}/{r_den}, expected {r_sq}"]
        if not (0 < float(row[5]) < math.inf and 0 < float(row[6]) < math.inf):
            return [f"Q={order}: r_tilde and predicted must be positive and finite"]
    return []

