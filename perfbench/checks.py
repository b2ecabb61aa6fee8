"""Output checks for the benchmark's ops.

Two kinds of check:

* structural invariants, computed by the benchmark itself and valid under
  any seed: closed, strictly convex polygons with primitive, eight-fold
  symmetric edges; scaled polygons that match their integer twin; sorted
  convergence rows with ``bound >= sup_distance``; unimodular Farey
  neighbours with the exact squared radius and the R(Q) of an independent
  totient sieve;
* under the default seed, agreement with the references in
  `reference.json`, recorded from the program before any optimisation:
  byte-identical for exact integer output, floats within `REL_TOL`, and
  convergence distances within the reference row's sampling slack.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import math
import re
from fractions import Fraction

REL_TOL = 1e-9  # relative tolerance for float columns against the reference
ABS_TOL = 1e-12  # absolute floor for floats near zero
SAMPLED_ROWS = 48  # rows kept per float output in the reference


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=ABS_TOL)


def _rows(text: str, header: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"expected header {header!r} and a final newline")
    return [line.split(",") for line in lines[1:-1]]


# ---------------------------------------------------------------------------
# Polygons
# ---------------------------------------------------------------------------


def _turning(edges) -> float:
    total = 0.0
    for (x1, y1), (x2, y2) in zip(edges, edges[1:] + edges[:1]):
        total += math.atan2(x1 * y2 - y1 * x2, x1 * x2 + y1 * y2)
    return total


def _cycle_edges(verts):
    return [(x - px, y - py) for (px, py), (x, y) in zip(verts[-1:] + verts[:-1], verts)]


def check_integer_polygon(verts: list[tuple[int, int]], order: int) -> list[str]:
    problems = []
    if not verts or verts[0] != (0, 0) or verts[-1] != (-1, 0):
        problems.append("not closed: vertices must run from (0, 0) round to (-1, 0)")
        return problems
    edges = _cycle_edges(verts)
    if any(x1 * y2 - y1 * x2 <= 0 for (x1, y1), (x2, y2) in zip(edges, edges[1:] + edges[:1])):
        problems.append("not strictly convex")
    elif abs(_turning(edges) - 2 * math.pi) > 1e-6:
        problems.append("edges do not turn exactly once")
    if any(math.gcd(q, a) != 1 for q, a in edges):
        problems.append("an edge is not a primitive vector")
    if any(max(abs(q), abs(a)) > order for q, a in edges):
        problems.append(f"an edge leaves the box of order {order}")
    edge_set = set(edges)
    if len(edge_set) != len(edges):
        problems.append("repeated edge direction")
    if any((a, q) not in edge_set or (-q, a) not in edge_set for q, a in edges):
        problems.append("edge set is not eight-fold symmetric")
    if not {(1, 0), (0, 1)} <= edge_set:
        problems.append("missing the unit edges")
    return problems


def check_scaled_polygon(verts: list[tuple[float, float]], twin: list[tuple[int, int]] | None) -> list[str]:
    problems = []
    if len(verts) < 4:
        return ["too few vertices"]
    mx = (verts[-1][0] + verts[0][0]) / 2
    my = (verts[-1][1] + verts[0][1]) / 2
    if abs(mx) > ABS_TOL or abs(my + 1) > ABS_TOL:
        problems.append("the (1, 0) edge is not centred on (0, -1)")
    edges = _cycle_edges(verts)
    if any(x1 * y2 - y1 * x2 <= 0 for (x1, y1), (x2, y2) in zip(edges, edges[1:] + edges[:1])):
        problems.append("not strictly convex")
    elif abs(_turning(edges) - 2 * math.pi) > 1e-6:
        problems.append("edges do not turn exactly once")
    if twin is not None:
        # R(Q) = X + Y - 1/2, where (X, Y) is the vertex after the (1, 1) edge.
        tw_edges = _cycle_edges(twin)
        x1, y1 = twin[tw_edges.index((1, 1))]
        r = float(Fraction(2 * (x1 + y1) - 1, 2))
        if len(twin) != len(verts):
            problems.append("vertex count differs from the integer polygon")
        elif any(
            not (_close(sx, (x + 0.5) / r, 1e-12) and _close(sy, (y - r) / r, 1e-12))
            for (sx, sy), (x, y) in zip(verts, twin)
        ):
            problems.append("scaled vertices differ from the integer polygon divided by R(Q)")
    return problems


def parse_polygon(text: str, scaled: bool):
    conv = float if scaled else int
    return [(conv(x), conv(y)) for x, y in _rows(text, "x,y")]


# ---------------------------------------------------------------------------
# Convergence tables and limit curves
# ---------------------------------------------------------------------------


def check_converge(text: str, domain: str, curve: str, orders) -> list[str]:
    rows = _rows(text, "domain,Q,curve,sup_distance,bound")
    problems = []
    if [int(r[1]) for r in rows] != sorted(set(orders)):
        problems.append("rows do not match the requested orders")
    for d, q, c, sup, bound in rows:
        sup, bound = float(sup), float(bound)
        if (d, c) != (domain, curve):
            problems.append(f"row names {d},{c}")
        if not (0 <= sup <= bound < 1):
            problems.append(f"Q={q}: need 0 <= sup_distance <= bound < 1, got {sup!r}, {bound!r}")
    return problems


def check_limit_curve(text: str, samples: int) -> list[str]:
    rows = _rows(text, "lambda,x,y")
    if len(rows) != samples:
        return [f"{len(rows)} rows for {samples} samples"]
    problems = []
    if any(float(r[0]) != i / (samples - 1) for i, r in enumerate(rows)):
        problems.append("lambda column is not the uniform grid")
    pts = [(float(x), float(y)) for _, x, y in rows]
    if not (_close(pts[0][0], 0.0) and _close(pts[0][1], -1.0)):
        problems.append("arc does not start at (0, -1)")
    if any(not (-ABS_TOL <= x <= 1 and -1 - ABS_TOL <= y <= ABS_TOL) for x, y in pts):
        problems.append("arc leaves the fourth quadrant of the unit square")
    d = [(x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in zip(pts, pts[1:])]
    if any(x1 * y2 - y1 * x2 < -1e-15 for (x1, y1), (x2, y2) in zip(d, d[1:])):
        problems.append("arc is not convex")
    return problems


# ---------------------------------------------------------------------------
# Curvature traces
# ---------------------------------------------------------------------------


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


def _slope(text: str) -> Fraction:
    """The slope as a Fraction: exact for rationals, a convergent with a
    denominator above 10**60 for the irrationals (far beyond any order)."""
    if text.startswith("rat:"):
        return Fraction(text[4:])
    if text == "const:inv-sqrt3":
        quotients = _periodic((1,), (1, 2))
    elif text == "const:e-2":
        quotients = _e_minus_2()
    else:
        m = re.fullmatch(r"cf:\[0;([0-9,]*)\(([0-9,]+)\)\]", text)
        if not m:
            raise ValueError(f"no exact slope for {text!r}")
        head = [int(t) for t in m.group(1).split(",") if t]
        quotients = _periodic(head, [int(t) for t in m.group(2).split(",")])
    h_prev, k_prev, h, k = 1, 0, 0, 1
    for b in quotients:
        h_prev, k_prev, h, k = h, k, b * h + h_prev, b * k + k_prev
        if k > 10**60:
            return Fraction(h, k)
    raise AssertionError("unreachable")


def _totient_prefix(n: int) -> list[int]:
    """X(Q) = sum of q * phi(q) for q <= Q, for Q = 0..n."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    out = [0] * (n + 1)
    for q in range(1, n + 1):
        out[q] = out[q - 1] + q * phi[q]
    return out


def check_curvature(text: str, lam_text: str, side: str | None, q_min: int, q_max: int) -> list[str]:
    rows = _rows(text, "Q,q1,q2,r_squared_num,r_squared_den,r_tilde,predicted")
    if [int(r[0]) for r in rows] != list(range(q_min, q_max + 1)):
        return ["orders are not q_min..q_max"]
    lam = _slope(lam_text)
    num, den = lam.numerator, lam.denominator
    lam_f = float(lam)
    shape = math.pi**2 / 6.0 * (1.0 + lam_f * lam_f) ** 1.5
    x_prefix = _totient_prefix(q_max)
    rational = lam_text.startswith("rat:")
    for row in rows:
        order, q1, q2, r_num, r_den = (int(t) for t in row[:5])
        r_tilde, predicted = float(row[5]), float(row[6])
        if not (1 <= q1 <= order and 1 <= q2 <= order < q1 + q2):
            return [f"Q={order}: {q1}, {q2} are not consecutive Farey denominators"]
        # numerators: the largest a/q1 below lam and the smallest a/q2 above,
        # or lam itself on the side a rational cut point sits
        a1 = (num * q1 - 1) // den
        a2 = (num * q2) // den + 1
        if rational and side == "+" and q1 == den:
            a1 = num
        if rational and side == "-" and q2 == den:
            a2 = num
        if a2 * q1 - a1 * q2 != 1:
            return [f"Q={order}: neighbours {a1}/{q1}, {a2}/{q2} are not unimodular"]
        r_sq = Fraction(
            (a1 * a1 + q1 * q1) * (a2 * a2 + q2 * q2) * ((a1 + a2) ** 2 + (q1 + q2) ** 2), 4
        )
        if (r_sq.numerator, r_sq.denominator) != (r_num, r_den):
            return [f"Q={order}: squared radius {r_num}/{r_den}, expected {r_sq}"]
        scale = float(Fraction(3 * x_prefix[order], 2))
        if not _close(r_tilde, math.sqrt(r_sq) / scale, 1e-12):
            return [f"Q={order}: r_tilde {r_tilde!r} does not match R(Q) = {scale!r}"]
        if not _close(predicted, q1 * q2 * (q1 + q2) / order**3 * shape):
            return [f"Q={order}: predicted {predicted!r} is off"]
    return []


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def check_op(op, code: int, out: str, err: str, twin_text: str | None = None) -> list[str]:
    """Structural check of one op's outcome (exit code, stdout, stderr)."""
    if code != op.expect_exit:
        return [f"exit {code}, expected {op.expect_exit}: {err.strip()}"]
    p = op.params
    try:
        if op.kind == "reject":
            ok = out == "" and "argument error" in err
            return [] if ok else ["rejection must be an argument error with no output"]
        if op.kind == "polygon":
            verts = parse_polygon(out, p["scaled"])
            if not p["scaled"]:
                return check_integer_polygon(verts, p["q"])
            twin = parse_polygon(twin_text, False) if twin_text is not None else None
            return check_scaled_polygon(verts, twin)
        if op.kind == "converge":
            return check_converge(out, p["domain"], p["curve"], p["orders"])
        if op.kind == "limit-curve":
            return check_limit_curve(out, p["samples"])
        if op.kind == "curvature":
            return check_curvature(out, p["lam"], p["side"], p["q_min"], p["q_max"])
    except (ValueError, IndexError) as exc:
        return [f"unparseable output: {exc}"]
    raise ValueError(f"unknown op kind {op.kind!r}")


# ---------------------------------------------------------------------------
# References (default seed)
# ---------------------------------------------------------------------------


def _sample_indices(n: int) -> list[int]:
    if n <= SAMPLED_ROWS:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLED_ROWS - 1)) for i in range(SAMPLED_ROWS)})


def reference_entry(op, code: int, out: str, err: str) -> dict:
    """What `compare_reference` needs to judge a later run of the op."""
    lines = out.split("\n")[:-1]
    entry = {"exit": code, "sha256": digest(out), "lines": len(lines), "stderr": err.strip()}
    if code != 0 or op.kind == "reject":
        return entry
    body = lines[1:]
    if op.kind == "converge":
        entry["rows"] = body
    elif op.kind == "curvature":
        entry["int_sha256"] = digest("\n".join(",".join(r.split(",")[:5]) for r in body))
        entry["rows"] = {str(i): body[i] for i in _sample_indices(len(body))}
    elif op.kind == "limit-curve" or (op.kind == "polygon" and op.params["scaled"]):
        entry["rows"] = {str(i): body[i] for i in _sample_indices(len(body))}
    return entry


def _fields_match(got: str, want: str, exact_fields: int) -> bool:
    g, w = got.split(","), want.split(",")
    if len(g) != len(w) or g[:exact_fields] != w[:exact_fields]:
        return False
    return all(_close(float(a), float(b)) for a, b in zip(g[exact_fields:], w[exact_fields:]))


def compare_reference(op, ref: dict, code: int, out: str, err: str) -> list[str]:
    if code != ref["exit"]:
        if op.known_defect and code == 0:
            return []  # the recorded defect is fixed; the structural check decides
        return [f"exit {code}, the reference exited {ref['exit']}"]
    if code != 0 or op.kind == "reject":
        return [] if err.strip() == ref["stderr"] else [f"stderr {err.strip()!r} differs from the reference"]
    if digest(out) == ref["sha256"]:
        return []
    body = out.split("\n")[1:-1]
    if len(body) + 1 != ref["lines"]:
        return [f"{len(body) + 1} lines, the reference has {ref['lines']}"]
    if op.kind == "polygon" and not op.params["scaled"]:
        return ["integer polygon differs from the reference bytes"]
    if op.kind == "converge":
        problems = []
        for got, want in zip(body, ref["rows"]):
            g, w = got.split(","), want.split(",")
            sup, ref_sup, ref_bound = float(g[3]), float(w[3]), float(w[4])
            if g[:3] != w[:3]:
                problems.append(f"row {got} names differ from {want}")
            elif abs(sup - ref_sup) > (ref_bound - ref_sup) + REL_TOL * ref_sup:
                problems.append(f"row {got}: sup_distance outside the reference slack of {want}")
        return problems
    exact = 5 if op.kind == "curvature" else (1 if op.kind == "limit-curve" else 0)
    if op.kind == "curvature":
        ints = digest("\n".join(",".join(r.split(",")[:5]) for r in body))
        if ints != ref["int_sha256"]:
            return ["integer columns differ from the reference bytes"]
    bad = [i for i, row in ref["rows"].items() if not _fields_match(body[int(i)], row, exact)]
    return [f"rows {bad[:5]} differ from the reference beyond {REL_TOL}"] if bad else []
