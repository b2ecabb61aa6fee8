"""Command-line front end.

Subcommands:

    polygon      build a polygon and emit its vertices (csv or svg)
    limit-curve  sample a limit curve's fundamental arc
    converge     sup-distance table of scaled polygons against a curve
    curvature    scaled local-radius trace over a range of orders
    selftest     run the embedded exact-value checks

Outputs are deterministic byte-for-byte for identical invocations.  Files
are written to a temporary name and atomically renamed, so a failing run
never leaves a partial artifact.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from . import analysis, curvature, domains, limit_curves, number_theory, polygon

# Caps on what one command may cost; the README gives each one's time and RSS.
# Largest order for `polygon` and `converge`: a polygon of order Q has about
# 2.4 Q^2 vertices, held as its fundamental arc of about 0.3 Q^2 edges and
# written one eighth of its cycle at a time.
MAX_ORDER = 900
# Largest `curvature --q-max`: the ladder's own bound.  The CSV is written a
# block of 4096 orders at a time, so what grows with the order is the R(Q)
# ladder, an int64 array; the SVG also holds r_tilde and the text of every
# point.
MAX_TRACE_ORDER = curvature.MAX_LADDER_ORDER
# Largest `--samples` of `limit-curve` and `converge`: an arc is sampled as
# one array.
MAX_SAMPLES = 2**20
# Largest numerator m and denominator n of a ball exponent: membership takes
# m-th powers and, for n >= 4, n-th integer roots (n <= 3 is a polynomial
# comparison).
MAX_BALL_NUMERATOR = 200
MAX_BALL_DENOMINATOR = 10


def _write_artifact(chunks: Iterable[str], path: str | None) -> None:
    """Write the chunks to stdout, or to a temporary file beside `path`, opened
    before the first chunk is drawn and renamed onto `path` after the last."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: Is a directory")
    if not os.path.basename(path):  # "" or a path ending in a separator
        raise ValueError(f"cannot write {path}: No file name")
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".jarnik-tmp-")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        # mkstemp made the file 0600; give it the mode open() gives a new file
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _capped(cap: int, name: str, what: str = "order") -> Callable[[str], int]:
    """An argparse type for integers in 1..cap; `name` is the cap's name and
    `what` the kind of number in messages."""

    def bounded(raw: str) -> int:
        value = int(raw)
        if not 1 <= value <= cap:
            raise argparse.ArgumentTypeError(f"{what} {value} is outside 1..{cap} ({name})")
        return value

    bounded.__name__ = what  # argparse says "invalid <what> value: ..."
    return bounded


_order = _capped(MAX_ORDER, "MAX_ORDER")
_samples = _capped(MAX_SAMPLES, "MAX_SAMPLES", "samples")


# _parse_domain and _parse_curve quote the argument as typed when they refuse
# it, and so does the pairing check of _cmd_converge: its Fraction may have
# thousands of digits (ball:1e300), more than str() will convert.
def _parse_domain(raw: str) -> domains.DomainSpec:
    spec = domains.parse_domain(raw)
    p = spec.param
    if spec.kind == "ball" and (p.numerator > MAX_BALL_NUMERATOR or p.denominator > MAX_BALL_DENOMINATOR):
        raise ValueError(
            f"the ball exponent of {raw} needs a numerator at most {MAX_BALL_NUMERATOR} (MAX_BALL_NUMERATOR) "
            f"and a denominator at most {MAX_BALL_DENOMINATOR} (MAX_BALL_DENOMINATOR)"
        )
    return spec


def _parse_curve(raw: str) -> limit_curves.LimitCurve:
    """A curve whose arc is finite in float64 at lambda = 0 and 1, and so on
    all of [0, 1]: its denominators and beta factors are monotone or
    constant in lambda.  Cp:1/390 (whose B(1/p, 2/p) underflows to 0),
    Cdelta:1e-162 and Cdelta:1e103 fail."""
    curve = limit_curves.parse_curve(raw)
    try:
        with np.errstate(all="ignore"):
            finite = np.isfinite(curve.points([0.0, 1.0])).all()
    except ArithmeticError:
        finite = False
    if not finite:
        raise ValueError(f"curve {raw} is not finite in float64 at lambda = 0 or 1")
    return curve


def _parse_q_list(raw: str) -> list[int]:
    orders = [_order(tok) for tok in raw.split(",") if tok]
    if not orders:
        raise argparse.ArgumentTypeError("need at least one order")
    return orders


_parse_q_list.__name__ = "order list"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jarnik",
        description="Lattice polygons from primitive-vector regions, their "
        "limit curves, and local curvature traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("polygon", help="build a polygon and export its vertices")
    p_poly.add_argument("--domain", required=True, help="square | diamond | octagon:<d> | ball:<p>, "
                        f"p = m/n with m <= {MAX_BALL_NUMERATOR} and n <= {MAX_BALL_DENOMINATOR}")
    p_poly.add_argument("--q", required=True, type=_order, help=f"order 1 <= Q <= {MAX_ORDER}")
    p_poly.add_argument("--scaled", action="store_true", help="emit the rescaled, centered polygon")
    p_poly.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_poly.add_argument("--output", help="output path (default: stdout)")

    p_curve = sub.add_parser("limit-curve", help="sample a limit curve's fundamental arc")
    p_curve.add_argument("--curve", required=True, help="C | C1 | Cdelta:<d> | Cp:<p>")
    p_curve.add_argument("--samples", type=_samples, default=256,
                         help=f"arc samples, 2 to {MAX_SAMPLES}")
    p_curve.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_curve.add_argument("--output", help="output path (default: stdout)")

    p_conv = sub.add_parser("converge", help="distance table of scaled polygons to a curve")
    p_conv.add_argument("--domain", required=True)
    p_conv.add_argument("--curve", required=True)
    p_conv.add_argument("--q-list", required=True, type=_parse_q_list,
                        help=f"comma-separated orders up to {MAX_ORDER}, e.g. 50,100,200")
    p_conv.add_argument("--samples", type=_samples, default=2**14,
                        help=f"curve samples, 1000 to {MAX_SAMPLES}")
    p_conv.add_argument("--output", help="output path (default: stdout)")

    p_curv = sub.add_parser("curvature", help="trace of scaled local radii over a range of orders")
    p_curv.add_argument("--lambda", dest="lam", required=True,
                        help="rat:a/b | surd:(P+sqrt(D))/Q | const:e-2 | const:inv-sqrt3 | cf:[0;...]")
    p_curv.add_argument("--side", choices=("+", "-"), help="required for rational slopes")
    p_curv.add_argument("--q-min", type=int, default=2)
    p_curv.add_argument("--q-max", required=True, type=_capped(MAX_TRACE_ORDER, "MAX_TRACE_ORDER"),
                        help=f"largest order, at most {MAX_TRACE_ORDER}")
    p_curv.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_curv.add_argument("--output", help="output path (default: stdout)")

    sub.add_parser("selftest", help="run the embedded exact-value checks")
    return parser


# The parser `run` uses, built on its first call and kept for the process:
# parse_args returns a fresh Namespace each time, and argparse looks up
# sys.stdout, sys.stderr and the terminal width only when it prints.
_parser = functools.cache(build_parser)


def _cmd_polygon(args: argparse.Namespace) -> Iterator[str]:
    spec = _parse_domain(args.domain)
    shape = polygon.build_polygon(spec, args.q)
    if args.scaled:
        shape = polygon.scale_polygon(shape)
    yield from (polygon.polygon_csv_chunks if args.format == "csv" else polygon.polygon_svg_chunks)(shape)


def _cmd_limit_curve(args: argparse.Namespace) -> Iterator[str]:
    curve = _parse_curve(args.curve)
    yield from (limit_curves.curve_csv_chunks if args.format == "csv" else limit_curves.curve_svg_chunks)(
        curve, args.samples
    )


def _cmd_converge(args: argparse.Namespace) -> Iterator[str]:
    spec = _parse_domain(args.domain)
    curve = _parse_curve(args.curve)
    analysis.check_pairing(spec, curve, (args.domain, args.curve))
    records = analysis.convergence_table(spec, args.q_list, curve, samples=args.samples)
    yield analysis.convergence_csv(records)


def _cmd_curvature(args: argparse.Namespace) -> Iterator[str]:
    lam = number_theory.parse_real(args.lam)
    yield from (curvature.trace_lines if args.format == "csv" else curvature.trace_svg_chunks)(
        lam, args.q_min, args.q_max, side=args.side
    )


def _selftest_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    p4 = polygon.build_polygon(domains.square(), 4)
    v4 = p4.edges()
    record("48 primitive vectors at order 4", len(v4) == 48, f"got {len(v4)}")

    head = p4.vertices[:7]
    want = ((0, 0), (4, 1), (7, 2), (9, 3), (12, 5), (16, 8), (17, 9))
    record("order-4 polygon fundamental arc vertices", head == want, f"got {head}")

    # the vertex where the arc passes slope 1/sqrt(3): the end of the arc
    # edge (q1, a1) that the Farey-neighbour walk gives at order 4
    ((_, _, a1, q1, _, _),) = number_theory.farey_neighbor_runs(number_theory.INV_SQRT3, 4, 4)
    arc = zip(p4.q.tolist(), p4.a.tolist())
    ends = [tuple(v) for edge, v in zip(arc, p4.octant[1:].tolist()) if edge == (q1, a1)]
    record("fundamental vertex (9, 3) at slope 1/sqrt(3)", ends == [(9, 3)], f"got {ends}")

    def order_4_row(lam, side=None) -> list[str]:  # Q,q1,q2,num,den,r_tilde,predicted
        return "".join(curvature.trace_lines(lam, 4, 4, side)).splitlines()[1].split(",")

    row = order_4_row(number_theory.INV_SQRT3)
    record("r^2 1105/2 at the vertex (9, 3): the order-4 row of 1/sqrt(3)",
           row[:5] == ["4", "2", "3", "1105", "2"], f"got {','.join(row[:5])}")
    row_b = order_4_row(Fraction(1, 3), "+")
    record("r^2 725/2 at the vertex (7, 2): the order-4 row of 1/3, side +",
           row_b[:5] == ["4", "3", "2", "725", "2"], f"got {','.join(row_b[:5])}")
    r_tilde = repr(math.sqrt(int(row[3]) / int(row[4])) / float(p4.scale))
    record("integer row of 1/sqrt(3) at order 4: r_tilde = sqrt(num/den)/R(4), R(4) = 51/2",
           p4.scale == Fraction(51, 2) and row[5] == r_tilde,
           f"got R(4) = {p4.scale}, r_tilde {row[5]}, not {r_tilde}")

    a, q = number_theory.farey_fractions(4)
    farey4 = list(zip(a.tolist(), q.tolist()))
    want_farey = [(1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 1)]
    record("order-4 Farey sequence", farey4 == want_farey, f"got {farey4}")

    ((_, _, a1, q1, a2, q2),) = number_theory.farey_neighbor_runs(number_theory.INV_SQRT3, 15, 15)
    record(
        "Farey neighbors of 1/sqrt(3) at order 15",
        (a1, q1, a2, q2) == (4, 7, 7, 12),
        f"got {a1}/{q1}, {a2}/{q2}",
    )

    cf = tuple(itertools.islice(number_theory.INV_SQRT3.quotients(), 12))
    record("continued fraction of 1/sqrt(3)", cf == (1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1), f"got {cf}")
    cf_e = tuple(itertools.islice(number_theory.E_MINUS_2.quotients(), 12))
    record("continued fraction of e-2", cf_e == (1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1), f"got {cf_e}")

    x, y = limit_curves.LimitCurve("C1").point(0.37)
    resid = abs(math.sqrt(1 - abs(x)) + math.sqrt(1 - abs(y)) - 1)
    record("diamond limit-curve identity", resid < 1e-12, f"residual {resid:.2e}")

    cx, cy = limit_curves.LimitCurve("Cp", 2).point(0.7)
    circ = abs(cx * cx + cy * cy - 1)
    record("ball(2) limit curve is the unit circle", circ < 1e-9, f"residual {circ:.2e}")

    # the C1 arc at lambda = 1, (u, w - 1) of the diamond's wedge moments
    u, w = limit_curves.polygon_wedge(*domains.diamond().slope, Fraction(1))
    record("C1 arc end point (3/4, -3/4)", (u, w - 1) == (Fraction(3, 4), Fraction(-3, 4)),
           f"got ({u}, {w - 1})")
    return checks


def _cmd_selftest() -> tuple[str, bool]:
    checks = _selftest_checks()
    lines = []
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        suffix = "" if ok else f"  ({detail})"
        lines.append(f"{status}  {name}{suffix}")
    lines.append(f"{sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n", all_ok


# Each command is a generator of output chunks, so its work starts after
# _write_artifact has opened the output.
_COMMANDS = {"polygon": _cmd_polygon, "limit-curve": _cmd_limit_curve,
             "converge": _cmd_converge, "curvature": _cmd_curvature}


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage
        return int(exc.code or 0)
    try:
        if args.command == "selftest":
            text, ok = _cmd_selftest()
            sys.stdout.write(text)
            return 0 if ok else 1
        _write_artifact(_COMMANDS[args.command](args), args.output)
    except ValueError as exc:
        print(f"jarnik: argument error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"jarnik: computation failed: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone: exit 1 quietly, stdout pointed at
        # /dev/null so that the flush at exit fails no more (the recipe of
        # the Python docs' note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
