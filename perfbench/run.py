"""Benchmark of the jarnik command line.

    python3 perfbench/run.py --workload polygons --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  One run:

1. times ``import jarnik, jarnik.cli`` in fresh interpreters (`setup_s`);
2. imports the package and runs the workload's ops once, untimed, through
   `jarnik.cli.run` (warm-up; its outputs are the ones checked);
3. repeats the ops back to back for ``--seconds`` seconds, one pass after
   another, and checks that every op gives the same exit code and bytes as
   in the warm-up pass;
4. checks the warm-up outputs (`checks.py`) and prints one line per op, a
   record of the environment, and as the last line the result JSON.

With ``--trace 1`` the timed passes alternate between untraced and traced
(`tracing.py`), and the result holds the per-layer metrics instead of the
end-to-end ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

import checks
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, ops_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5
MIN_PASSES = 3
CAL_ITEMS = 10000  # about 30 ms of calibration work at full speed
CAL_REF_S = 0.030
SETUP_IMPORT = "import jarnik, jarnik.cli"
SETUP_CAL_IMPORT = (
    "import argparse, asyncio, decimal, email.message, fractions, http.client, json, "
    "logging, pydoc, statistics, tarfile, unittest, xml.etree.ElementTree"
)
SETUP_CAL_REF_S = 0.150


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    seconds: float
    norm: float = 0.0  # `seconds` normalised to the reference speed

    def key(self) -> tuple:
        return (self.code, checks.digest(self.out), self.err)


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work (integer gcds,
    Fractions, tuples and a sort, like the program's own inner loops).

    The machine's speed drifts by up to 2x with the load of other tenants,
    over milliseconds and over minutes alike.  Timing this loop next to
    every op measures that drift, and `normalise` divides it out.
    """
    gc.disable()  # the loop makes no cycles; keep collections of the program's heap out
    try:
        t0 = time.perf_counter()
        acc = 0
        items = []
        for i in range(1, CAL_ITEMS):
            acc += math.gcd(i, 360360)
            items.append((i * 7919 % 1000, Fraction(i % 97, 1 + i % 89)))
        items.sort()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def normalise(seconds: float, cal_before: float, cal_after: float, ref: float = CAL_REF_S) -> float:
    """`seconds` at the reference speed, where the calibration takes `ref`."""
    return seconds * ref / ((cal_before + cal_after) / 2)


def run_op(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except Exception:  # a crash is a failed op, not a failed benchmark
            traceback.print_exc()
            code = -1
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def run_pass(cli, ops, tracer=None) -> list[Outcome]:
    """The ops back to back, each with a calibration on either side.

    Each op starts from a collected heap, as a fresh `jarnik` process
    would: otherwise the garbage collector's counters carry over from op
    to op, and an op's time depends on what ran before it.
    """
    outcomes = []
    cal = calibrate()
    call = run_op if tracer is None else tracer.span("cli.run", run_op)
    for op in ops:
        gc.collect()
        o = call(cli, op.argv)
        after = calibrate()
        o.norm = normalise(o.seconds, cal, after)
        cal = after
        outcomes.append(o)
    return outcomes


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that run `import jarnik, jarnik.cli`,
    raw and normalised.

    Each is normalised by the times of fresh interpreters that import a
    fixed set of standard-library modules, run just before and after it:
    that is the same kind of work (finding, unmarshalling and executing
    modules), which the calibration loop of `run_pass` does not track.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def once(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120)
        return time.perf_counter() - t0

    once(SETUP_IMPORT)  # writes the bytecode caches of a fresh checkout
    raw, norm = [], []
    cal = once(SETUP_CAL_IMPORT)
    for _ in range(SETUP_SAMPLES):
        seconds = once(SETUP_IMPORT)
        after = once(SETUP_CAL_IMPORT)
        raw.append(seconds)
        norm.append(normalise(seconds, cal, after, SETUP_CAL_REF_S))
        cal = after
    return raw, norm


def source_identity() -> dict:
    """The git commit when there is one, and a digest of the sources."""
    h = hashlib.sha256()
    for path in sorted((SRC / "jarnik").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            commit = None
    return {"commit": commit, "src_sha256": h.hexdigest()}


def probe_points(cli, ops) -> int:
    """Points a `converge` op measures: vertices and edge midpoints of
    every polygon in its table, counted from the `polygon` command."""
    total = 0
    for op in ops:
        if op.kind == "converge":
            for q in op.params["orders"]:
                poly = run_op(cli, ("polygon", "--domain", op.params["domain"], "--q", str(q)))
                total += 2 * (poly.out.count("\n") - 1)
    return total


def items_per_pass(workload: str, cli, ops, first: list[Outcome]) -> int:
    if workload == "converge":
        return probe_points(cli, ops)
    kind = "polygon" if workload == "polygons" else "curvature"
    return sum(o.out.count("\n") - 1 for op, o in zip(ops, first) if op.kind == kind and o.code == 0)


def judge(ops, first, reference) -> list[tuple[str, list[str]]]:
    """(status, problems) per op: ok, known-failure or failed."""
    texts = {(op.params.get("domain"), op.params.get("q")): o.out
             for op, o in zip(ops, first)
             if op.kind == "polygon" and not op.params["scaled"] and o.code == 0}
    verdicts = []
    for op, o in zip(ops, first):
        if op.known_defect and o.code == 1 and op.known_message in o.err:
            verdicts.append(("known-failure", [o.err.strip()]))
            continue
        twin = texts.get((op.params.get("domain"), op.params.get("q"))) if op.kind == "polygon" else None
        problems = checks.check_op(op, o.code, o.out, o.err, twin)
        if reference is not None:
            ref = reference["ops"].get(op.label)
            if ref is None:
                problems.append("no reference recorded for this op")
            else:
                problems += checks.compare_reference(op, ref, o.code, o.out, o.err)
        verdicts.append(("failed" if problems else "ok", problems))
    return verdicts


def run_all(args) -> int:
    """Every workload in its own process, then one summary line whose
    metrics are named <workload>.<metric>."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jarnik" / "cli.py").is_file():
        print(f"perfbench: no jarnik sources at {SRC / 'jarnik'}; run from a source checkout",
              file=sys.stderr)
        return 1

    if args.workload == "all":
        return run_all(args)

    threads = min(2, os.cpu_count() or 1)
    os.environ["JARNIK_THREADS"] = str(threads)
    setup_raw, setup = ([], []) if args.trace else measure_setup()  # an end-to-end metric only

    sys.path.insert(0, str(SRC))
    import jarnik
    import jarnik.cli as cli
    import numpy
    import scipy

    ops = ops_for(args.workload, args.seed)
    reference = json.loads(REFERENCE.read_text()) if args.seed == DEFAULT_SEED else None

    first = run_pass(cli, ops)  # warm-up; the checked outputs
    expected = [o.key() for o in first]
    tracer = tracing.Tracer() if args.trace else None
    # per-op normalised seconds and raw pass walls, untraced (False) and traced (True)
    op_norm = {False: [[] for _ in ops], True: [[] for _ in ops]}
    raw_walls = {False: [], True: []}
    layer_passes = []
    mismatches = [0] * len(ops)
    spans = []
    deadline = time.perf_counter() + args.seconds
    passes = 0
    last = 0.0  # duration of the latest pass; no pass starts that would mostly overrun
    while passes < MIN_PASSES or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            outcomes = run_pass(cli, ops, tracer if traced else None)
        finally:
            if traced:
                tracer.restore()
        raw = sum(o.seconds for o in outcomes)
        if traced:
            speed = sum(o.norm for o in outcomes) / raw
            layer_passes.append(tracing.pass_metrics(tracer, speed))
            spans = tracer.span_records()
        raw_walls[traced].append(raw)
        for i, o in enumerate(outcomes):
            op_norm[traced][i].append(o.norm)
            mismatches[i] += o.key() != expected[i]
        passes += 1
        last = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = judge(ops, first, reference)
    runs = passes + 1
    attempted = len(ops) * runs
    ok_runs = failed = 0
    for (status, _), bad in zip(verdicts, mismatches):
        if status == "failed":
            failed += runs
        else:
            failed += bad
            ok_runs += (runs - bad) if status == "ok" else 0

    for op, (status, problems), secs, bad in zip(ops, verdicts, op_norm[False], mismatches):
        note = "; ".join(problems)
        if bad:
            note += f"; {bad} of {passes} timed runs differ from the warm-up output"
            status = "failed"
        print(f"{status:13s} {median(secs):8.4f}s  {op.label}" + (f"  -- {note}" if note else ""))

    # The workload's time: each op's median over the passes, summed.
    wall_s = sum(median(secs) for secs in op_norm[False])
    if args.trace:
        metrics = tracing.median_metrics(layer_passes)
        metrics["trace.overhead_s"] = sum(median(secs) for secs in op_norm[True]) - wall_s
        units = tracing.LAYER_METRICS
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        items = items_per_pass(args.workload, cli, ops, first)
        metrics = {
            "setup_s": median(setup),
            "wall_s": wall_s,
            "items_per_s": items / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "ops_ok": ok_runs / attempted,
        }
        units = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB", "ops_ok": "ratio"}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_identity(),
        "jarnik": getattr(jarnik, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "JARNIK_THREADS": threads,
        "calibration_ref_s": CAL_REF_S,
        "samples": {
            "setup_s": len(setup),
            "wall_s_per_op": len(raw_walls[False]),
            "traced_passes": len(raw_walls[True]),
        },
        "setup_s_raw": setup_raw,
        "setup_s_normalised": setup,
        "pass_wall_s_raw": raw_walls[False],
        "traced_pass_wall_s_raw": raw_walls[True],
        "reference_checked": reference is not None,
        "known_failures": [p[0] for status, p in verdicts if status == "known-failure"],
    }
    print("perfbench-record " + json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
