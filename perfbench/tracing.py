"""Outside-in tracing of the jarnik modules.

The tracer wraps module functions from outside the package: every name
binding of a traced function in any loaded ``jarnik`` module (the names
callers import) is replaced by a wrapper, and `restore` puts the originals
back.  No file of the package changes.

* Spans wrap the functions at layer boundaries.  A span records its name,
  start, end and parent; parents are kept per thread, so the worker
  threads of `convergence_table` get root spans of their own.  Self time
  is a span's duration minus the time of the spans and hot calls directly
  under it.
* Hot per-point functions get counters instead: calls, accepted results
  where that means something, and their summed time.  Their time still
  counts as child time of the enclosing span, once, even when one hot
  function calls another.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from statistics import median

# (module, attribute) of the functions traced as spans.
SPANS = (
    ("polygon", "primitive_vectors"),
    ("polygon", "sort_ccw"),
    ("polygon", "build_polygon"),
    ("polygon", "scale_polygon"),
    ("polygon", "scale_factor"),
    ("polygon", "fundamental_vertex"),
    ("polygon", "polygon_csv"),
    ("limit_curves", "dihedral_images"),
    ("limit_curves", "sample_arc"),
    ("limit_curves", "curve_csv"),
    ("analysis", "convergence_table"),
    ("analysis", "distance_details"),
    ("analysis", "convergence_csv"),
    ("curvature", "scale_ladder"),
    ("curvature", "square_scale_factor"),
    ("curvature", "curvature_trace"),
    ("curvature", "trace_csv"),
    ("number_theory", "totient_sieve"),
    ("number_theory", "moebius_sieve"),
)

# Hot functions: (module, attribute or Class.method, counter name).
COUNTERS = (
    ("domains", "lattice_contains", "domains.lattice_contains"),
    ("limit_curves", "LimitCurve.point", "limit_curves.point"),
    ("curvature", "local_radius", "curvature.local_radius"),
    ("number_theory", "farey_neighbors", "number_theory.farey_neighbors"),
    ("number_theory", "farey_neighbors_sided", "number_theory.farey_neighbors"),
)

FORMATTERS = ("polygon.polygon_csv", "analysis.convergence_csv", "curvature.trace_csv", "limit_curves.curve_csv")


class _Span:
    __slots__ = ("name", "start", "end", "parent", "child", "thread", "items")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0
        self.thread = thread
        self.items = 0


def _items(name: str, args, result) -> int:
    """Work count recorded on a span: list sizes, probe points, bytes."""
    if name in ("polygon.primitive_vectors", "curvature.curvature_trace"):
        return len(result)
    if name == "analysis.distance_details":
        return 2 * len(args[0].vertices)  # vertices and edge midpoints
    if name in FORMATTERS:
        return len(result.encode())
    return 0


class Tracer:
    """Install with `install()`, run the ops, `restore()`, then read `pass_metrics`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[_Span] = []
        self._counters: list[dict] = []  # one dict per thread

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.counts
        except AttributeError:
            local.stack = []
            local.hot = 0
            local.counts = defaultdict(lambda: [0, 0, 0.0])  # calls, accepted, seconds
            with self._lock:
                self._counters.append(local.counts)
            return local.stack, local.counts

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn):
        """`fn` wrapped to record a span named `name` on every call."""
        clock = time.perf_counter
        spans = self.spans

        def wrapper(*args, **kwargs):
            stack, _ = self._state()
            parent = stack[-1] if stack else None
            rec = _Span(name, clock(), parent, threading.get_ident())
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = clock()
                stack.pop()
                if parent is not None and not self._local.hot:
                    parent.child += rec.end - rec.start
                spans.append(rec)
            rec.items = _items(name, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        clock = time.perf_counter
        local = self._local

        def wrapper(*args, **kwargs):
            stack, counts = self._state()
            local.hot += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                local.hot -= 1
            entry = counts[name]
            entry[0] += 1
            entry[1] += result is True
            entry[2] += dt
            if stack and not local.hot:
                stack[-1].child += dt
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "jarnik" or n.startswith("jarnik.")]
        for mod_name, attr in SPANS:
            name = f"{mod_name}.{attr}"
            self._patch(modules, mod_name, attr, lambda fn, name=name: self.span(name, fn))
        for mod_name, attr, name in COUNTERS:
            self._patch(modules, mod_name, attr, lambda fn, name=name: self._counter(name, fn))

    def _patch(self, modules, mod_name, attr, make_wrapper) -> None:
        """Replace every binding of jarnik.<mod_name>.<attr> by a wrapper.

        A method (``Class.method``) is replaced on its class.  A function
        that this version of the package does not have is skipped.
        """
        home = sys.modules.get(f"jarnik.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            orig = getattr(cls, meth, None)
            if orig is not None:
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, make_wrapper(orig))
            return
        orig = getattr(home, attr, None)
        if orig is None:
            return
        wrapped = make_wrapper(orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patched.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def restore(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def counters(self) -> dict[str, list]:
        merged: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
        for counts in self._counters:
            for name, (calls, accepted, seconds) in counts.items():
                entry = merged[name]
                entry[0] += calls
                entry[1] += accepted
                entry[2] += seconds
        return merged

    def span_records(self) -> list[dict]:
        """The recorded spans as plain records, parents given by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "thread": s.thread,
            }
            for s in self.spans
        ]

    def reset(self) -> None:
        self.spans.clear()
        for counts in self._counters:
            counts.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "polygon.sort_ccw.s": "s",
    "polygon.primitive_vectors.s": "s",
    "polygon.primitive_vectors.items": "count",
    "domains.lattice_contains.calls": "count",
    "domains.lattice_contains.accept_ratio": "ratio",
    "polygon.build_polygon.self_s": "s",
    "polygon.scale_polygon.self_s": "s",
    "polygon.fundamental_vertex.s": "s",
    "limit_curves.point.calls": "count",
    "limit_curves.point.s": "s",
    "limit_curves.dihedral_images.s": "s",
    "analysis.distance_details.self_s": "s",
    "analysis.probe_points": "count",
    "analysis.convergence_table.s": "s",
    "curvature.scale_ladder.self_s": "s",
    "number_theory.totient_sieve.s": "s",
    "number_theory.moebius_sieve.s": "s",
    "curvature.curvature_trace.self_s": "s",
    "curvature.local_radius.calls": "count",
    "number_theory.farey_neighbors.calls": "count",
    "number_theory.farey_neighbors.s": "s",
    "curvature.samples": "count",
    "cli.format_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def pass_metrics(tracer: Tracer, speed: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of the spans and counters recorded since `reset`.

    Times are multiplied by `speed`, the pass's normalised over raw time,
    so that they are in the same units as the end-to-end times.
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    items = defaultdict(int)
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        self_time[s.name] += s.end - s.start - s.child
        items[s.name] += s.items
    counts = tracer.counters()
    contains = counts.get("domains.lattice_contains", [0, 0, 0.0])
    farey = counts.get("number_theory.farey_neighbors", [0, 0, 0.0])
    point = counts.get("limit_curves.point", [0, 0, 0.0])
    metrics = {
        "polygon.sort_ccw.s": total["polygon.sort_ccw"],
        "polygon.primitive_vectors.s": total["polygon.primitive_vectors"],
        "polygon.primitive_vectors.items": items["polygon.primitive_vectors"],
        "domains.lattice_contains.calls": contains[0],
        "domains.lattice_contains.accept_ratio": contains[1] / contains[0] if contains[0] else 0.0,
        "polygon.build_polygon.self_s": self_time["polygon.build_polygon"],
        "polygon.scale_polygon.self_s": self_time["polygon.scale_polygon"],
        "polygon.fundamental_vertex.s": total["polygon.fundamental_vertex"],
        "limit_curves.point.calls": point[0],
        "limit_curves.point.s": point[2],
        "limit_curves.dihedral_images.s": total["limit_curves.dihedral_images"],
        "analysis.distance_details.self_s": self_time["analysis.distance_details"],
        "analysis.probe_points": items["analysis.distance_details"],
        "analysis.convergence_table.s": total["analysis.convergence_table"],
        "curvature.scale_ladder.self_s": self_time["curvature.scale_ladder"],
        "number_theory.totient_sieve.s": total["number_theory.totient_sieve"],
        "number_theory.moebius_sieve.s": total["number_theory.moebius_sieve"],
        "curvature.curvature_trace.self_s": self_time["curvature.curvature_trace"],
        "curvature.local_radius.calls": counts.get("curvature.local_radius", [0])[0],
        "number_theory.farey_neighbors.calls": farey[0],
        "number_theory.farey_neighbors.s": farey[2],
        "curvature.samples": items["curvature.curvature_trace"],
        "cli.format_s": sum(self_time[f] for f in FORMATTERS),
        "cli.output_bytes": sum(items[f] for f in FORMATTERS),
    }
    for name in metrics:
        if LAYER_METRICS[name] == "s":
            metrics[name] *= speed
    return metrics


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(p[name] for p in passes) for name in passes[0]}
