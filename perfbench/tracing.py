"""Spans around the calls into each backhaulopt module, recorded from outside.

`Tracer.install` replaces the public names that the package's modules
look up at call time (for example `discrete_placement.voronoi_partition`
or `cli.brute_force_optimize`) with timing wrappers, and `uninstall`
puts the originals back. Nothing inside `src/` is changed. Spans stay in
memory until the run ends; `layer_metrics` turns them into the per-layer
numbers and `write_spans` writes them out.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import tracemalloc
from time import perf_counter

import numpy as np

from backhaulopt import brute_force, cli, discrete_placement
from backhaulopt.density import DensityField, Domain

# (span name, owner, attribute): every place a layer's function is looked up.
TARGETS = (
    ("density.build", DensityField, "from_spec"),
    ("density.build", DensityField, "from_values"),
    ("density.cell_centers", Domain, "cell_centers"),
    ("discrete_placement.optimize", discrete_placement, "optimize"),
    ("discrete_placement.optimize", cli, "optimize"),
    ("discrete_placement.initial_positions", discrete_placement, "initial_positions"),
    ("discrete_placement.voronoi_partition", discrete_placement, "voronoi_partition"),
    ("discrete_placement.update_positions", discrete_placement, "update_positions"),
    ("power_model.total_power", discrete_placement, "total_power"),
    ("power_model.station_traffic", discrete_placement, "station_traffic"),
    ("continuum.iterate_fixed_point", cli, "iterate_fixed_point"),
    ("continuum.optimal_station_density", cli, "optimal_station_density"),
    ("continuum.optimal_station_density", brute_force, "optimal_station_density"),
    ("brute_force.consistency_report", cli, "consistency_report"),
    ("brute_force.brute_force_optimize", cli, "brute_force_optimize"),
    ("brute_force.brute_force_optimize", brute_force, "brute_force_optimize"),
    ("cli.main", cli, "main"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Spans whose peak allocation is measured in the tracemalloc pass. Only a
# span without measured descendants may be listed: measuring resets the peak.
ALLOC_SPANS = ("discrete_placement.voronoi_partition",)


# What a span records about its call beyond timing, read from its
# arguments and result after the span has ended.
INFO = {
    "discrete_placement.optimize": lambda a, k, r: r.iterations,
    "continuum.iterate_fixed_point": lambda a, k, r: r.steps,
    # K-subsets of the distinct candidates: brute_force_optimize(d, K, params, candidates)
    "brute_force.brute_force_optimize": lambda a, k, r: math.comb(np.unique(a[3]).size, int(a[1])),
    "cli.main": lambda a, k, r: r,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info", "alloc")

    def __init__(self, name, parent, op):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.op = op
        self.error = False
        self.info = None
        self.alloc = None


class Tracer:
    """Records one span per wrapped call made while `op` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.measure_alloc = False
        self._stack: list[int] = []
        self._saved = []

    def install(self):
        for name, owner, attr in TARGETS:
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(name, fn)
            setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, fn):
        info = INFO.get(name)
        alloc = name in ALLOC_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            track = alloc and self.measure_alloc
            if track:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if track:
                span.alloc = tracemalloc.get_traced_memory()[1] - base
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper


def write_spans(spans, path) -> None:
    """One JSON object per span: name, start, end (perf_counter seconds),
    parent (index of the enclosing span or null), op id and error flag."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op, "error": s.error}) + "\n")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for span in SPAN_NAMES:
        out += [
            (f"{span}.calls", "count", "lower"),
            (f"{span}.self_s", "s", "lower"),
            (f"{span}.errors", "count", "lower"),
        ]
    out += [
        ("discrete_placement.voronoi_partition.share", "ratio", "lower"),
        ("discrete_placement.voronoi_partition.peak_alloc_mb", "MiB", "lower"),
        ("discrete_placement.optimize.iterations", "count", "lower"),
        ("power_model.total_power.calls_per_iter", "count", "lower"),
        ("density.build_s", "s", "lower"),
        ("continuum.iterate_fixed_point.steps", "count", "lower"),
        ("brute_force.tuples_per_s", "1/s", "higher"),
        ("cli.bytes_written", "B", "lower"),
        ("cli.main.nonzero_exits", "count", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return out


def layer_metrics(spans, traced_ops, op_seconds, untraced_p50, bytes_written) -> dict:
    """Per-layer numbers from the spans of the traced ops and the set-up.

    Counts and self times are per traced op; `errors` and
    `nonzero_exits` are totals. Spans of ops outside `traced_ops` (the
    tracemalloc pass) count only toward `peak_alloc_mb`.
    """
    n = len(traced_ops)
    ops = set(traced_ops)
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    in_ops = [(i, s) for i, s in enumerate(spans) if s.op in ops]

    m = {}
    for name in SPAN_NAMES:
        mine = [(i, s) for i, s in in_ops if s.name == name]
        m[f"{name}.calls"] = len(mine) / n
        m[f"{name}.self_s"] = sum(
            s.end - s.start - sum(c.end - c.start for c in children[i]) for i, s in mine
        ) / n
        m[f"{name}.errors"] = sum(s.error for s in spans if s.name == name)

    m["discrete_placement.voronoi_partition.share"] = (
        m["discrete_placement.voronoi_partition.self_s"] * n / sum(op_seconds)
    )
    allocs = [s.alloc for s in spans if s.alloc is not None]
    m["discrete_placement.voronoi_partition.peak_alloc_mb"] = max(allocs, default=0) / 2**20

    solves = [(i, s) for i, s in in_ops if s.name == "discrete_placement.optimize" and not s.error]
    iterations = sum(s.info for _, s in solves)
    m["discrete_placement.optimize.iterations"] = iterations / len(solves) if solves else 0.0
    # total_power calls made inside the iteration loop, i.e. after the
    # solve's first position update; the call that prices the initial
    # layout is not per iteration.
    looped = 0
    for i, _ in solves:
        first = next((s.start for s in children[i] if s.name == "discrete_placement.update_positions"), math.inf)
        looped += sum(1 for s in children[i] if s.name == "power_model.total_power" and s.start > first)
    m["power_model.total_power.calls_per_iter"] = looped / iterations if iterations else 0.0

    m["density.build_s"] = _build_seconds(spans, ops)

    steps = [s.info for _, s in in_ops if s.name == "continuum.iterate_fixed_point" and not s.error]
    m["continuum.iterate_fixed_point.steps"] = statistics.fmean(steps) if steps else 0.0
    searches = [s for _, s in in_ops if s.name == "brute_force.brute_force_optimize" and not s.error]
    busy = sum(s.end - s.start for s in searches)
    m["brute_force.tuples_per_s"] = sum(s.info for s in searches) / busy if busy else 0.0

    m["cli.bytes_written"] = sum(bytes_written) / n
    m["cli.main.nonzero_exits"] = sum(
        1 for s in spans if s.name == "cli.main" and (s.error or s.info != 0)
    )
    m["trace.overhead"] = statistics.median(op_seconds) / untraced_p50 - 1.0
    return m


def _build_seconds(spans, ops) -> float:
    """Time in outermost density builds: per op where ops build densities
    (the CLI parses its scenarios), else the set-up's (placement)."""
    outer = [s for s in spans if s.name == "density.build"
             and (s.parent is None or spans[s.parent].name != "density.build")]
    per_op = [s.end - s.start for s in outer if s.op in ops]
    if per_op:
        return sum(per_op) / len(ops)
    return sum(s.end - s.start for s in outer if s.op == "setup")
