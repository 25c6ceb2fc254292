"""Spans around the benchmark's calls into cbve, and their per-layer summary.

A span records its name (``<module>.<function>``), start, end, parent and
task id, plus counts taken at the same boundary (cells swept, Picard
iterations, paths, events).  Spans stay in memory until the run ends.
Untraced runs use :data:`NULL`, whose spans record nothing.
"""
from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "task", "start", "end", "counts")

    def __init__(self, name, parent, task, counts):
        self.name = name
        self.parent = parent
        self.task = task
        self.counts = counts
        self.start = perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._task = None

    @contextmanager
    def span(self, name: str, **counts):
        """Time the block; the yielded dict takes counts known only after it."""
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, self._task, counts)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield counts
        finally:
            span.end = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **counts):
        with self.span(name, **counts):
            return fn(*args)

    @contextmanager
    def task(self, task_id, kind: str = "task"):
        """Root span of one task; every span inside carries its id."""
        self._task = task_id
        try:
            with self.span(kind):
                yield
        finally:
            self._task = None


class _NullTracer:
    def span(self, name, **counts):
        return nullcontext(counts)

    def call(self, name, fn, *args, **counts):
        return fn(*args)

    def task(self, task_id, kind="task"):
        return nullcontext()


NULL = _NullTracer()


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def summarize(spans: list[Span]) -> dict:
    """Per-layer figures from recorded spans.

    For every span name under a root: ``<name>.calls`` (calls per root
    span of that kind) and ``<name>.share`` (self time, i.e. duration minus
    child spans, as a share of the summed root durations).  Durations are
    medians per call.  Layer-specific ratios use the recorded counts.
    """
    child_time = [0.0] * len(spans)
    root = []  # a parent is always recorded before its children
    root_count: dict = {}
    root_time: dict = {}
    for idx, span in enumerate(spans):
        if span.parent is None:
            root.append(span)
            root_count[span.name] = root_count.get(span.name, 0) + 1
            root_time[span.name] = root_time.get(span.name, 0.0) + span.duration
        else:
            root.append(root[span.parent])
            child_time[span.parent] += span.duration
    by_name: dict = {}
    self_time: dict = {}
    kind_of: dict = {}
    for idx, span in enumerate(spans):
        if span.parent is None:
            continue
        by_name.setdefault(span.name, []).append(span)
        self_time[span.name] = (self_time.get(span.name, 0.0)
                                + span.duration - child_time[idx])
        kind_of[span.name] = root[idx].name

    out = {}
    for name, group in by_name.items():
        kind = kind_of[name]
        out[f"{name}.calls"] = len(group) / root_count[kind]
        out[f"{name}.share"] = self_time[name] / root_time[kind]
        out[f"{name}.ms"] = _median([s.duration for s in group], 1e3)
        out[f"{name}.us"] = _median([s.duration for s in group], 1e6)
    for span in spans:
        if span.parent is None and span.name.startswith("cli."):
            out[f"{span.name}.ms"] = span.duration * 1e3

    general = by_name.get("solver.solve_general", [])
    cold = [s.duration for s in general if s.counts["cold"]]
    warm = [s for s in general if not s.counts["cold"]]
    out["solver.solve_general.cold_ms"] = _median(cold, 1e3)
    out["solver.solve_general.warm_ms"] = _median([s.duration for s in warm], 1e3)
    out["solver.solve_general.ns_per_cell"] = _median(
        [s.duration / s.counts["cells"] for s in warm], 1e9)

    # a call that raised has no result counts
    picard = [s for s in by_name.get("solver.solve_special_picard", [])
              if "iterations" in s.counts]
    if picard:
        out["solver.picard.iterations"] = statistics.fmean(
            s.counts["iterations"] for s in picard)
        out["solver.picard.ns_per_cell_iteration"] = _median(
            [s.duration / (s.counts["cells"] * s.counts["iterations"])
             for s in picard], 1e9)

    moment = by_name.get("moments.solve_moment", [])
    out["moments.solve_moment.ns_per_cell"] = _median(
        [s.duration / s.counts["cells"] for s in moment], 1e9)

    paths = [s for s in by_name.get("simulator.simulate_path", []) if "events" in s.counts]
    if paths:
        out["simulator.events_per_path"] = statistics.fmean(
            s.counts["events"] for s in paths)
    mc = by_name.get("simulator.mc_laplace", []) + by_name.get("simulator.mc_mean", [])
    if mc:
        out["simulator.paths_per_s"] = (sum(s.counts["paths"] for s in mc)
                                        / sum(s.duration for s in mc))
    return out
