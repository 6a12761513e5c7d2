"""In-memory span tracing of tetracomm's public functions, installed from outside.

A traced run replaces module and class attributes with thin wrappers under
the names their callers look them up by (for example ``simulator.simulate``,
which ``verify_run`` calls), so nothing in ``src/`` changes.  Every call made
while an operation is being recorded leaves one span: name, start, end and
parent span.  Spans stay in memory; self time is a span's duration minus the
time its direct children cover (the program is single-threaded, so children
never overlap).
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans of one operation; records only inside ``recorded``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.recording = False

    def call(self, name: str, fn, args, kwargs, count=None):
        if not self.recording:
            return fn(*args, **kwargs)
        span = Span(name, 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if count is not None:
            span.counts = count(result)
        return result

    def summary(self) -> "OpTrace":
        """Self time, call count and recorded counts per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = OpTrace(spans=len(self.spans))
        for s, covered in zip(self.spans, child_time):
            out.self_s[s.name] += (s.end - s.start) - covered
            out.total_s[s.name] += s.end - s.start
            out.calls[s.name] += 1
            for key, value in s.counts.items():
                out.counts[key] = max(out.counts.get(key, 0), value)
        return out


@dataclass
class OpTrace:
    spans: int
    self_s: Counter = field(default_factory=Counter)
    total_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: dict = field(default_factory=dict)


def _schedule_counts(sched) -> dict:
    return {"schedule.steps": len(sched.steps), "simulator.messages_per_vector": sum(len(s) for s in sched.steps)}


def patch_table() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, result counter) for every wrapped call site.

    Where a module imported a function by name, the wrapper goes on that
    module's attribute too, since that is the name its code calls.
    """
    from tetracomm import matching, partition, schedule, simulator, steiner, tensor_core
    from tetracomm.finite_field import Field

    table: list[tuple[object, str, str, object]] = [
        (Field, op, f"finite_field.{op}", None) for op in ("add", "sub", "neg", "mul", "inv", "pow")
    ]
    table += [
        (steiner, "field_new", "finite_field.field_new", None),
        (steiner, "construct_spherical", "steiner.construct", None),
        (steiner, "verify", "steiner.verify", None),
        (matching, "max_matching", "matching.max_matching", None),
        (partition, "max_matching", "matching.max_matching", None),
        (schedule, "max_matching", "matching.max_matching", None),
        (partition, "d_disjoint_matchings", "matching.d_disjoint", None),
        (schedule, "regular_decompose", "matching.regular_decompose", None),
        (matching.BipartiteGraph, "__post_init__", "matching.graph_validate", None),
        (partition, "build_partition", "partition.build", None),
        (partition, "vector_layout", "partition.layout", None),
        (partition, "validate_partition", "partition.validate", None),
        (simulator, "validate_partition", "partition.validate", None),
        (schedule, "build_demands", "schedule.demands", lambda d: {"schedule.demands": len(d)}),
        (simulator, "build_demands", "schedule.demands", lambda d: {"schedule.demands": len(d)}),
        (schedule, "build_schedule", "schedule.build", _schedule_counts),
        (simulator, "build_schedule", "schedule.build", _schedule_counts),
        (schedule, "validate", "schedule.validate", None),
        (simulator, "validate", "schedule.validate", None),
        (tensor_core, "load_tensor", "tensor_core.load", None),
        (tensor_core, "hopm", "tensor_core.hopm", None),
        (tensor_core, "sttsv_symmetric", "tensor_core.sttsv", None),
        (simulator, "sttsv_symmetric", "tensor_core.sttsv", None),
        (simulator, "verify_run", "simulator.verify_run", None),
        (simulator, "simulate", "simulator.simulate", None),
        (simulator, "compute_report", "simulator.compute_report", None),
    ]
    return table


def _wrapper(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    return traced


@contextmanager
def recorded(tracer: Tracer):
    """Wrap every call site in ``patch_table`` and record one operation's spans."""
    saved = []
    tracer.spans, tracer._stack = [], []
    try:
        for owner, attr, name, count in patch_table():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, count))
        tracer.recording = True
        yield tracer
    finally:
        tracer.recording = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
