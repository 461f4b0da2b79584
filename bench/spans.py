"""In-memory spans for the traced benchmark run, and their self-time arithmetic.

A span is one call across a layer boundary: name, start, end, the index of
the span that was open when it began (its parent), the run ID of the unit of
work it belongs to, and counts taken from the call's arguments and result.
Spans stay in memory and are written out when the benchmark ends.

A span's self time is its duration minus the part of its interval that its
child spans cover. Time inside a unit that no top-level span covers is the
unit's untraced time.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Unit:
    """One unit of work (a set-up round or a timed pass) that spans belong to."""

    run_id: str
    kind: str
    start: float
    end: float


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus child coverage, one value per span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def untraced_time(spans: list[Span], unit: Unit) -> float:
    """Time in ``unit`` that no top-level span of the unit covers."""
    roots = [(s.start, s.end) for s in spans if s.parent is None and s.run_id == unit.run_id]
    return (unit.end - unit.start) - covered_length(roots, unit.start, unit.end)


class Tracer:
    """Records a span for every wrapped call made inside an open unit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.units: list[Unit] = []
        self._stack: list[int] = []
        self._run_id: str | None = None

    @contextmanager
    def unit(self, run_id: str, kind: str):
        if self._run_id is not None:
            raise RuntimeError(f"unit {run_id} opened inside unit {self._run_id}")
        self._run_id = run_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.units.append(Unit(run_id, kind, start, time.perf_counter()))
            self._run_id = None

    def wrap(
        self, name: str, fn: Callable, counter: Callable | None = None
    ) -> Callable:
        """``fn`` recording a span named ``name`` while a unit is open.

        ``counter(args, kwargs, result)`` returns the span's counts; it runs
        after the span has ended.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._run_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, tracer._run_id)
            tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "units": [dataclasses.asdict(u) for u in self.units],
            "spans": [
                [s.name, s.start, s.end, s.parent, s.run_id, s.counts] for s in self.spans
            ],
        }
