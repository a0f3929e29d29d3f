"""Timeline tracing: one event stream per NI.

The paper's Figures 3 and 4 are *step timelines*: each step of the U-Net/FE
trap and interrupt handlers is labelled with its duration.  Device models
record steps into a :class:`TraceRecorder`; the analysis layer turns a
recorded span into the same step/duration breakdown the figures show.

The layers above the NI record *instants* (duration 0) onto the same
stream, under the categories of :data:`EVENTS`: ``"am"`` (an Active
Messages transition; the step is its kind), ``"drop"`` (the step is the
``DROP_COUNTERS`` class) and ``"endpoint"`` (``deliver``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["EVENTS", "TraceRecord", "TraceRecorder", "Timeline", "TimelineStep"]

#: the categories of instants, as opposed to the steps of a handler
EVENTS = ("am", "drop", "endpoint")


@dataclass(frozen=True)
class TraceRecord:
    """One traced step: ``[start, start+duration)`` within a category."""

    start: float
    duration: float
    category: str
    step: str
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class TraceRecorder:
    """One stream of :class:`TraceRecord` events, free when nobody listens.

    Every NI owns one (``UNetBackend.trace``) and everything on its host
    records onto it: the NI's handler steps, its controllers, its
    endpoints' deliveries and drops, its demux table's unknown tags and
    the Active Messages endpoint above it.  A consumer subscribes;
    ``enabled=True`` keeps the records too (``records.append`` is then
    the first listener).  With no listener :meth:`record` returns at
    once, and a per-packet site that must build its fields first guards
    with ``if trace.listeners:``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.records: List[TraceRecord] = []
        self.listeners: List[Callable[[TraceRecord], Any]] = (
            [self.records.append] if enabled else [])

    def subscribe(self, listener: Callable[[TraceRecord], Any]) -> None:
        """Call ``listener(record)`` for every future record."""
        self.listeners.append(listener)

    def record(self, start: float, duration: float, category: str, step: str, **info: Any) -> None:
        if self.listeners:
            rec = TraceRecord(start, duration, category, step, info)
            for listener in self.listeners:
                listener(rec)

    def clear(self) -> None:
        self.records.clear()

    def by_category(self, category: str) -> List[TraceRecord]:
        return [r for r in self.records if r.category == category]

    def spans(self, category: str) -> Iterator["Timeline"]:
        """Group a category's records into contiguous timelines.

        A new timeline begins at each record flagged ``begin=True`` in its
        info dict (device models mark the first step of each handler run).
        """
        current: List[TraceRecord] = []
        for record in self.by_category(category):
            if record.info.get("begin") and current:
                yield Timeline(category, current)
                current = []
            current.append(record)
        if current:
            yield Timeline(category, current)

    def last_span(self, category: str) -> Optional["Timeline"]:
        result = None
        for span in self.spans(category):
            result = span
        return result


@dataclass(frozen=True)
class TimelineStep:
    label: str
    duration: float
    offset: float


class Timeline:
    """An ordered sequence of steps, as drawn in Figures 3 and 4."""

    def __init__(self, category: str, records: List[TraceRecord]) -> None:
        if not records:
            raise ValueError("empty timeline")
        self.category = category
        self.records = list(records)

    @property
    def start(self) -> float:
        return self.records[0].start

    @property
    def end(self) -> float:
        return max(r.end for r in self.records)

    @property
    def total(self) -> float:
        return self.end - self.start

    def steps(self) -> List[TimelineStep]:
        base = self.start
        return [TimelineStep(r.step, r.duration, r.start - base) for r in self.records]

    def render(self, title: str = "", width: int = 60) -> str:
        """ASCII rendering in the style of the paper's figures."""
        lines = []
        if title:
            lines.append(title)
        total = self.total or 1.0
        for index, step in enumerate(self.steps(), start=1):
            bar_start = int(round(step.offset / total * width))
            bar_len = max(1, int(round(step.duration / total * width)))
            bar = " " * bar_start + "#" * bar_len
            lines.append(f"{index:2d}. {step.label:<42s} {step.duration:5.2f}us |{bar}")
        lines.append(f"    {'total':<42s} {self.total:5.2f}us")
        return "\n".join(lines)
