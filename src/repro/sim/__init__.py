"""Discrete-event simulation kernel (time unit: microseconds)."""

from .engine import Discarded, EmptySchedule, Lane, Simulator, SimulatorClosed
from .events import AllOf, AnyOf, Condition, Event, Interrupt, Process, StopProcess, Timeout
from .queues import BoundedRing, Resource, RingEmptyError, RingFullError, Store
from .rng import RngRegistry, ScopedRng
from .trace import Timeline, TimelineStep, TraceRecord, TraceRecorder

__all__ = [
    "Simulator",
    "Lane",
    "EmptySchedule",
    "SimulatorClosed",
    "Discarded",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "StopProcess",
    "Store",
    "BoundedRing",
    "Resource",
    "RingFullError",
    "RingEmptyError",
    "RngRegistry",
    "ScopedRng",
    "TraceRecorder",
    "TraceRecord",
    "Timeline",
    "TimelineStep",
]
