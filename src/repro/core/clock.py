"""The Clock seam: how non-simulated code tells time.

The simulated substrates run on the event-driven
:class:`~repro.sim.engine.Simulator` clock, and the determinism lint
bans ambient wall-clock reads (``time.time()`` and friends) from
``src/repro`` so that every soak verdict and conformance artifact
replays bit-for-bit from a seed.  The live U-Net/OS substrate
(:mod:`repro.live`) genuinely needs wall time — that is the point of
it — so time flows through an explicit :class:`Clock` object instead:

* :class:`ManualClock` — a deterministic, manually-advanced clock for
  unit tests of live components (timers fire exactly when a test says
  the clock moved);
* ``repro.live.clock.WallClock`` — the one sanctioned wall-time
  implementation, living in the single module the determinism lint
  allowlists.

:class:`ClockShim` adapts a :class:`Clock` to the tiny ``sim`` surface
the substrate-independent core touches on the data path (``sim.now``,
and ``sim.call_in`` for a fault pipeline's delays), letting the live
backend reuse :class:`~repro.core.endpoint.Endpoint` and the fault
pipeline verbatim — same descriptor validation, same drop accounting,
same event stream — without an event engine per node: a live run's
processes share its cluster's one wall-clock runner.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from typing import Callable, List, Tuple

__all__ = ["Clock", "ManualClock", "ClockShim"]


class Clock(abc.ABC):
    """Where live (non-simulated) code gets its notion of time."""

    @abc.abstractmethod
    def now_us(self) -> float:
        """Monotonic time in microseconds since an arbitrary origin."""

    @abc.abstractmethod
    def sleep_us(self, us: float) -> None:
        """Yield the CPU for roughly ``us`` microseconds."""


class ManualClock(Clock):
    """A deterministic clock a test advances by hand.

    ``sleep_us`` advances the clock (a sleeper makes progress), so code
    written against the :class:`Clock` interface runs identically —
    just instantly — under test.
    """

    def __init__(self) -> None:
        self._now_us = 0.0

    def now_us(self) -> float:
        return self._now_us

    def sleep_us(self, us: float) -> None:
        self.advance(us)

    def advance(self, us: float) -> None:
        if us < 0:
            raise ValueError("clocks do not run backwards")
        self._now_us += us


class ClockShim:
    """Duck-typed stand-in for a :class:`~repro.sim.engine.Simulator`.

    Exposes exactly the surface the core data-path classes touch
    (``sim.now`` for timestamps and activity tracking, ``sim.call_in``
    for a PDU a fault stage delays, run by the backend's service pass
    through :meth:`fire_due`).  The blocking primitives
    (``event()``/``timeout()``/``process()``) raise: a live endpoint is
    polled, and a process that waits on one runs on its cluster's
    wall-clock runner (``LiveCluster.sim``, ``run``, ``poll``), never on
    a backend's shim — so an attempt to block through the shim is a
    layering bug worth failing loudly on.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        #: (due_us, order, fn, args) — calls waiting for :meth:`fire_due`
        self._due: List[Tuple[float, int, Callable, tuple]] = []
        self._order = itertools.count()

    @property
    def now(self) -> float:
        return self.clock.now_us()

    def call_in(self, delay: float, fn: Callable, *args) -> None:
        """Call ``fn(*args)`` from the first :meth:`fire_due` at least
        ``delay`` us from now; equal due times fire in call order."""
        heapq.heappush(self._due, (self.clock.now_us() + delay, next(self._order), fn, args))

    def fire_due(self) -> int:
        """Make every call whose time has come; returns how many."""
        fired = 0
        while self._due and self._due[0][0] <= self.clock.now_us():
            _when, _order, fn, args = heapq.heappop(self._due)
            fn(*args)
            fired += 1
        return fired

    def event(self, name: str = ""):  # pragma: no cover - defensive
        raise RuntimeError(
            f"live code tried to create simulation event {name!r} on a "
            "backend's clock shim; processes run on LiveCluster.sim")

    def timeout(self, delay: float):  # pragma: no cover - defensive
        raise RuntimeError("live code cannot schedule simulated timeouts "
                           "on a backend's clock shim")

    def process(self, generator, name: str = ""):  # pragma: no cover - defensive
        raise RuntimeError("live code cannot spawn processes on a backend's "
                           "clock shim; they run on LiveCluster.sim")
