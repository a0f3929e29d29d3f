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

A live cluster keeps one :class:`~repro.sim.engine.Simulator` and runs
it against its :class:`Clock` (``LiveCluster.run``): every node's
endpoints, fault stages and processes schedule on that one engine, so
the live backend reuses :class:`~repro.core.endpoint.Endpoint` and the
fault pipeline verbatim — same descriptor validation, same drop
accounting, same event stream, a delayed datagram an ordinary heap
entry.
"""

from __future__ import annotations

import abc

__all__ = ["Clock", "ManualClock"]


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
