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
the substrate-independent core touches on the data path (``sim.now``),
letting the live backend reuse :class:`~repro.core.endpoint.Endpoint`
verbatim — same descriptor validation, same drop accounting, same
event stream — without dragging in the event engine.
"""

from __future__ import annotations

import abc

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
        self.sleeps = 0

    def now_us(self) -> float:
        return self._now_us

    def sleep_us(self, us: float) -> None:
        self.sleeps += 1
        self.advance(us)

    def advance(self, us: float) -> None:
        if us < 0:
            raise ValueError("clocks do not run backwards")
        self._now_us += us


class ClockShim:
    """Duck-typed stand-in for a :class:`~repro.sim.engine.Simulator`.

    Exposes exactly the surface the core data-path classes touch
    (``sim.now`` for timestamps and activity tracking).  The blocking
    primitives (``event()``/``timeout()``/``process()``) raise: live
    endpoints are *polled*, never waited on, so any attempt to block
    through the shim is a layering bug worth failing loudly on.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock

    @property
    def now(self) -> float:
        return self.clock.now_us()

    def event(self, name: str = ""):  # pragma: no cover - defensive
        raise RuntimeError(
            f"live code tried to create simulation event {name!r}; "
            "live endpoints are polled, not waited on")

    def timeout(self, delay: float):  # pragma: no cover - defensive
        raise RuntimeError("live code cannot schedule simulated timeouts")

    def process(self, generator, name: str = ""):  # pragma: no cover - defensive
        raise RuntimeError("live code cannot spawn simulation processes")
