"""The discrete-event simulation engine.

Time is a ``float`` measured in **microseconds** throughout this project,
matching the units the paper reports (trap costs, round-trip latencies).
Events scheduled for the same instant fire in FIFO order of scheduling,
with an urgency tier for internal process bookkeeping, which keeps every
run fully deterministic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Dict, Generator, List, NamedTuple, Optional, Tuple

from .events import NORMAL, AllOf, AnyOf, Event, Process, Timeout, _Callback

__all__ = ["Simulator", "Lane", "EmptySchedule", "SimulatorClosed", "Discarded"]


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class SimulatorClosed(RuntimeError):
    """Scheduling on, running, or closing from inside a process of, a
    simulator whose life has ended (:meth:`Simulator.close`)."""


class Discarded(NamedTuple):
    """What :meth:`Simulator.close` threw away."""

    #: unfinished processes whose generators were closed (parked firmware
    #: loops, blocked receivers, whoever was mid-delay)
    processes: int
    #: calls still scheduled — work in flight when the run ended: heap
    #: entries plus what lanes held behind their heads
    entries: int


class Lane:
    """Calls of one function at instants that never decrease — a link's
    deliveries, one engine's constant-timeout timers — for one heap entry.

    A queue that is FIFO in time costs the heap one entry: every call
    takes its ``_seq`` here, where :meth:`Simulator.call_at` would take
    it, only the earliest is on the heap, and when that head fires it
    pushes the next under the ``_seq`` the call was given *before*
    running the function.  Entries are keyed ``(when, priority, seq)``,
    a held call is never earlier than its head and a later push has a
    larger ``_seq``, so the dispatch order and ``events_processed`` are
    those of ``call_at``, ties included.  An idle lane holds nothing.
    """

    __slots__ = ("_sim", "_fn", "_head", "_held", "_last", "__weakref__")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._fn: Optional[Callable[..., None]] = None
        #: the one record on the heap while armed; its ``args`` are the head call's
        self._head: Optional[_Callback] = None
        #: ``(when, seq, args)`` of the calls behind the head
        self._held: Optional[deque] = None
        self._last = 0.0

    def __len__(self) -> int:
        """Calls the lane holds: its head on the heap and those behind it."""
        return 0 if self._head is None else 1 + len(self._held or ())

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`Simulator.call_at`.  A call that breaks the lane's order
        (an earlier ``when``, another function) is an ordinary heap entry."""
        sim = self._sim
        if when < sim._now:
            raise ValueError(f"call_at in the past: {when} < {sim._now}")
        queue = sim._queue  # closed: raises, and the lane stays idle
        sim._seq += 1
        if self._head is None:
            self._fn = fn
            self._head = _Callback(self._fire, args)
            heapq.heappush(queue, (when, NORMAL, sim._seq, self._head))
        elif when >= self._last and fn == self._fn:
            if self._held is None:
                self._held = deque()
            self._held.append((when, sim._seq, args))
        else:
            heapq.heappush(queue, (when, NORMAL, sim._seq, _Callback(fn, args)))
            return
        self._last = when

    def _fire(self, *args: Any) -> None:
        fn = self._fn
        if self._held:
            head = self._head
            when, seq, head.args = self._held.popleft()
            heapq.heappush(self._sim._queue, (when, NORMAL, seq, head))
        else:
            self._fn = self._head = self._held = None
        fn(*args)


class Simulator:
    """Owns the event queue and the simulation clock.

    >>> sim = Simulator()
    >>> def pinger():
    ...     yield 5.0
    ...     return "done"
    >>> proc = sim.process(pinger())
    >>> sim.run()
    >>> proc.value
    'done'
    >>> sim.now
    5.0
    >>> sim.close()  # the run is over: nothing was left parked or queued
    Discarded(processes=0, entries=0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._event_count = 0
        #: every unfinished process, in creation order — what close() closes
        self._live: Dict[Process, None] = {}
        self._discarded: Optional[Discarded] = None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events dispatched so far (for diagnostics)."""
        return self._event_count

    # -- lifecycle -----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._discarded is not None

    def close(self) -> Discarded:
        """End the simulation: close every unfinished process generator in
        creation order, empty the heap, and report what was discarded.

        The clock and ``events_processed`` stay readable; scheduling or
        running afterwards raises :class:`SimulatorClosed`.  A second
        ``close()`` returns the first one's report.  Called from a bare
        callback it ends the run that fired it; called from inside a
        process it raises (a generator cannot close itself) and closes
        nothing.
        """
        if self._discarded is not None:
            return self._discarded
        if any(process.generator.gi_running for process in self._live):
            raise SimulatorClosed("close() called from inside a running process")
        processes = 0
        while self._live:  # a generator's ``finally`` may start a process
            batch, self._live = self._live, {}
            for process in batch:
                process._abandon()
            processes += len(batch)
        entries = len(self._queue)
        for entry in self._queue:  # an armed lane (of any Lane class) is reachable through its head
            lane = getattr(getattr(entry[3], "fn", None), "__self__", None)
            if isinstance(lane, Lane) and lane._head is entry[3]:
                entries += len(lane._held or ())
                lane._fn = lane._head = lane._held = None
        self._discarded = Discarded(processes, entries)
        self._queue.clear()  # a run loop above us on the stack sees it drained
        del self._queue
        self.__class__ = _ClosedSimulator
        return self._discarded

    # -- event factories -----------------------------------------------------
    def event(self, name: Optional[str] = None) -> Event:
        """A fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float) -> Timeout:
        """An event that fires ``delay`` microseconds from now."""
        return Timeout(self, delay)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def until(self, when: float) -> Tuple[float]:
        """What a process yields to sleep until the instant ``when``.

        It wakes at ``when`` as given, where ``yield when - now`` would
        wake at ``now + (when - now)``, which floats may round: a run of
        delays summed as its steps would sum them, ``(now + d0) + d1``,
        wakes on the very float its last step did.  An instant already
        past fails the process; an interrupt orphans the wake as it does a
        bare delay's.  The wait is the 1-tuple ``(when,)``, five times
        cheaper to build than an object.
        """
        return (when,)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule a bare callback ``delay`` microseconds from now.

        The analytic fast path for fire-and-forget device work: no Event,
        no generator, no Process bookkeeping — just one heap entry whose
        function runs when the clock reaches it.  Ordering relative to
        ordinary events at the same instant follows the usual FIFO
        scheduling order (NORMAL tier).
        """
        if delay < 0:
            raise ValueError(f"negative call_in delay: {delay}")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, NORMAL, self._seq, _Callback(fn, args)))

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`call_in` at an absolute instant: a device that folds
        several delays into one heap entry (switch hop plus egress wire)
        evaluates the very sums the unfused chain would, and lands here."""
        if when < self._now:
            raise ValueError(f"call_at in the past: {when} < {self._now}")
        self._seq += 1
        heapq.heappush(self._queue, (when, NORMAL, self._seq, _Callback(fn, args)))

    def lane(self) -> Lane:
        """A :class:`Lane` on this simulator: what a FIFO-in-time queue
        (a link, a bank of equal timers) schedules through."""
        return Lane(self)

    # -- execution ------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise EmptySchedule()
        when, _prio, _seq, event = heapq.heappop(self._queue)
        if when < self._now:  # pragma: no cover - defensive; cannot happen
            raise RuntimeError("time ran backwards")
        self._now = when
        self._event_count += 1
        if type(event) is _Callback:
            event.fn(*event.args)
            return
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event._ok and not callbacks:
            # An unhandled failure (e.g. a crashed process nobody waits on)
            # must not pass silently.
            raise event._value

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or the budget ends.

        ``until`` is an absolute simulation time; the clock is advanced to it
        even if the last event fires earlier.

        The loop is intentionally inlined (rather than calling
        :meth:`step`) — it is the single hottest function in large-cluster
        runs and the attribute/call overhead of the delegating version was
        measurable.
        """
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        while queue:
            if until is not None and queue[0][0] > until:
                break
            if max_events is not None and processed >= max_events:
                raise RuntimeError(f"exceeded max_events={max_events} (runaway simulation?)")
            when, _prio, _seq, event = pop(queue)
            self._now = when
            self._event_count += 1
            processed += 1
            if type(event) is _Callback:
                event.fn(*event.args)
                continue
            callbacks, event.callbacks = event.callbacks, None
            event._processed = True
            if callbacks:
                for callback in callbacks:
                    callback(event)
            elif not event._ok:
                raise event._value
        if until is not None and self._now < until:
            self._now = until

    def run_until_complete(self, process: Process, limit: float = 1e12) -> Any:
        """Run until ``process`` finishes and return its value.

        Raises the process's exception if it failed, and ``RuntimeError`` if
        the schedule drained or the time ``limit`` passed without completion.
        """
        queue = self._queue
        pop = heapq.heappop
        while not process._triggered:
            if not queue:
                raise RuntimeError(f"schedule drained before process {process.name!r} completed")
            if queue[0][0] > limit:
                raise RuntimeError(f"process {process.name!r} did not complete before t={limit}")
            when, _prio, _seq, event = pop(queue)
            self._now = when
            self._event_count += 1
            if type(event) is _Callback:
                event.fn(*event.args)
                continue
            callbacks, event.callbacks = event.callbacks, None
            event._processed = True
            if callbacks:
                for callback in callbacks:
                    callback(event)
            elif not event._ok:
                raise event._value
        if not process._ok:
            raise process._value
        return process._value


class _ClosedSimulator(Simulator):
    """What :meth:`Simulator.close` turns a simulator into.

    Every scheduling and running path reads ``_queue`` — the kernel's own
    and the direct pushes in :mod:`~repro.sim.events` — so answering that
    one name with :class:`SimulatorClosed` refuses them all, and an open
    simulator pays no test for it on any hot path.
    """

    @property
    def _queue(self) -> List[Tuple[float, int, int, Event]]:
        raise SimulatorClosed("the simulator is closed")
