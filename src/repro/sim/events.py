"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularized by
SimPy, re-implemented here from scratch): simulation processes are Python
generators that ``yield`` :class:`Event` objects and are resumed when the
event fires.  An :class:`Event` carries a value (delivered as the result of
the ``yield``) or an exception (raised at the ``yield`` site).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .engine import Simulator

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "StopProcess",
]

#: Ordering priorities for events scheduled at the same simulation time.
#: Lower values fire first.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""


class StopProcess(Exception):
    """Raised by a process to terminate itself early with a return value."""

    @property
    def value(self) -> Any:
        return self.args[0] if self.args else None


class _Callback:
    """A bare deferred function call on the timeline: one heap entry, no Event.

    ``Simulator.call_in`` allocates one per call (device hot paths: cell and
    frame forwarding, link delivery).  Every :class:`Process` owns one, built
    once, that starts its generator and wakes it from each ``yield delay`` —
    the commonest wait in the model, so it allocates nothing.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self.fn = fn
        self.args = args


def _orphaned(*_args: Any) -> None:
    """What a heap entry calls once the process it would have woken was interrupted."""


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, becomes *triggered* once given a value (it is
    then queued on the simulator), and *processed* after its callbacks ran.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed", "name")

    def __init__(self, sim: "Simulator", name: Optional[str] = None) -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.name = name

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or an exception."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        heappush(sim._queue, (sim._now, NORMAL, sim._seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception raised at the yield site."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._seq += 1
        heappush(sim._queue, (sim._now, NORMAL, sim._seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{label} {state} at t={self.sim._now:.3f}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation.

    A process that only sleeps should ``yield delay`` instead, which costs
    a heap entry and no object; a ``Timeout`` is for a wait that is stored,
    combined (``any_of``) or handed around.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative Timeout delay: {delay}")
        # Event.__init__ flattened, born triggered: this runs once per wait.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        sim._seq += 1
        heappush(sim._queue, (sim._now + delay, NORMAL, sim._seq, self))

    @property
    def name(self) -> str:
        """Built on demand (shadows the slot): no run reads it."""
        return f"Timeout({self.delay})"


class Process(Event):
    """Wraps a generator and drives it through the simulation.

    The process is itself an event which fires when the generator returns
    (with the generator's return value) or raises (failing the event).
    The generator yields an :class:`Event` to wait for it, a plain
    number to sleep that many microseconds, or ``sim.until(when)`` to
    sleep until that instant.
    """

    __slots__ = ("generator", "_target", "_alive", "_wake")

    def __init__(self, sim: "Simulator", generator: Generator, name: Optional[str] = None) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        # Event.__init__ flattened, as in Timeout: one per process started
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.name = name or getattr(generator, "__name__", "process")
        self.generator = generator
        self._target: Any = None
        self._alive = True
        # Kick off the generator at the current time, ahead of NORMAL events.
        self._wake = _Callback(self._resume, ())
        sim._seq += 1
        heappush(sim._queue, (sim._now, URGENT, sim._seq, self._wake))
        sim._live[self] = None

    @property
    def is_alive(self) -> bool:
        return self._alive

    def interrupt(self) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if not self._alive:
            return
        target = self._target
        if type(target) is _Callback:
            # Asleep on a bare delay: the heap entry cannot be removed, so it
            # keeps its place (and its count) but wakes nobody.
            target.fn = _orphaned
            self._wake = _Callback(self._resume, ())
        elif target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        interrupt_event = Event(self.sim, name="interrupt")
        interrupt_event._triggered = True
        interrupt_event._ok = False
        interrupt_event._value = Interrupt()
        # Interrupts do not propagate as process failures; they are thrown in.
        interrupt_event.callbacks.append(self._resume)
        sim = self.sim
        sim._seq += 1
        heappush(sim._queue, (sim._now, URGENT, sim._seq, interrupt_event))

    # -- generator driving -----------------------------------------------
    def _resume(self, trigger: Optional[Event] = None) -> None:
        """Advance the generator: ``trigger`` is the event it waited on, or
        ``None`` when the wake record fires (start, or end of a bare delay)."""
        self._target = None
        try:
            if trigger is None:
                event = self.generator.send(None)
            elif trigger._ok:
                event = self.generator.send(trigger._value)
            else:
                event = self.generator.throw(trigger._value)
        except (StopIteration, StopProcess) as stop:
            self._alive = False
            self._wake = None  # the record holds a bound method of self: drop the cycle
            del self.sim._live[self]
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._die(exc)
            return

        sim = self.sim
        if type(event) is not float:
            if type(event) is tuple and len(event) == 1:
                # ``sim.until(when)``: pushed at the instant as given
                when = event[0]
                if when < sim._now:
                    self._die(ValueError(f"until an instant already past: {when} < {sim._now}"))
                    return
                self._target = self._wake
                sim._seq += 1
                heappush(sim._queue, (when, NORMAL, sim._seq, self._wake))
                return
            if isinstance(event, Event):
                if event.sim is not sim:
                    self._die(RuntimeError("yielded event belongs to a different simulator"))
                elif event.callbacks is None:
                    # Already processed: resume at the current instant, ahead of NORMAL events.
                    self._target = ghost = _Callback(self._resume, (event,))
                    sim._seq += 1
                    heappush(sim._queue, (sim._now, URGENT, sim._seq, ghost))
                else:
                    event.callbacks.append(self._resume)
                    self._target = event
                return
            if not isinstance(event, (int, float)):
                self._die(TypeError(f"process {self.name!r} yielded non-event {event!r}"))
                return
        # A bare delay, the commonest wait: one heap entry reusing the wake record.
        if event < 0:
            self._die(ValueError(f"negative Timeout delay: {event}"))
            return
        self._target = self._wake
        sim._seq += 1
        heappush(sim._queue, (sim._now + event, NORMAL, sim._seq, self._wake))

    def _die(self, exc: BaseException) -> None:
        self._alive = False
        self._wake = None
        del self.sim._live[self]
        self.fail(exc)

    def _abandon(self) -> None:
        """``Simulator.close``: the process ends where it is parked (its
        ``finally`` blocks run), and its event never fires."""
        self._alive = False
        self._wake = self._target = None
        self.generator.close()


class Condition(Event):
    """Fires when ``evaluate`` over the child events becomes true.

    The value is a dict mapping each fired child event to its value.
    A failing child fails the condition immediately.
    """

    def __init__(
        self,
        sim: "Simulator",
        events: Iterable[Event],
        evaluate: Callable[[List[Event], int], bool],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name=name or "Condition")
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self._events:
            if event.sim is not self.sim:
                raise RuntimeError("condition spans multiple simulators")
        if not self._events and self._evaluate(self._events, 0):
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:  # already processed
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed({e: e._value for e in self._events if e._processed and e._ok})


class AllOf(Condition):
    """Fires once all child events have fired."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, events, lambda evs, count: count >= len(evs), name="AllOf")


class AnyOf(Condition):
    """Fires once any child event has fired (immediately, if empty)."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, events, lambda evs, count: count >= 1 or not evs, name="AnyOf")
