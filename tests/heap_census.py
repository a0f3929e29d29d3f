"""Heap census: what one simulator's heap entries are, and which model no delay.

A test helper, not a kernel counter: it wraps the two ``heappush`` names
the kernel pushes through (``sim.events.heappush`` and ``sim.engine``'s
``heapq``) for the length of a ``with`` block and classifies every entry
pushed onto *one* simulator's queue by what it will run:

* ``start:<generator>`` / ``wake:<generator>`` — a process's first resume
  and the end of each bare ``yield delay`` (the generator's qualname);
* ``done:<generator>`` — the completion event of a process;
* ``resume:<generator>`` — a process resumed on an already-processed event;
* ``call:<function>`` — a ``call_in`` / ``call_at`` callback (qualname);
* ``event:<name>`` — any other event, by its name with digits and the
  owner prefix cut (``node3.nic.txfifo.put`` -> ``txfifo.put``,
  ``barrier.5.2`` -> ``barrier``); timeouts are ``event:Timeout``.

An entry is *zero-delay* when it is pushed for the instant it is pushed
at: it orders work, it models no time.

A :class:`~repro.sim.Lane` call is counted where it takes its ``_seq`` —
at ``Lane.call_at``, under the kind of the function it will run, zero-delay
judged then — not when its turn for the heap comes: the counts are those
of plain ``call_at``, whatever is still held when the run ends included.
A lane is known by class membership (a link's delivery lane is a ``Lane``
subclass), its re-pushed head by being its lane's ``_head``.
``peak_length`` is the other half: how long the heap really got.
"""

import contextlib
import heapq
import re
import types
from collections import Counter

from repro.sim import engine, events


_DIGITS = re.compile(r"\d+")
_LANE_CALL_AT = engine.Lane.call_at


def _is_lane_head(item) -> bool:
    lane = getattr(getattr(item, "fn", None), "__self__", None)
    return isinstance(lane, engine.Lane) and lane._head is item


def _kind(priority, item) -> str:
    if type(item) is events._Callback:
        owner = getattr(item.fn, "__self__", None)
        if isinstance(owner, events.Process) and item.fn.__name__ == "_resume":
            name = owner.generator.__qualname__
            if item.args:
                return f"resume:{name}"
            return f"start:{name}" if priority == events.URGENT else f"wake:{name}"
        return f"call:{item.fn.__qualname__}"
    if isinstance(item, events.Process):
        return f"done:{item.generator.__qualname__}"
    if isinstance(item, events.Timeout):
        return "event:Timeout"
    parts = [part for part in _DIGITS.sub("", item.name or "Event").split(".") if part]
    return "event:" + ".".join(parts[-2:])


class HeapCensus:
    """Entries pushed onto one simulator's heap, by kind."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.entries = Counter()
        self.zero_delay = Counter()
        #: largest ``len(sim._queue)`` seen
        self.peak_length = 0
        self._in_lane_call = False

    def _count(self, kind, when) -> None:
        self.entries[kind] += 1
        if when == self.sim.now:
            self.zero_delay[kind] += 1

    def _push(self, queue, entry) -> None:
        heapq.heappush(queue, entry)
        if queue is self.sim._queue:
            self.peak_length = max(self.peak_length, len(queue))
            # a lane's pushes were counted when the call was scheduled
            if not self._in_lane_call and not _is_lane_head(entry[3]):
                self._count(_kind(entry[1], entry[3]), entry[0])

    def _lane_call_at(self, lane, when, fn, *args) -> None:
        if lane._sim is not self.sim:
            return _LANE_CALL_AT(lane, when, fn, *args)
        self._in_lane_call = True
        try:
            _LANE_CALL_AT(lane, when, fn, *args)  # raises: nothing was scheduled
        finally:
            self._in_lane_call = False
        self._count(f"call:{fn.__qualname__}", when)

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    @property
    def zero_delay_total(self) -> int:
        return sum(self.zero_delay.values())

    def table(self) -> str:
        """One line per kind, largest first: ``entries  zero-delay  kind``."""
        return "\n".join(f"{count:8d} {self.zero_delay[kind]:8d}  {kind}"
                         for kind, count in self.entries.most_common())


@contextlib.contextmanager
def heap_census(sim):
    """Count every entry pushed onto ``sim``'s heap inside the block."""
    census = HeapCensus(sim)
    shim = types.SimpleNamespace(heappush=census._push, heappop=heapq.heappop)
    saved = events.heappush, engine.heapq
    events.heappush, engine.heapq = census._push, shim
    engine.Lane.call_at = lambda lane, *call: census._lane_call_at(lane, *call)
    try:
        yield census
    finally:
        events.heappush, engine.heapq = saved
        engine.Lane.call_at = _LANE_CALL_AT
