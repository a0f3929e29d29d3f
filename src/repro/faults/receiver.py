"""Receiver-side and sender-side endpoint faults.

The chaos pipelines in :mod:`repro.faults.inject` attack the *wire*;
the classes here attack the *application contract*.  U-Net's receive
path assumes a well-behaved process: it polls its receive queue, returns
consumed buffers to the free queue, and posts descriptors that name
buffers it owns.  Each fault below breaks exactly one of those
assumptions, so the overload soak can measure how far the damage
spreads — the paper's protection story says it must stop at the
misbehaving endpoint's own queues:

* :class:`SlowReceiver` — consumes, but late: buffer recycling (and
  optionally polling) is delayed, so the free queue runs dry under load.
* :class:`StalledReceiver` — stops consuming entirely; the receive
  queue fills and every later message is shed at the NI/kernel.
* :class:`LeakyReceiver` — consumes but never returns buffers, the
  slow-motion version of a stall.
* :class:`MisbehavingSender` — actively posts invalid descriptors
  (bad buffer indices, bad lengths, unregistered channels) and must be
  contained by typed :mod:`repro.core.errors` exceptions at the
  protection boundary, plus :func:`forge_unknown_traffic` to land
  wire traffic carrying tags nobody registered.

All interposers follow the pipeline idiom: attach in the constructor,
``restore()`` (or leave the ``with`` block) to put the endpoint back.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional, Tuple

from ..core.api import UserEndpoint
from ..core.descriptors import SendDescriptor
from ..core.errors import UNetError

__all__ = [
    "ReceiverFault",
    "SlowReceiver",
    "StalledReceiver",
    "LeakyReceiver",
    "MisbehavingSender",
    "forge_unknown_traffic",
]


class ReceiverFault:
    """Base interposer over one endpoint's application-side methods.

    Subclasses declare replacement methods via :meth:`_hook_points`;
    attach/restore follow the fault-pipeline idiom (idempotent, context
    manager), so tests can scope a sick receiver to a block.
    """

    def __init__(self, user: UserEndpoint) -> None:
        self.user = user
        self.endpoint = user.endpoint
        self.sim = user.sim
        self._saved: Optional[List[Tuple[object, str, object, bool]]] = None
        self.attach()

    def _hook_points(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, replacement)`` triples to interpose."""
        raise NotImplementedError

    @property
    def attached(self) -> bool:
        return self._saved is not None

    def attach(self) -> "ReceiverFault":
        if self._saved is None:
            self._saved = []
            for owner, attr, replacement in self._hook_points():
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, replacement)
        return self

    def restore(self) -> None:
        if self._saved is None:
            return
        for owner, attr, original, shadowed in self._saved:
            if shadowed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = None
        self._on_restore()

    def _on_restore(self) -> None:
        """Subclass hook: undo side effects beyond the method swap."""

    def __enter__(self) -> "ReceiverFault":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    def stats(self) -> dict:
        return {}


class SlowReceiver(ReceiverFault):
    """An application that consumes messages but falls behind.

    Buffer recycling is deferred by ``recycle_delay_us`` (the process
    read the data but is too busy to return the buffer), and polling can
    be throttled to one descriptor per ``min_poll_interval_us``.  Under
    sustained load the free queue runs dry and the substrate starts
    counting ``no_buffer_drops`` — or, with credit flow, advertising
    tiny credits that stall the senders instead.
    """

    def __init__(self, user: UserEndpoint, recycle_delay_us: float = 400.0,
                 min_poll_interval_us: float = 0.0) -> None:
        if recycle_delay_us < 0.0 or min_poll_interval_us < 0.0:
            raise ValueError("delays must be >= 0")
        self.recycle_delay_us = recycle_delay_us
        self.min_poll_interval_us = min_poll_interval_us
        self.deferred_recycles = 0
        self.throttled_polls = 0
        self._last_poll = float("-inf")
        super().__init__(user)

    def _hook_points(self):
        endpoint = self.endpoint
        original_recycle = endpoint.recycle
        original_poll = endpoint.poll_receive
        original_wait = endpoint.wait_receive

        def slow_recycle(descriptor):
            self.deferred_recycles += 1
            self.sim.process(self._recycle_later(original_recycle, descriptor),
                             name="faults.slow_recycle")

        def slow_poll():
            # NB: phrased as ``now < last + interval`` so it agrees
            # bit-for-bit with slow_wait's wake-up condition — mixing
            # formulations livelocks a blocking receiver at the boundary
            # instant (wait fires, poll still refuses)
            if self.sim.now < self._last_poll + self.min_poll_interval_us:
                self.throttled_polls += 1
                return None
            descriptor = original_poll()
            if descriptor is not None:
                self._last_poll = self.sim.now
            return descriptor

        def slow_wait():
            # while throttled, hand out a timer event instead of the
            # queue event: a ready queue plus a refused poll would
            # otherwise livelock a blocking receive loop at one instant
            ready_at = self._last_poll + self.min_poll_interval_us
            if self.sim.now >= ready_at:
                return original_wait()
            event = self.sim.event(name="faults.slow_wait")
            self.sim.process(self._fire_at(event, ready_at), name="faults.slow_wait")
            return event

        hooks = [(endpoint, "recycle", slow_recycle)]
        if self.min_poll_interval_us > 0.0:
            hooks.append((endpoint, "poll_receive", slow_poll))
            hooks.append((endpoint, "wait_receive", slow_wait))
        return hooks

    def _recycle_later(self, original_recycle, descriptor) -> Generator:
        yield self.recycle_delay_us
        original_recycle(descriptor)

    def _fire_at(self, event, ready_at: float) -> Generator:
        yield max(0.0, ready_at - self.sim.now)
        event.succeed()

    def stats(self) -> dict:
        return {"deferred_recycles": self.deferred_recycles,
                "throttled_polls": self.throttled_polls}


class StalledReceiver(ReceiverFault):
    """An application that stops consuming its receive queue entirely.

    ``poll_receive`` returns nothing and ``wait_receive`` hands out
    events that never fire while the fault is attached (merely stubbing
    the poll would livelock blocking receivers: the queue event succeeds
    immediately on a non-empty queue).  On :meth:`restore` any process
    parked on a stifled event is woken if there is backlog to consume,
    or re-enrolled for the next real delivery if not.
    """

    def __init__(self, user: UserEndpoint) -> None:
        self.stifled_polls = 0
        self._pending: List[object] = []
        super().__init__(user)

    def _hook_points(self):
        endpoint = self.endpoint

        def stalled_poll():
            self.stifled_polls += 1
            return None

        def stalled_wait():
            event = self.sim.event(name="faults.stalled_wait")
            self._pending.append(event)
            return event

        return [(endpoint, "poll_receive", stalled_poll),
                (endpoint, "wait_receive", stalled_wait)]

    def _on_restore(self) -> None:
        pending, self._pending = self._pending, []
        live = [event for event in pending if not event.triggered]
        if not live:
            return
        if not self.endpoint.recv_queue.is_empty:
            for event in live:
                event.succeed()
        else:
            self.endpoint._recv_waiters.extend(live)

    def stats(self) -> dict:
        return {"stifled_polls": self.stifled_polls,
                "backlog": len(self.endpoint.recv_queue)}


class LeakyReceiver(ReceiverFault):
    """An application that consumes messages but never returns buffers.

    The slow-motion stall: each received message permanently leaks its
    buffers, so the free queue monotonically drains and the substrate
    eventually sheds everything for this endpoint as ``no_buffer_drops``
    (small inlined messages keep flowing — they use no buffer — which is
    exactly the asymmetry the drop accounting should show).
    """

    def __init__(self, user: UserEndpoint) -> None:
        self.leaked_buffers = 0
        super().__init__(user)

    def _hook_points(self):
        def leaky_recycle(descriptor):
            self.leaked_buffers += len(descriptor.segments)

        return [(self.endpoint, "recycle", leaky_recycle)]

    def stats(self) -> dict:
        return {"leaked_buffers": self.leaked_buffers,
                "free_queue_level": len(self.endpoint.free_queue)}


class MisbehavingSender:
    """An application that abuses its own endpoint's descriptor queues.

    Each :meth:`run` iteration posts one invalid operation — a send
    naming a buffer outside the area, an absurd segment length, an
    unregistered channel, or a bogus free-queue donation — and records
    whether the protection boundary contained it with a typed
    :class:`~repro.core.errors.UNetError`.  ``uncontained`` staying at
    zero is the containment assertion: a misbehaving process hurts only
    itself, never the NI, the kernel service, or its victims' queues.
    """

    ABUSES = ("bad_buffer_index", "bad_length", "bad_channel", "bad_donation")

    def __init__(self, user: UserEndpoint, channel_id: int,
                 rng: Optional[random.Random] = None) -> None:
        self.user = user
        self.endpoint = user.endpoint
        self.channel_id = channel_id
        self.rng = rng or random.Random(0xBAD5EED)
        self.attempts = 0
        self.contained = 0
        self.uncontained = 0
        self.by_kind = {kind: 0 for kind in self.ABUSES}

    def run(self, count: int = 16, gap_us: float = 5.0) -> Generator:
        """Process: fire ``count`` invalid operations, ``gap_us`` apart."""
        for i in range(count):
            self.abuse_once(self.ABUSES[i % len(self.ABUSES)])
            yield gap_us

    def abuse_once(self, kind: Optional[str] = None) -> bool:
        """Post one invalid operation; True if a typed error contained it."""
        if kind is None:
            kind = self.rng.choice(self.ABUSES)
        self.attempts += 1
        self.by_kind[kind] += 1
        area = self.endpoint.buffers
        try:
            if kind == "bad_buffer_index":
                self.endpoint.post_send(SendDescriptor(
                    channel_id=self.channel_id,
                    segments=[(area.num_buffers + self.rng.randrange(1, 1000), 8)],
                ))
            elif kind == "bad_length":
                self.endpoint.post_send(SendDescriptor(
                    channel_id=self.channel_id,
                    segments=[(0, area.buffer_size + self.rng.randrange(1, 1 << 16))],
                ))
            elif kind == "bad_channel":
                self.endpoint.post_send(SendDescriptor(
                    channel_id=0x7FFF, segments=[(0, 8)],
                ))
            elif kind == "bad_donation":
                self.endpoint.donate_free_buffer(-1 - self.rng.randrange(100))
            else:
                raise ValueError(f"unknown abuse kind {kind!r}")
        except UNetError:
            self.contained += 1
            return True
        self.uncontained += 1
        return False

    def stats(self) -> dict:
        return {"attempts": self.attempts, "contained": self.contained,
                "uncontained": self.uncontained, "by_kind": dict(self.by_kind)}


def forge_unknown_traffic(backend, count: int = 1,
                          rng: Optional[random.Random] = None) -> int:
    """Land ``count`` wire PDUs at ``backend`` carrying tags nobody
    registered, as a compromised or misconfigured peer would.

    The NI/kernel must demultiplex them to nowhere: once the simulator
    services the receive path they are counted by the demux table as
    ``unknown_tag_drops`` and never cross a protection boundary.  Works
    on either substrate; returns the number of PDUs injected (delivery
    is asynchronous — run the sim, then check the demux counter).
    """
    rng = rng or random.Random(0xF0F6ED)
    if backend.wire_unit == "cell":
        from ..atm.cells import Cell

        for _ in range(count):
            # a VCI far above anything the signaling service hands out
            backend.on_cell(Cell(vci=0x8000 + rng.randrange(0x1000),
                                 payload=bytes(48), last=True))
    else:
        from ..ethernet.frames import EthernetFrame

        for _ in range(count):
            frame = EthernetFrame(
                dst_mac=backend.mac,
                src_mac=rng.randrange(1 << 48),
                dst_port=0xFE,
                src_port=0xFE,
                payload=bytes(40),
            )
            backend.nic._on_frame(frame)
    return count
