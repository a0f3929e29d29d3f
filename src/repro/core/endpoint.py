"""U-Net endpoints.

An endpoint is "an application's handle into the network" (Section 3.1):
a buffer area plus three message queues.  The queues are plain data
structures in (simulated) memory — the send and free queues are written
by the application and polled by the NIC/kernel, and the receive queue is
written by the NIC/kernel and polled (or waited on) by the application —
exactly the sharing pattern of the real system.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..hw.memory import Buffer, BufferArea
from ..sim import BoundedRing, Event, Simulator, TraceRecorder
from .descriptors import RecvDescriptor, SendDescriptor
from .errors import EndpointError, InvalidDescriptorError, ProtectionError

__all__ = ["Endpoint", "EndpointConfig", "DROP_COUNTERS", "drop_stats"]

#: the shared drop-accounting vocabulary: every layer that can lose a
#: message (endpoint, demux, either substrate backend) reports these
#: counter names from its ``drop_stats()`` so reports can merge them
DROP_COUNTERS = ("recv_queue_drops", "no_buffer_drops", "unknown_tag_drops",
                 "quarantine_drops", "stale_epoch_drops", "peer_dead_drops",
                 "admission_rejected_drops")


def drop_stats(layer) -> dict:
    """``layer``'s drop counters under the shared :data:`DROP_COUNTERS`
    names, in that order — the one body behind every ``drop_stats()``."""
    return {name: getattr(layer, name) for name in DROP_COUNTERS}


class EndpointConfig:
    """Sizing of an endpoint's buffer area and queues."""

    def __init__(
        self,
        num_buffers: int = 64,
        buffer_size: int = 2048,
        send_queue_depth: int = 32,
        recv_queue_depth: int = 64,
        free_queue_depth: Optional[int] = None,
    ) -> None:
        self.num_buffers = num_buffers
        self.buffer_size = buffer_size
        self.send_queue_depth = send_queue_depth
        self.recv_queue_depth = recv_queue_depth
        self.free_queue_depth = free_queue_depth if free_queue_depth is not None else num_buffers


class Endpoint:
    """One U-Net endpoint: buffer area + send/recv/free queues."""

    COUNTERS = DROP_COUNTERS + ("messages_sent", "messages_received",
                                "bytes_sent", "bytes_received")
    #: unknown tags are dropped before any endpoint is known, and an
    #: admission refusal before one exists: an endpoint reports zero for
    #: both, the demux table and the backend own them
    unknown_tag_drops = admission_rejected_drops = 0
    _OWN_DROPS = tuple(name for name in DROP_COUNTERS if name != "unknown_tag_drops")

    def __init__(self, sim: Simulator, endpoint_id: int, config: EndpointConfig, owner: str = "",
                 tenant: str = "", qos: str = "") -> None:
        self.sim = sim
        self.id = endpoint_id
        self.owner = owner
        #: tenant identity for multi-tenant accounting (empty = untenanted);
        #: every drop this endpoint counts is attributed to this tenant and
        #: no other — the isolation invariant the soak suite pins
        self.tenant = tenant
        #: QoS class name (see :mod:`repro.core.tenancy`); empty = default
        self.qos = qos
        self.config = config
        self.buffers = BufferArea(config.num_buffers, config.buffer_size)
        self.send_queue: BoundedRing[SendDescriptor] = BoundedRing(
            config.send_queue_depth, name=f"ep{endpoint_id}.send"
        )
        self.recv_queue: BoundedRing[RecvDescriptor] = BoundedRing(
            config.recv_queue_depth, name=f"ep{endpoint_id}.recv"
        )
        self.free_queue: BoundedRing[int] = BoundedRing(
            config.free_queue_depth, name=f"ep{endpoint_id}.free"
        )
        #: registered channels (channel_id -> backend-specific tag record)
        self.channels = {}
        #: optional application signal handler, invoked (once per
        #: empty->non-empty transition) when messages arrive
        self._signal_handler: Optional[Callable[["Endpoint"], None]] = None
        # the name of the per-message receive wait, built once (one
        # attribute: past 30 an instance dict stops sharing its keys)
        self._wait_recv_name = f"ep{endpoint_id}.wait_recv"
        self._recv_waiters: List[Event] = []
        self._send_complete_waiters: List[Event] = []
        self._send_space_waiters: List[Event] = []
        # statistics
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.recv_queue_drops = 0
        #: messages lost because the free queue held no buffer (counted
        #: here by the serving backend, in addition to its own total)
        self.no_buffer_drops = 0
        #: messages shed while the endpoint was quarantined
        self.quarantine_drops = 0
        #: packets fenced because they carried a dead incarnation's epoch
        self.stale_epoch_drops = 0
        #: sends abandoned because the peer was declared dead
        self.peer_dead_drops = 0
        #: set by the health layer (see :mod:`repro.core.health`): the
        #: NI/kernel sheds this endpoint's traffic at the demux step so a
        #: misbehaving process cannot consume service time that other
        #: endpoints need
        self.quarantined = False
        #: where deliveries and drops are recorded: the serving NI's
        #: stream (set by ``create_endpoint``); a bare endpoint's own
        self.trace = TraceRecorder(enabled=False)
        #: set by :meth:`release`: the buffer area, queues and channels
        #: went back to the system; only the counters are left
        self.closed = False

    # -- teardown ----------------------------------------------------------
    def release(self) -> None:
        """Return what the endpoint holds (Section 3: destroying an
        endpoint frees its buffer area, queues and channels).

        The NI/kernel calls this from ``destroy_endpoint`` and when the
        whole machine is closed.  The statistics and drop counters stay
        readable; a message still on its way here is dropped by
        :meth:`deliver`, a descriptor still on its way out finds no
        channel.  Idempotent.
        """
        self.closed = True
        self.buffers.close()
        for ring in (self.send_queue, self.recv_queue, self.free_queue):
            ring.drain()
        self.channels.clear()
        self._signal_handler = None
        self._recv_waiters = []
        self._send_complete_waiters = []
        self._send_space_waiters = []

    # -- application side --------------------------------------------------
    def post_send(self, descriptor: SendDescriptor) -> None:
        """Push a send descriptor (application side).

        The descriptor is validated here, at the protection boundary: a
        bad buffer index or segment length raises a typed
        :class:`~repro.core.errors.InvalidDescriptorError` instead of
        corrupting state deep inside the substrate.
        """
        if descriptor.channel_id not in self.channels:
            raise ProtectionError(
                f"channel {descriptor.channel_id} not registered on endpoint {self.id}"
            )
        for index, length in descriptor.segments:
            if not 0 <= index < self.buffers.num_buffers:
                raise InvalidDescriptorError(
                    f"endpoint {self.id}: send segment names buffer {index}, "
                    f"but the buffer area has {self.buffers.num_buffers}"
                )
            if not 0 <= length <= self.buffers.buffer_size:
                raise InvalidDescriptorError(
                    f"endpoint {self.id}: send segment length {length} outside "
                    f"[0, {self.buffers.buffer_size}]"
                )
        self.send_queue.push(descriptor)

    def wait_send_queue_space(self) -> Event:
        """Event that fires when the send queue has (or gets) room."""
        event = self.sim.event(name=f"ep{self.id}.wait_sq")
        if not self.send_queue.is_full:
            event.succeed()
        else:
            self._send_space_waiters.append(event)
        return event

    def take_send_descriptor(self) -> Optional[SendDescriptor]:
        """NI/kernel side: pop the next send descriptor, waking any
        application process blocked on a full send queue."""
        queue = self.send_queue.items
        descriptor = queue.popleft() if queue else None
        if descriptor is not None and self._send_space_waiters:
            waiters, self._send_space_waiters = self._send_space_waiters, []
            for event in waiters:
                event.succeed()
        return descriptor

    def donate_free_buffer(self, buffer_index: int) -> None:
        """Provide a receive buffer to the NI via the free queue."""
        if not 0 <= buffer_index < self.buffers.num_buffers:
            raise InvalidDescriptorError(
                f"endpoint {self.id}: bad free-queue buffer index {buffer_index}"
            )
        self.free_queue.push(buffer_index)

    def set_signal_handler(self, handler: Optional[Callable[["Endpoint"], None]]) -> None:
        """Register an upcall run when the receive queue becomes non-empty."""
        self._signal_handler = handler

    def poll_receive(self) -> Optional[RecvDescriptor]:
        """Non-blocking receive-queue check."""
        queue = self.recv_queue.items
        return queue.popleft() if queue else None

    def wait_receive(self) -> Event:
        """Event that fires when the receive queue is (or becomes) non-empty.

        Models blocking in ``select()``.  The caller must then
        :meth:`poll_receive`; a fired event does not consume the message.
        """
        event = Event(self.sim, self._wait_recv_name)
        if self.recv_queue.items:
            event.succeed()
        else:
            self._recv_waiters.append(event)
        return event

    def read_message(self, descriptor: RecvDescriptor) -> bytes:
        """Assemble a received message's payload bytes: the inline copy,
        or a slice of the buffer area per segment."""
        if descriptor.inline is not None:
            return descriptor.inline
        area = self.buffers
        storage, size, count = area.storage, area.buffer_size, area.num_buffers
        parts = []
        for idx, length in descriptor.segments:
            if not (0 <= idx < count and 0 <= length <= size):
                area.buffer(idx).read(length)  # raises the area's own error
            offset = idx * size
            parts.append(storage[offset:offset + length])
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def recycle(self, descriptor: RecvDescriptor) -> None:
        """Return a consumed message's buffers to the free queue."""
        for idx, _length in descriptor.segments:
            self.free_queue.push(idx)

    # -- NI / kernel side ----------------------------------------------------
    def deliver(self, descriptor: RecvDescriptor) -> bool:
        """Enqueue a received message toward the application.

        Returns False (and counts a drop) when the receive queue is full —
        U-Net itself provides no flow control or retransmission; that is
        left to the protocols above (Section 3.1).
        """
        if self.closed or not self.recv_queue.try_push(descriptor):
            self.note_drop("recv_queue_drops")
            return False
        self.messages_received += 1
        self.bytes_received += descriptor.length
        if self.trace.listeners:
            self.trace.record(self.sim.now, 0.0, "endpoint", "deliver", endpoint=self.id,
                              channel=descriptor.channel_id, length=descriptor.length)
        if ((self._recv_waiters or self._signal_handler is not None)
                and len(self.recv_queue.items) == 1):
            self._wake_receivers()
        return True

    def send_completed(self, descriptor: SendDescriptor) -> None:
        """NI side: transmission done; sender may reclaim the buffers."""
        descriptor.completed = True
        waiters, self._send_complete_waiters = self._send_complete_waiters, []
        for event in waiters:
            event.succeed()

    def wait_send_complete(self) -> Event:
        """Event that fires at the next send completion."""
        event = self.sim.event(name=f"ep{self.id}.wait_send")
        self._send_complete_waiters.append(event)
        return event

    def take_free_buffer(self) -> Optional[int]:
        """NI side: pop a donated receive buffer index."""
        return self.free_queue.try_pop()

    # -- health / accounting -------------------------------------------------
    def note_drop(self, kind: str) -> None:
        """Count one lost message under the shared drop vocabulary.

        All layers that shed a message destined for this endpoint funnel
        through here (``deliver`` for a full receive queue, the serving
        backend for no-buffer and quarantine sheds), so the stream sees
        every drop exactly once, as a ``"drop"`` record named by its class.
        """
        if kind not in self._OWN_DROPS:
            raise ValueError(f"unknown drop class {kind!r}; expected one of {self._OWN_DROPS}")
        setattr(self, kind, getattr(self, kind) + 1)
        if self.trace.listeners:
            self.trace.record(self.sim.now, 0.0, "drop", kind, endpoint=self.id)

    @property
    def recv_queue_occupancy(self) -> float:
        """Receive-queue fill fraction (0.0 empty .. 1.0 full)."""
        return len(self.recv_queue) / self.recv_queue.capacity

    drop_stats = drop_stats

    def _wake_receivers(self) -> None:
        waiters, self._recv_waiters = self._recv_waiters, []
        for event in waiters:
            event.succeed()
        if self._signal_handler is not None:
            self._signal_handler(self)
