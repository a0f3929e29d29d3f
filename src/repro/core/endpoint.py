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
from ..sim import BoundedRing, Event, Simulator
from .descriptors import RecvDescriptor, SendDescriptor
from .errors import EndpointError, InvalidDescriptorError, ProtectionError

__all__ = ["Endpoint", "EndpointConfig", "DROP_COUNTERS"]

#: the shared drop-accounting vocabulary: every layer that can lose a
#: message (endpoint, demux, either substrate backend) reports these
#: counter names from its ``drop_stats()`` so reports can merge them
DROP_COUNTERS = ("recv_queue_drops", "no_buffer_drops", "unknown_tag_drops",
                 "quarantine_drops", "stale_epoch_drops", "peer_dead_drops",
                 "admission_rejected_drops")


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
        #: most recent send-queue activity, used by the i960's adaptive
        #: polling ("endpoints with recent activity are polled more
        #: frequently", Section 4.2.2)
        self.last_send_activity = -1.0
        #: optional application signal handler, invoked (once per
        #: empty->non-empty transition) when messages arrive
        self._signal_handler: Optional[Callable[["Endpoint"], None]] = None
        self._recv_waiters: List[Event] = []
        self._send_complete_waiters: List[Event] = []
        self._send_space_waiters: List[Event] = []
        # statistics
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.receive_drops = 0
        #: messages lost because the free queue held no buffer (counted
        #: here by the serving backend, in addition to its own total)
        self.no_buffer_drops = 0
        #: messages shed while the endpoint was quarantined
        self.quarantine_drops = 0
        #: packets fenced because they carried a dead incarnation's epoch
        self.stale_epoch_drops = 0
        #: sends abandoned because the peer was declared dead
        self.peer_dead_drops = 0
        #: always zero on an endpoint — admission rejection happens before
        #: the endpoint exists, so the backend owns the live count; the key
        #: is carried here so every ``drop_stats()`` speaks one vocabulary
        self.admission_rejected_drops = 0
        #: set by the health layer (see :mod:`repro.core.health`): the
        #: NI/kernel sheds this endpoint's traffic at the demux step so a
        #: misbehaving process cannot consume service time that other
        #: endpoints need
        self.quarantined = False
        #: optional observable-event hook ``observer(kind, endpoint)``,
        #: invoked on every counted drop (kind is a ``DROP_COUNTERS``
        #: name); used by the conformance checker to build per-run traces
        self.observer: Optional[Callable[[str, "Endpoint"], None]] = None
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
        self.last_send_activity = self.sim.now

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
        descriptor = self.send_queue.try_pop()
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
        return self.recv_queue.try_pop()

    def wait_receive(self) -> Event:
        """Event that fires when the receive queue is (or becomes) non-empty.

        Models blocking in ``select()``.  The caller must then
        :meth:`poll_receive`; a fired event does not consume the message.
        """
        event = self.sim.event(name=f"ep{self.id}.wait_recv")
        if not self.recv_queue.is_empty:
            event.succeed()
        else:
            self._recv_waiters.append(event)
        return event

    def read_message(self, descriptor: RecvDescriptor) -> bytes:
        """Assemble a received message's payload bytes."""
        if descriptor.is_inline:
            return descriptor.inline
        parts = [self.buffers.buffer(idx).read(length) for idx, length in descriptor.segments]
        return b"".join(parts)

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
        descriptor.timestamp = self.sim.now
        if self.closed or not self.recv_queue.try_push(descriptor):
            self.note_drop("recv_queue_drops")
            return False
        self.messages_received += 1
        self.bytes_received += descriptor.length
        if len(self.recv_queue) == 1:
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
        backend for no-buffer and quarantine sheds), so the observer hook
        sees every drop exactly once with its classification.
        """
        if kind == "recv_queue_drops":
            self.receive_drops += 1
        elif kind == "no_buffer_drops":
            self.no_buffer_drops += 1
        elif kind == "quarantine_drops":
            self.quarantine_drops += 1
        elif kind == "stale_epoch_drops":
            self.stale_epoch_drops += 1
        elif kind == "peer_dead_drops":
            self.peer_dead_drops += 1
        elif kind == "admission_rejected_drops":
            self.admission_rejected_drops += 1
        else:
            raise ValueError(f"unknown drop class {kind!r}; expected one of {DROP_COUNTERS}")
        if self.observer is not None:
            self.observer(kind, self)

    @property
    def recv_queue_occupancy(self) -> float:
        """Receive-queue fill fraction (0.0 empty .. 1.0 full)."""
        return len(self.recv_queue) / self.recv_queue.capacity

    @property
    def free_buffer_level(self) -> float:
        """Free-queue fill fraction relative to its capacity."""
        return len(self.free_queue) / self.free_queue.capacity

    def drop_stats(self) -> dict:
        """Drop counters under the shared :data:`DROP_COUNTERS` names.

        ``unknown_tag_drops`` happen before any endpoint is known, so an
        endpoint always reports zero there; the demux table owns them.
        """
        return {
            "recv_queue_drops": self.receive_drops,
            "no_buffer_drops": self.no_buffer_drops,
            "unknown_tag_drops": 0,
            "quarantine_drops": self.quarantine_drops,
            "stale_epoch_drops": self.stale_epoch_drops,
            "peer_dead_drops": self.peer_dead_drops,
            "admission_rejected_drops": self.admission_rejected_drops,
        }

    def _wake_receivers(self) -> None:
        waiters, self._recv_waiters = self._recv_waiters, []
        for event in waiters:
            event.succeed()
        if self._signal_handler is not None:
            self._signal_handler(self)
