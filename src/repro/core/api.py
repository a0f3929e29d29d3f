"""The user-level U-Net API.

This is the layer an application links against: it composes messages into
the endpoint buffer area, pushes descriptors, kicks the backend, and
consumes the receive queue.  All host-CPU costs an application pays on
the critical path (the compose copy at memcpy speed, the descriptor
pushes, the trap/doorbell) are charged here or in the backend it calls.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, Optional, Tuple

from ..hw.cpu import CpuModel
from ..hw.memory import Buffer
from ..sim import Simulator
from .base import UNetBackend
from .channels import lookup_channel
from .descriptors import RecvDescriptor, SendDescriptor
from .endpoint import Endpoint, EndpointConfig
from .errors import EndpointError, MessageTooLarge

__all__ = ["Host", "UserEndpointBase", "UserEndpoint", "ReceivedMessage"]

#: fixed user-level cost of filling in and pushing one send descriptor
DESCRIPTOR_PUSH_US = 0.30
#: fixed user-level cost of popping and parsing one receive descriptor
DESCRIPTOR_POP_US = 0.25
#: cost of returning from a blocking wait (select return + reschedule);
#: charged only when the receiver actually blocked
SELECT_WAKEUP_US = 3.5


class ReceivedMessage:
    """A message handed to the application."""

    __slots__ = ("channel_id", "data")

    def __init__(self, channel_id: int, data: bytes) -> None:
        self.channel_id = channel_id
        self.data = data

    def __len__(self) -> int:
        return len(self.data)


class Host:
    """A workstation: a CPU plus a U-Net backend instance.

    The host CPU is modelled as a single resource only where it matters
    for the paper's claims (kernel send/receive service occupies it); the
    Split-C layer accounts for computation explicitly.
    """

    PARTS = ("backend",)

    def __init__(self, sim: Simulator, name: str, cpu: CpuModel, backend: UNetBackend) -> None:
        self.sim = sim
        self.name = name
        self.cpu = cpu
        self.backend = backend

    def create_endpoint(self, config: Optional[EndpointConfig] = None, rx_buffers: int = 32,
                        tenant: str = "", qos: str = "") -> "UserEndpoint":
        """Create an endpoint and pre-donate ``rx_buffers`` receive buffers.

        ``tenant``/``qos`` carry multi-tenant identity through to the
        backend, where an attached admission controller may refuse with
        :class:`~repro.core.errors.AdmissionRejected`."""
        endpoint = self.backend.create_endpoint(config, owner=self.name,
                                                tenant=tenant, qos=qos)
        user = UserEndpoint(self, endpoint)
        user.donate_rx_buffers(rx_buffers)
        return user

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} ({self.cpu.name}, {self.backend.name})>"


class UserEndpointBase:
    """The clock-free half of the application-side endpoint wrapper.

    Composing and sending block, and how a substrate blocks is what its
    wrapper adds: :class:`UserEndpoint` yields to the simulator,
    :class:`repro.live.backend.LiveUserEndpoint` polls against the wall
    clock.  Everything that never waits — teardown, reclaiming the
    buffers of completed sends, donating receive buffers, the polling
    receive — is the same code on every substrate and lives here.
    """

    def __init__(self, backend: UNetBackend, endpoint: Endpoint, name: str) -> None:
        self.backend = backend
        self.endpoint = endpoint
        #: the owning host's name (what the peer's channel binding records)
        self.name = name
        #: sends the NI has not finished, oldest first, with the buffers
        #: each holds; a send queue completes in the order it was posted
        self._tx_inflight: Deque[Tuple[SendDescriptor, List[Buffer]]] = deque()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear the endpoint down (kernel-mediated, Section 3).

        Further sends raise; in-flight traffic addressed here is dropped
        by the NI's demultiplexer.
        """
        if self._closed:
            return
        self._closed = True
        self.backend.destroy_endpoint(self.endpoint)

    def _reclaim_completed(self) -> None:
        """Free buffers of sends the NI has finished transmitting."""
        inflight, area = self._tx_inflight, self.endpoint.buffers
        while inflight and inflight[0][0].completed:
            for buf in inflight.popleft()[1]:
                area.free(buf)

    def donate_rx_buffers(self, count: int) -> None:
        """Allocate ``count`` buffers and push them onto the free queue."""
        for _ in range(count):
            buf = self.endpoint.buffers.try_alloc()
            if buf is None:
                raise EndpointError("buffer area exhausted while donating receive buffers")
            self.endpoint.donate_free_buffer(buf.index)

    def poll(self) -> Optional[ReceivedMessage]:
        """Non-blocking receive (the polling model of Section 3.1)."""
        descriptor = self.endpoint.poll_receive()
        if descriptor is None:
            return None
        return self._consume(descriptor)

    def _consume(self, descriptor: RecvDescriptor) -> ReceivedMessage:
        endpoint = self.endpoint
        data = descriptor.inline
        if data is None:
            data = endpoint.read_message(descriptor)
        endpoint.recycle(descriptor)
        binding = endpoint.channels.get(descriptor.channel_id)
        if binding is not None:
            binding.messages_received += 1
        return ReceivedMessage(descriptor.channel_id, data)


class UserEndpoint(UserEndpointBase):
    """Application-side wrapper around one simulated U-Net endpoint."""

    def __init__(self, host: Host, endpoint: Endpoint) -> None:
        super().__init__(host.backend, endpoint, host.name)
        self.host = host
        self.sim = host.sim

    # -- sending -------------------------------------------------------------
    def send(self, channel_id: int, payload: bytes, kick: bool = True) -> Generator:
        """Process: compose ``payload`` and hand it to the NI.

        Charges the compose copy into the buffer area at host memcpy
        speed plus the descriptor push, then runs the backend kick
        (doorbell or trap).  With ``kick=False`` the descriptor is queued
        but the backend is not notified — callers can batch several sends
        under a single trap (Section 4.3.2 services the whole queue per
        trap) by kicking once at the end via :meth:`kick`.
        """
        backend, endpoint = self.backend, self.endpoint
        if self._closed:
            raise EndpointError(f"endpoint {endpoint.id} is closed")
        length = len(payload)
        if length > backend.max_pdu:
            raise MessageTooLarge(f"{length} bytes > max PDU {backend.max_pdu}")
        if channel_id not in endpoint.channels:
            lookup_channel(endpoint, channel_id)  # protection check: raises
        inflight = self._tx_inflight
        if inflight and inflight[0][0].completed:
            self._reclaim_completed()
        area = endpoint.buffers
        buf = area.try_alloc() if length <= area.buffer_size else None
        if buf is not None:
            # one buffer, free now: the compose copy straight into the area
            area.storage[buf.offset:buf.offset + length] = payload
            buf.length = length
            held, segments = [buf], [(buf.index, length)]
        else:
            buffers = yield from self._compose_buffers(payload)
            held = [buf for buf, _l in buffers]
            segments = [(buf.index, chunk) for buf, chunk in buffers]
        descriptor = SendDescriptor(channel_id, segments)
        # the copy, then the push: one wake at the sum the two sleeps reach
        # (``Simulator.until`` without the call)
        yield (self.sim._now + self.host.cpu.copy_time(length) + DESCRIPTOR_PUSH_US,)
        send_queue = endpoint.send_queue
        while len(send_queue.items) >= send_queue.capacity:
            # backpressure: wait for the NI/kernel to drain the queue
            yield endpoint.wait_send_queue_space()
        endpoint.post_send(descriptor)
        endpoint.messages_sent += 1
        endpoint.bytes_sent += length
        inflight.append((descriptor, held))
        if kick:
            yield from backend.kick(endpoint)

    def kick(self) -> Generator:
        """Explicitly notify the backend of pending send descriptors."""
        yield from self.backend.kick(self.endpoint)

    def _compose_buffers(self, payload: bytes):
        """Process: split ``payload`` across as many buffers as it needs,
        blocking while the buffer area is exhausted by in-flight sends
        (what :meth:`send` falls back to when one free buffer will not do)."""
        size = self.endpoint.buffers.buffer_size
        if not payload:
            buf = yield from self._alloc_tx_buffer()
            return [(buf, 0)]
        buffers = []
        for start in range(0, len(payload), size):
            chunk = payload[start : start + size]
            buf = yield from self._alloc_tx_buffer()
            buf.write(chunk)
            buffers.append((buf, len(chunk)))
        return buffers

    def _alloc_tx_buffer(self):
        while True:
            buf = self.endpoint.buffers.try_alloc()
            if buf is None:
                self._reclaim_completed()
                buf = self.endpoint.buffers.try_alloc()
            if buf is not None:
                return buf
            if not self._tx_inflight:
                raise EndpointError(
                    f"endpoint {self.endpoint.id}: buffer area exhausted with no sends in flight"
                )
            # application-managed backpressure: wait for the NI to finish
            # transmitting an earlier message, then reclaim its buffers
            yield self.endpoint.wait_send_complete()

    # -- receiving ---------------------------------------------------------
    def recv(self) -> Generator:
        """Process: block until a message arrives, then consume it."""
        endpoint = self.endpoint
        while True:
            blocked = not endpoint.recv_queue.items
            yield endpoint.wait_receive()
            if blocked:
                yield SELECT_WAKEUP_US
            descriptor = endpoint.poll_receive()
            if descriptor is not None:
                yield DESCRIPTOR_POP_US
                return self._consume(descriptor)

    def recv_all(self) -> List[ReceivedMessage]:
        """Consume every pending message in one upcall (Section 3.1's
        amortization of upcall costs)."""
        messages = []
        while True:
            descriptor = self.endpoint.poll_receive()
            if descriptor is None:
                return messages
            messages.append(self._consume(descriptor))

    def set_signal_handler(self, handler) -> None:
        self.endpoint.set_signal_handler(lambda _ep: handler(self))
