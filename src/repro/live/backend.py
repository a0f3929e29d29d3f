"""U-Net/OS: the live backend — real sockets behind the U-Net API.

One :class:`LiveBackend` is one node's "NIC plus kernel service": a
single datagram socket (:mod:`repro.live.transport`), a
:class:`~repro.core.mux.DemuxTable`, and the node's endpoints — which
are the *same* :class:`~repro.core.endpoint.Endpoint` objects the
simulated substrates serve (same buffer areas, same bounded
send/recv/free rings, same descriptor validation, same drop
vocabulary), timestamped through the :class:`~repro.core.clock.ClockShim`.

The fast-trap analogue is the **polling doorbell loop**: where U-Net/FE
trapped into the kernel to drain the send queue and U-Net/ATM had the
i960 poll doorbell words in NI memory, U-Net/OS drains every endpoint's
send queue and the socket's receive buffer from :meth:`service`, in
user context, with plain non-blocking syscalls.  ``kick`` is therefore
synchronous — by the time it returns, accepted descriptors have been
handed to the kernel (and marked complete, since a datagram ``sendto``
copies).  A send the kernel refuses (full peer buffer) stays on the
send queue: backpressure, never silent loss.

Wire format: a 6-byte frame header ``!HHH`` — destination port, source
node id, source port — in front of the payload, the moral equivalent of
U-Net/FE's MAC + U-Net-port header.  The (dst_port, src_node, src_port)
triple is the demux tag; unknown tags are counted and dropped at this
boundary, exactly as the NI firmware does.
"""

from __future__ import annotations

import heapq
import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..core.api import UserEndpointBase
from ..core.base import Closing, UNetBackend
from ..core.channels import connect_pair, lookup_channel
from ..core.clock import Clock, ClockShim
from ..core.descriptors import RecvDescriptor, SendDescriptor, SMALL_MESSAGE_MAX
from ..core.endpoint import Endpoint, EndpointConfig
from ..core.errors import EndpointError, MessageTooLarge
from .bufpool import BufferPool, PooledSlice
from .doorbell import DEFAULT_DOORBELL_MODE, EventDoorbell, validate_doorbell_mode
from .transport import LiveTransport, RECV_BATCH

__all__ = ["LiveTag", "LiveBackend", "LiveUserEndpoint", "LiveCluster",
           "FRAME_HEADER", "FRAME_HEADER_SIZE", "DEFAULT_MAX_PDU",
           "POOL_SLOTS"]

#: dst_port, src_node, src_port
FRAME_HEADER = "!HHH"
FRAME_HEADER_SIZE = struct.calcsize(FRAME_HEADER)
#: precompiled once — the per-message fast paths call bound methods on
#: this instead of re-resolving the format through struct's cache
_FRAME_STRUCT = struct.Struct(FRAME_HEADER)

#: largest U-Net message U-Net/OS carries in one datagram; comfortably
#: above both simulated substrates' PDUs and far below any datagram limit
DEFAULT_MAX_PDU = 4096

#: slots per zero-copy pool in batched mode (one batch deep on each of
#: TX and RX, so a full drain never stalls on its own pool)
POOL_SLOTS = RECV_BATCH

#: longest an event-mode cluster parks in epoll before re-polling; short
#: enough that AM retransmission timers still fire close to on time
_EVENT_WAIT_US = 500.0


class LiveTag:
    """Message tag of one live channel (the EthernetTag analogue)."""

    __slots__ = ("dest_address", "dst_port", "src_node", "src_port")

    def __init__(self, dest_address, dst_port: int, src_node: int, src_port: int) -> None:
        self.dest_address = dest_address
        self.dst_port = dst_port
        self.src_node = src_node
        self.src_port = src_port

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LiveTag dst={self.dest_address!r}:{self.dst_port} "
                f"src=n{self.src_node}:{self.src_port}>")


class LiveBackend(UNetBackend):
    """One node: transport socket + demux + endpoints + doorbell loop.

    Endpoint lifecycle, admission and drop accounting are
    :class:`~repro.core.base.UNetBackend`'s, as on the simulated
    substrates; what U-Net/OS adds is below — the socket, the framing,
    the doorbell loop and its pools.
    """

    wire_unit = "datagram"
    #: what a datagram fault stage skips to reach the AM packet when
    #: content-addressing
    frame_header_size = FRAME_HEADER_SIZE

    def __init__(self, transport: LiveTransport, clock: Clock,
                 node_id: int = 0, node_name: str = "n0",
                 max_pdu: int = DEFAULT_MAX_PDU,
                 doorbell_mode: str = DEFAULT_DOORBELL_MODE) -> None:
        super().__init__(ClockShim(clock), node_name)
        self.transport = transport
        self.clock = clock
        self.node_id = node_id
        self._max_pdu = max_pdu
        self.doorbell_mode = validate_doorbell_mode(doorbell_mode)
        #: zero-copy frame pools, only in batched mode — the busy-poll
        #: and event data paths stay byte-for-byte the PR-4 baseline
        slot = max_pdu + FRAME_HEADER_SIZE
        if self.doorbell_mode == "batched":
            self._tx_pool: Optional[BufferPool] = BufferPool(POOL_SLOTS, slot)
            self._rx_pool: Optional[BufferPool] = BufferPool(POOL_SLOTS, slot)
        else:
            self._tx_pool = None
            self._rx_pool = None
        self._next_port = 1
        #: optional ingress fault stage (conformance schedules interpose
        #: here, at the framing layer): ``process(raw, now_us, emit)``
        self._ingress_stage = None
        #: (due_us, tiebreak, raw) — datagrams a fault stage delayed
        self._held: List[Tuple[float, int, bytes]] = []
        self._held_count = 0
        self.closed = False

    # -- endpoint lifecycle ------------------------------------------------
    @property
    def max_pdu(self) -> int:
        return self._max_pdu

    @property
    def defer_kick(self) -> bool:
        """Batched mode rings the doorbell per service pass, not per
        send: producers enqueue with ``kick=False`` and the next pass
        flushes a whole batch in one ``sendmmsg``."""
        return self._tx_pool is not None

    def create_user_endpoint(self, config: Optional[EndpointConfig] = None,
                             rx_buffers: int = 32, owner: str = "",
                             tenant: str = "", qos: str = "") -> "LiveUserEndpoint":
        endpoint = self.create_endpoint(config, owner=owner or self.name,
                                        tenant=tenant, qos=qos)
        user = LiveUserEndpoint(self, endpoint)
        user.donate_rx_buffers(rx_buffers)
        return user

    def allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    # -- doorbell / service loop -------------------------------------------
    def kick(self, endpoint: Endpoint) -> int:
        """Drain ``endpoint``'s send queue onto the socket (synchronous).

        Returns the number of descriptors handed to the kernel.  A
        would-block leaves the head descriptor queued for the next pass.
        """
        if self.closed:
            return 0  # teardown: queued descriptors die with the node
        if self._tx_pool is not None:
            return self._kick_batched(endpoint)
        sent = 0
        while True:
            descriptor = endpoint.send_queue.peek()
            if descriptor is None:
                break
            binding = endpoint.channels.get(descriptor.channel_id)
            if binding is None:
                # validated at post_send; a vanished channel means teardown
                endpoint.take_send_descriptor()
                continue
            tag: LiveTag = binding.tag
            payload = b"".join(
                endpoint.buffers.buffer(idx).read(length)
                for idx, length in descriptor.segments)
            frame = struct.pack(FRAME_HEADER, tag.dst_port, tag.src_node,
                                tag.src_port) + payload
            if not self.transport.send(tag.dest_address, frame):
                break  # backpressure: retry on the next doorbell pass
            endpoint.take_send_descriptor()
            endpoint.send_completed(descriptor)
            binding.messages_sent += 1
            sent += 1
        return sent

    def _compose_frame(self, endpoint: Endpoint, descriptor: SendDescriptor,
                       tag: LiveTag, slice_: PooledSlice) -> None:
        """Frame ``descriptor`` into ``slice_`` without allocating: pack
        the header in place, copy payload straight between the two
        pinned areas."""
        _FRAME_STRUCT.pack_into(slice_.view, 0, tag.dst_port,
                                tag.src_node, tag.src_port)
        offset = FRAME_HEADER_SIZE
        for idx, length in descriptor.segments:
            if length:
                slice_.view[offset:offset + length] = \
                    endpoint.buffers.buffer(idx).view(length)
                offset += length
        slice_.length = offset

    def _kick_batched(self, endpoint: Endpoint) -> int:
        """Batched doorbell: compose a queue prefix into the TX pool,
        flush it in one ``send_many``, pop exactly what the kernel
        accepted.  Identical backpressure contract to the scalar loop —
        the unaccepted tail stays queued, FIFO order intact."""
        pool = self._tx_pool
        sent = 0
        while True:
            head = endpoint.send_queue.peek()
            if head is None:
                break
            if endpoint.channels.get(head.channel_id) is None:
                # validated at post_send; a vanished channel means teardown
                endpoint.take_send_descriptor()
                continue
            descriptors = endpoint.send_queue.peek_many(
                min(POOL_SLOTS, self.transport.tx_hint))
            slices = pool.take(len(descriptors))
            batch: List[Tuple[object, PooledSlice]] = []
            bindings = []
            for descriptor, slice_ in zip(descriptors, slices):
                binding = endpoint.channels.get(descriptor.channel_id)
                if binding is None:
                    break  # flush up to here; it becomes the head next pass
                self._compose_frame(endpoint, descriptor, binding.tag, slice_)
                batch.append((binding.tag.dest_address, slice_))
                bindings.append(binding)
            try:
                accepted = self.transport.send_many(batch) if batch else 0
            finally:
                pool.give_back(slices)
            for binding in bindings[:accepted]:
                endpoint.send_completed(endpoint.take_send_descriptor())
                binding.messages_sent += 1
            sent += accepted
            if not batch or accepted < len(batch):
                break  # pool or transport backpressure: the tail stays queued
        return sent

    def service(self) -> int:
        """One doorbell-loop pass: egress drain, ingress drain, held
        (fault-delayed) datagrams whose deadline passed.  Returns the
        number of datagrams delivered toward endpoints."""
        if self.closed:
            return 0
        for endpoint in self.endpoints:
            if not endpoint.send_queue.is_empty:
                self.kick(endpoint)
        delivered = 0
        now = self.clock.now_us()
        if self._rx_pool is not None:
            slices = self.transport.recv_batch_into(self._rx_pool)
            try:
                for slice_ in slices:
                    if self._ingress_stage is None:
                        delivered += self._deliver(slice_.payload())
                    else:
                        # a fault stage may hold the datagram past this
                        # pass; materialize so the recycled slot can't
                        # alias what the stage is still holding
                        delivered += self._ingress(bytes(slice_.payload()), now)
            finally:
                self._rx_pool.give_back(slices)
        else:
            for raw in self.transport.recv_batch():
                delivered += self._ingress(raw, now)
        while self._held and self._held[0][0] <= self.clock.now_us():
            _due, _n, raw = heapq.heappop(self._held)
            delivered += self._deliver(raw)
        return delivered

    def service_fast(self, on_message) -> int:
        """Fast-path doorbell pass: batched ingress delivered as
        zero-copy upcalls.

        Runs the same egress kick and the same protection checks as
        :meth:`service` — demux by tag, quarantine, shared drop
        vocabulary — but hands each payload to ``on_message(endpoint,
        channel_id, payload_view)`` straight out of the RX pool slice,
        skipping descriptor composition and the buffer-area copy: the
        moral equivalent of an Active Message handler running directly
        on the NI's receive buffer.  The view dies when the upcall
        returns (the slot is recycled); consumers that keep data copy
        out, exactly as AM handlers must.  Batched mode only.
        """
        if self.closed:
            return 0
        if self._rx_pool is None:
            raise EndpointError(
                f"{self.name}: service_fast requires doorbell_mode="
                f"'batched' (got {self.doorbell_mode!r})")
        for endpoint in self.endpoints:
            if not endpoint.send_queue.is_empty:
                self.kick(endpoint)
        delivered = 0
        pool = self._rx_pool
        slices = self.transport.recv_batch_into(pool)
        # hoisted: this loop is the per-message RX cost
        unpack = _FRAME_STRUCT.unpack_from
        lookup = self.demux.lookup
        header = FRAME_HEADER_SIZE
        try:
            for slice_ in slices:
                length = slice_.length
                if length >= header:
                    view = slice_.view
                    entry = lookup(unpack(view, 0))
                    # None -> unknown tag, counted by the demux table
                    if entry is not None:
                        endpoint, channel_id = entry
                        if endpoint.quarantined:
                            self.quarantine_drops += 1
                            endpoint.note_drop("quarantine_drops")
                        else:
                            on_message(endpoint, channel_id, view[header:length])
                            delivered += 1
        finally:
            # the whole burst goes back at once, also when an upcall raised
            pool.give_back(slices)
        return delivered

    def install_ingress_stage(self, stage) -> None:
        """Interpose a fault stage at the framing layer (ingress side)."""
        self._ingress_stage = stage

    def _ingress(self, raw: bytes, now: float) -> int:
        if self._ingress_stage is None:
            return self._deliver(raw)
        delivered = 0

        def emit(pdu, delay_us: float = 0.0) -> None:
            nonlocal delivered
            if delay_us <= 0.0:
                delivered += self._deliver(pdu)
            else:
                self._held_count += 1
                heapq.heappush(self._held, (now + delay_us, self._held_count, pdu))

        self._ingress_stage.process(raw, now, emit)
        return delivered

    def _deliver(self, raw) -> int:
        """Demux one datagram (``bytes`` or a pool-slice ``memoryview``)
        to its endpoint's receive queue."""
        if len(raw) < FRAME_HEADER_SIZE:
            return 0
        dst_port, src_node, src_port = struct.unpack_from(FRAME_HEADER, raw, 0)
        payload = raw[FRAME_HEADER_SIZE:]
        entry = self.demux.lookup((dst_port, src_node, src_port))
        if entry is None:
            return 0  # unknown tag: counted by the demux table
        endpoint, channel_id = entry
        if endpoint.quarantined:
            self.quarantine_drops += 1
            endpoint.note_drop("quarantine_drops")
            return 0
        if len(payload) <= SMALL_MESSAGE_MAX:
            # inline descriptors own their bytes (the slice is recycled
            # after this call); bytes(bytes) is free for the scalar path
            descriptor = RecvDescriptor(channel_id=channel_id,
                                        length=len(payload),
                                        inline=bytes(payload))
        else:
            size = endpoint.buffers.buffer_size
            needed = (len(payload) + size - 1) // size
            indices: List[int] = []
            for _ in range(needed):
                index = endpoint.take_free_buffer()
                if index is None:
                    for idx in indices:  # partial claim: give them back
                        endpoint.donate_free_buffer(idx)
                    self.no_buffer_drops += 1
                    endpoint.note_drop("no_buffer_drops")
                    return 0
                indices.append(index)
            segments = []
            for k, index in enumerate(indices):
                chunk = payload[k * size:(k + 1) * size]
                buf = endpoint.buffers.buffer(index)
                buf.clear()
                buf.write(chunk)
                segments.append((index, len(chunk)))
            descriptor = RecvDescriptor(channel_id=channel_id,
                                        length=len(payload), segments=segments)
        if not endpoint.deliver(descriptor):
            # receive queue full: recycle the buffers we just claimed
            for index, _length in descriptor.segments:
                endpoint.donate_free_buffer(index)
            self.recv_queue_drops += 1
            return 0
        return 1

    def close(self) -> None:
        """Idempotent teardown: the socket FD is released exactly once,
        no matter what state the doorbell loop or any armed AM
        retransmission timer was in when the node went down; the
        endpoints return what they hold, as on a simulated NI."""
        if self.closed:
            return
        self.closed = True
        try:
            self.transport.close()
        finally:
            super().close()
            self._held.clear()


class LiveUserEndpoint(UserEndpointBase):
    """Synchronous application-side wrapper (the live ``UserEndpoint``).

    Same contract as :class:`repro.core.api.UserEndpoint` — compose into
    the buffer area, push a validated descriptor, ring the doorbell —
    but blocking is explicit polling against the wall clock instead of
    simulation events.
    """

    def __init__(self, backend: LiveBackend, endpoint: Endpoint) -> None:
        super().__init__(backend, endpoint, backend.name)

    # -- sending -----------------------------------------------------------
    def send(self, channel_id: int, payload: bytes, kick: bool = True) -> None:
        if self._closed:
            raise EndpointError(f"endpoint {self.endpoint.id} is closed")
        if len(payload) > self.backend.max_pdu:
            raise MessageTooLarge(
                f"{len(payload)} bytes > max PDU {self.backend.max_pdu}")
        lookup_channel(self.endpoint, channel_id)  # protection check
        self._reclaim_completed()
        buffers = self._compose_buffers(payload)
        descriptor = SendDescriptor(
            channel_id=channel_id,
            segments=[(buf.index, length) for buf, length in buffers])
        if self.endpoint.send_queue.is_full:
            self.backend.kick(self.endpoint)  # drain in our own context
        if self.endpoint.send_queue.is_full:
            for buf, _length in buffers:
                self.endpoint.buffers.free(buf)
            raise EndpointError(
                f"endpoint {self.endpoint.id}: send queue full "
                f"(transport backpressure)")
        self.endpoint.post_send(descriptor)
        self.endpoint.messages_sent += 1
        self.endpoint.bytes_sent += len(payload)
        self._tx_inflight.append((descriptor, [buf.index for buf, _l in buffers]))
        if kick:
            self.backend.kick(self.endpoint)

    def kick(self) -> None:
        self.backend.kick(self.endpoint)

    def send_burst(self, channel_id: int, payloads: List[bytes]) -> int:
        """Zero-copy burst send: frame ``payloads`` straight into the TX
        pool and flush with as few syscalls as the kernel allows.

        One protection check covers the burst (one channel, one tag —
        the paper's per-message protection is per-channel, established
        at channel-registration time).  Returns how many messages the
        kernel accepted, always a prefix of ``payloads``; backpressure
        (pool or socket) yields a partial count and the caller retries
        the tail.  Batched mode only.
        """
        if self._closed:
            raise EndpointError(f"endpoint {self.endpoint.id} is closed")
        pool = self.backend._tx_pool
        if pool is None:
            raise EndpointError(
                f"endpoint {self.endpoint.id}: send_burst requires "
                f"doorbell_mode='batched' "
                f"(got {self.backend.doorbell_mode!r})")
        max_pdu = self.backend.max_pdu
        longest = max(map(len, payloads), default=0)
        if longest > max_pdu:
            raise MessageTooLarge(f"{longest} bytes > max PDU {max_pdu}")
        binding = lookup_channel(self.endpoint, channel_id)  # protection
        tag: LiveTag = binding.tag
        # one channel means one header for the whole burst: pack it once
        header = _FRAME_STRUCT.pack(tag.dst_port, tag.src_node, tag.src_port)
        dest = tag.dest_address
        transport = self.backend.transport
        hdr = FRAME_HEADER_SIZE
        sent = 0
        total = len(payloads)
        while sent < total:
            # compose only what the kernel has recently been accepting:
            # frames composed past the would-block point are pure waste
            batch = pool.take(min(total - sent, transport.tx_hint))
            if not batch:
                break  # pool exhausted with nothing composed
            for slice_, payload in zip(batch, payloads[sent:sent + len(batch)]):
                end = hdr + len(payload)
                view = slice_.view
                view[:hdr] = header
                view[hdr:end] = payload
                slice_.length = end
            try:
                accepted = transport.send_many_to(dest, batch)
            finally:
                pool.give_back(batch)
            self.endpoint.bytes_sent += sum(map(len, payloads[sent:sent + accepted]))
            sent += accepted
            if accepted < len(batch):
                break  # kernel backpressure: caller retries the tail
        self.endpoint.messages_sent += sent
        binding.messages_sent += sent
        return sent

    def _compose_buffers(self, payload: bytes):
        size = self.endpoint.buffers.buffer_size
        if not payload:
            return [(self._alloc_tx_buffer(), 0)]
        buffers = []
        for start in range(0, len(payload), size):
            chunk = payload[start:start + size]
            buf = self._alloc_tx_buffer()
            buf.write(chunk)
            buffers.append((buf, len(chunk)))
        return buffers

    def _alloc_tx_buffer(self):
        buf = self.endpoint.buffers.try_alloc()
        if buf is None:
            # live sends complete at kick time, so one reclaim pass is
            # the whole backpressure story
            self.backend.kick(self.endpoint)
            self._reclaim_completed()
            buf = self.endpoint.buffers.try_alloc()
        if buf is None:
            raise EndpointError(
                f"endpoint {self.endpoint.id}: buffer area exhausted")
        return buf


class LiveCluster(Closing):
    """N live nodes in one process, serviced by one polling loop.

    The cluster is the live stand-in for a simulated network object:
    it creates nodes (one transport socket each), wires channels (tags
    plus demux rows on both sides — the OS-mediated channel service),
    and pumps every node's doorbell loop from :meth:`step`.
    """

    def __init__(self, make_transport: Callable[[str], LiveTransport],
                 clock: Clock, max_pdu: int = DEFAULT_MAX_PDU,
                 doorbell_mode: str = DEFAULT_DOORBELL_MODE) -> None:
        self._make_transport = make_transport
        self.clock = clock
        self.max_pdu = max_pdu
        self.doorbell_mode = validate_doorbell_mode(doorbell_mode)
        #: event mode parks here when a full pass moved nothing; other
        #: modes sleep blind (busy-poll's fixed backoff)
        self._doorbell = (EventDoorbell()
                          if self.doorbell_mode == "event" else None)
        self.nodes: List[LiveBackend] = []

    def add_node(self, name: Optional[str] = None) -> LiveBackend:
        node_id = len(self.nodes)
        node_name = name or f"n{node_id}"
        backend = LiveBackend(self._make_transport(node_name), self.clock,
                              node_id=node_id, node_name=node_name,
                              max_pdu=self.max_pdu,
                              doorbell_mode=self.doorbell_mode)
        self.nodes.append(backend)
        return backend

    def connect(self, a: LiveUserEndpoint, b: LiveUserEndpoint) -> Tuple[int, int]:
        """Create the channel pair between two live endpoints.

        Returns ``(channel_on_a, channel_on_b)``, mirroring the
        simulated networks' ``connect``.
        """
        node_a, node_b = a.backend, b.backend
        port_a, port_b = node_a.allocate_port(), node_b.allocate_port()
        return connect_pair(
            a, b,
            LiveTag(node_b.transport.address, port_b, node_a.node_id, port_a),
            LiveTag(node_a.transport.address, port_a, node_b.node_id, port_b),
            (port_a, node_b.node_id, port_b), (port_b, node_a.node_id, port_a))

    def step(self) -> int:
        """Service every node once; returns datagrams delivered."""
        return sum(node.service() for node in self.nodes)

    def run_until(self, predicate: Callable[[], bool], limit_us: float,
                  idle_sleep_us: float = 50.0) -> bool:
        """Pump the cluster until ``predicate()`` or the wall deadline.

        Sleeps briefly only when a full pass moved no data, so the loop
        busy-polls under load (the doorbell model) without pinning a
        CPU while idle.
        """
        deadline = self.clock.now_us() + limit_us
        while self.clock.now_us() < deadline:
            if predicate():
                return True
            if self.step() == 0:
                if self._doorbell is not None:
                    # interrupt-analogue: park until a socket is
                    # readable (or a short timeout keeps AM timers live)
                    self._doorbell.sync(node.transport.sock
                                        for node in self.nodes)
                    self._doorbell.wait_us(
                        min(_EVENT_WAIT_US, deadline - self.clock.now_us()))
                elif idle_sleep_us > 0:
                    self.clock.sleep_us(idle_sleep_us)
        return predicate()

    def wait_readable(self, timeout_us: float) -> int:
        """Event-mode idle wait for external pump loops; returns the
        number of readable sockets (0 on timeout or in other modes)."""
        if self._doorbell is None:
            return 0
        self._doorbell.sync(node.transport.sock for node in self.nodes)
        return self._doorbell.wait_us(timeout_us)

    def close(self) -> None:
        """Close every node's transport, even when one close raises.

        An abrupt teardown (a soak aborting mid-crash-fault, a test
        failing with retransmit timers armed) must not leak the
        remaining nodes' socket FDs because the first node's close blew
        up; the first error is re-raised after all sockets are released.
        """
        first_error: Optional[BaseException] = None
        for node in self.nodes:
            try:
                node.close()
            except Exception as exc:  # pragma: no cover - defensive
                if first_error is None:
                    first_error = exc
        if self._doorbell is not None:
            self._doorbell.close()
        if first_error is not None:
            raise first_error
