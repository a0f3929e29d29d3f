"""U-Net/OS: the live backend — real sockets behind the U-Net API.

One :class:`LiveBackend` is one node's "NIC plus kernel service": a
single datagram socket (:mod:`repro.live.transport`), a
:class:`~repro.core.mux.DemuxTable`, and the node's endpoints — which
are the *same* :class:`~repro.core.endpoint.Endpoint` objects the
simulated substrates serve (same buffer areas, same bounded
send/recv/free rings, same descriptor validation, same drop
vocabulary), on its cluster's one clock: the wall-clock runner's
:class:`~repro.sim.engine.Simulator` (``LiveCluster.sim``), where a
datagram a fault stage delays waits as an ordinary heap entry.

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

import math
import struct
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, Generator, List, NamedTuple, Optional, Sequence, Tuple

from ..core.api import UserEndpointBase
from ..core.base import Closing, UNetBackend
from ..core.channels import connect_pair, lookup_channel
from ..core.clock import Clock
from ..core.descriptors import RecvDescriptor, SendDescriptor, SMALL_MESSAGE_MAX
from ..core.endpoint import Endpoint, EndpointConfig
from ..core.errors import EndpointError, MessageTooLarge
from ..sim import RingFullError, Simulator
from .bufpool import BufferPool, PooledSlice
from .doorbell import DEFAULT_DOORBELL_MODE, EventDoorbell, validate_doorbell_mode
from .transport import LiveTransport, RECV_BATCH

__all__ = ["LiveTag", "LiveBackend", "LiveUserEndpoint", "LiveCluster",
           "DatagramWire", "FRAME_HEADER", "FRAME_HEADER_SIZE", "DEFAULT_MAX_PDU",
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
#: busy-poll mode's pause after a pass that moved no data
_IDLE_SLEEP_US = 50.0


class LiveTag:
    """Message tag of one live channel (the EthernetTag analogue)."""

    __slots__ = ("dest_address", "dst_port", "src_node", "src_port", "header")

    def __init__(self, dest_address, dst_port: int, src_node: int, src_port: int) -> None:
        self.dest_address = dest_address
        self.dst_port = dst_port
        self.src_node = src_node
        self.src_port = src_port
        #: the frame header every datagram on this channel carries,
        #: packed once when the channel is made
        self.header = _FRAME_STRUCT.pack(dst_port, src_node, src_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LiveTag dst={self.dest_address!r}:{self.dst_port} "
                f"src=n{self.src_node}:{self.src_port}>")


class DatagramWire:
    """U-Net/OS's wire as the fault layer sees it (``backend.wire``):
    every datagram is a whole PDU, the frame header then one AM packet.
    A pipeline attaches at ``LiveBackend._deliver`` as on every
    substrate, but this wire declares no ``corrupt`` or ``forge``:
    ``Corrupt`` and ``forge_unknown_traffic`` stay simulated-only."""

    @staticmethod
    def pdu(raw: bytes):
        return raw[:FRAME_HEADER_SIZE], True

    @staticmethod
    def head(raw: bytes) -> bytes:
        return raw[FRAME_HEADER_SIZE:]

    @staticmethod
    def rewrite(datagrams: List[bytes], edit) -> List[bytes]:
        """Each datagram with ``edit`` applied behind its frame header; one
        whose message does not edit passes untouched.  Never raises."""
        out = []
        for raw in datagrams:
            try:
                out.append(raw[:FRAME_HEADER_SIZE] + edit(raw[FRAME_HEADER_SIZE:]))
            except ValueError:
                out.append(raw)
        return out


class LiveBackend(UNetBackend):
    """One node: transport socket + demux + endpoints + doorbell loop.

    Endpoint lifecycle, admission and drop accounting are
    :class:`~repro.core.base.UNetBackend`'s, as on the simulated
    substrates; what U-Net/OS adds is below — the socket, the framing,
    the doorbell loop and its pools.
    """

    wire = DatagramWire
    PARTS = UNetBackend.PARTS + ("transport",)
    #: largest message one datagram carries: fixed when the node is made,
    #: so a plain attribute where the base class declares a property
    max_pdu = DEFAULT_MAX_PDU

    def __init__(self, transport: LiveTransport, sim: Simulator, clock: Clock,
                 node_id: int, node_name: str, max_pdu: int,
                 doorbell_mode: str) -> None:
        super().__init__(sim, node_name)
        self.transport = transport
        self.clock = clock
        self.node_id = node_id
        self.max_pdu = max_pdu
        self.doorbell_mode = doorbell_mode
        #: zero-copy frame pools, only in batched mode — the busy-poll
        #: and event data paths stay byte-for-byte the PR-4 baseline
        slot = max_pdu + FRAME_HEADER_SIZE
        if self.doorbell_mode == "batched":
            self._tx_pool: Optional[BufferPool] = BufferPool(POOL_SLOTS, slot)
            self._rx_pool: Optional[BufferPool] = BufferPool(POOL_SLOTS, slot)
        else:
            self._tx_pool = None
            self._rx_pool = None
        #: batched mode rings the doorbell per service pass, not per
        #: send: producers enqueue with ``kick=False`` and the next pass
        #: flushes each destination's batch in one ``sendmmsg``
        self.defer_kick = self._tx_pool is not None
        self._next_port = 1
        self.closed = False

    # -- endpoint lifecycle ------------------------------------------------

    def create_user_endpoint(self, config: Optional[EndpointConfig] = None,
                             rx_buffers: int = 32,
                             tenant: str = "", qos: str = "") -> "LiveUserEndpoint":
        endpoint = self.create_endpoint(config, owner=self.name,
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
        queue, channels = endpoint.send_queue.items, endpoint.channels
        storage, size = endpoint.buffers.storage, endpoint.buffers.buffer_size
        send = self.transport.send
        sent = 0
        while queue:
            descriptor = queue[0]
            binding = channels.get(descriptor.channel_id)
            if binding is None:
                # validated at post_send; a vanished channel means teardown
                endpoint.take_send_descriptor()
                continue
            tag: LiveTag = binding.tag
            # post_send checked every (index, length): copy straight out
            # of the area, behind the channel's packed header
            segments = descriptor.segments
            if len(segments) == 1:
                index, length = segments[0]
                frame = tag.header + storage[index * size:index * size + length]
            else:
                frame = tag.header + b"".join(
                    storage[index * size:index * size + length]
                    for index, length in segments)
            if not send(tag.dest_address, frame):
                break  # backpressure: retry on the next doorbell pass
            endpoint.take_send_descriptor()
            endpoint.send_completed(descriptor)
            binding.messages_sent += 1
            sent += 1
        return sent

    def _compose_frame(self, endpoint: Endpoint, descriptor: SendDescriptor,
                       tag: LiveTag, slice_: PooledSlice) -> None:
        """Frame ``descriptor`` into ``slice_`` without allocating: the
        channel's header, then the payload copied straight between the
        two pinned areas."""
        view = slice_.view
        view[:FRAME_HEADER_SIZE] = tag.header
        area = endpoint.buffers.storage_view
        size = endpoint.buffers.buffer_size
        offset = FRAME_HEADER_SIZE
        for idx, length in descriptor.segments:
            if length:
                view[offset:offset + length] = area[idx * size:idx * size + length]
                offset += length
        slice_.length = offset

    def _kick_batched(self, endpoint: Endpoint) -> int:
        """Batched doorbell: compose the queue prefix bound for the head's
        destination into the TX pool, flush it in one ``send_many_to``,
        pop exactly what the kernel accepted, then go on with the next
        destination.  Identical backpressure contract to the scalar loop —
        the unaccepted tail stays queued, FIFO order intact."""
        pool = self._tx_pool
        sent = 0
        while True:
            head = endpoint.send_queue.peek()
            if head is None:
                break
            binding = endpoint.channels.get(head.channel_id)
            if binding is None:
                # validated at post_send; a vanished channel means teardown
                endpoint.take_send_descriptor()
                continue
            dest = binding.tag.dest_address
            descriptors = endpoint.send_queue.peek_many(
                min(POOL_SLOTS, self.transport.tx_hint))
            slices = pool.take(len(descriptors))
            batch: List[PooledSlice] = []
            bindings = []
            for descriptor, slice_ in zip(descriptors, slices):
                binding = endpoint.channels.get(descriptor.channel_id)
                if binding is None or binding.tag.dest_address != dest:
                    break  # flush up to here; it becomes the head next round
                self._compose_frame(endpoint, descriptor, binding.tag, slice_)
                batch.append(slice_)
                bindings.append(binding)
            try:
                accepted = self.transport.send_many_to(dest, batch) if batch else 0
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
        """One doorbell-loop pass: egress drain, then ingress drain.
        Returns the datagrams it sent plus those that arrived — what the
        runner reads as "something moved"."""
        if self.closed:
            return 0
        sent = 0
        for endpoint in self.endpoints:
            if endpoint.send_queue.items:
                sent += self.kick(endpoint)
        deliver = self._deliver
        if self._rx_pool is not None:
            # a fault pipeline on ``_deliver`` may hold a datagram past
            # this pass: it gets bytes, so a recycled slot cannot alias it
            hooked = "_deliver" in vars(self)
            slices = self.transport.recv_batch_into(self._rx_pool)
            try:
                for slice_ in slices:
                    deliver(bytes(slice_.payload()) if hooked else slice_.payload())
            finally:
                self._rx_pool.give_back(slices)
            arrived = len(slices)
        else:
            datagrams = self.transport.recv_batch()
            for raw in datagrams:
                deliver(raw)
            arrived = len(datagrams)
        return sent + arrived

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
            if endpoint.send_queue.items:
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
                            endpoint.note_drop("quarantine_drops")
                        else:
                            on_message(endpoint, channel_id, view[header:length])
                            delivered += 1
        finally:
            # the whole burst goes back at once, also when an upcall raised
            pool.give_back(slices)
        return delivered

    def rx_fault_hooks(self):
        """Delivery hook points a fault pipeline may interpose on: every
        datagram, from either service path's drain, funnels through
        :meth:`_deliver`."""
        return [(self, "_deliver")]

    def _deliver(self, raw) -> None:
        """Demux one datagram (``bytes`` or a pool-slice ``memoryview``)
        to its endpoint's receive queue."""
        if len(raw) < FRAME_HEADER_SIZE:
            return
        entry = self.demux.lookup(_FRAME_STRUCT.unpack_from(raw))
        if entry is None:
            return  # unknown tag: counted by the demux table
        endpoint, channel_id = entry
        if endpoint.quarantined:
            endpoint.note_drop("quarantine_drops")
            return
        length = len(raw) - FRAME_HEADER_SIZE
        if length <= SMALL_MESSAGE_MAX:
            # inline descriptors own their bytes (the slice is recycled
            # after this call); bytes(bytes) is free for the scalar path
            descriptor = RecvDescriptor(channel_id, length,
                                        inline=bytes(raw[FRAME_HEADER_SIZE:]))
        else:
            area = endpoint.buffers
            size = area.buffer_size
            free = endpoint.free_queue.items
            needed = -(-length // size)
            if len(free) < needed:
                endpoint.note_drop("no_buffer_drops")
                return
            # donate_free_buffer checked every index on the free queue:
            # copy straight into the area
            storage = area.storage
            segments = []
            start = FRAME_HEADER_SIZE
            for _ in range(needed):
                index = free.popleft()
                chunk = raw[start:start + size]
                storage[index * size:index * size + len(chunk)] = chunk
                segments.append((index, len(chunk)))
                start += size
            descriptor = RecvDescriptor(channel_id, length, segments=segments)
        if not endpoint.deliver(descriptor):
            # receive queue full (booked by deliver): recycle the buffers
            # we just claimed
            for index, _length in descriptor.segments:
                endpoint.donate_free_buffer(index)

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
        backend, endpoint = self.backend, self.endpoint
        if len(payload) > backend.max_pdu:
            raise MessageTooLarge(f"{len(payload)} bytes > max PDU {backend.max_pdu}")
        if channel_id not in endpoint.channels:
            lookup_channel(endpoint, channel_id)  # protection check: raises
        inflight = self._tx_inflight
        if inflight and inflight[0][0].completed:
            self._reclaim_completed()
        area = endpoint.buffers
        size, length = area.buffer_size, len(payload)
        buffers, segments = [], []
        for start in range(0, max(length, 1), size):
            chunk = payload[start:start + size]
            buf = area.try_alloc() or self._alloc_tx_buffer()
            # the compose copy, straight into the area: a chunk is sized
            # to its buffer, so it cannot overrun it
            area.storage[buf.offset:buf.offset + len(chunk)] = chunk
            buf.length = len(chunk)
            buffers.append(buf)
            segments.append((buf.index, len(chunk)))
        descriptor = SendDescriptor(channel_id, segments)
        try:
            endpoint.post_send(descriptor)
        except RingFullError:
            backend.kick(endpoint)  # drain in our own context
            try:
                endpoint.post_send(descriptor)
            except RingFullError:
                for buf in buffers:
                    area.free(buf)
                raise EndpointError(
                    f"endpoint {endpoint.id}: send queue full "
                    f"(transport backpressure)") from None
        endpoint.messages_sent += 1
        endpoint.bytes_sent += length
        inflight.append((descriptor, buffers))
        if kick:
            backend.kick(endpoint)

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
        # one channel means one header for the whole burst
        header = tag.header
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

    def _alloc_tx_buffer(self):
        """The area is out of buffers: live sends complete at kick time,
        so one kick and one reclaim pass is the whole backpressure story."""
        self.backend.kick(self.endpoint)
        self._reclaim_completed()
        buf = self.endpoint.buffers.try_alloc()
        if buf is None:
            raise EndpointError(
                f"endpoint {self.endpoint.id}: buffer area exhausted")
        return buf


class LiveHost(NamedTuple):
    """A live node as a rig holds a simulated :class:`~repro.core.api.Host`."""

    backend: LiveBackend
    #: the application-side endpoint constructor
    create_endpoint: Callable[..., LiveUserEndpoint]


class LiveCluster(Closing):
    """N live nodes in one process, serviced by one polling loop.

    The cluster is the live stand-in for a simulated network object:
    it creates nodes (one transport socket each), wires channels (tags
    plus demux rows on both sides — the OS-mediated channel service),
    and pumps every node's doorbell loop from :meth:`step`.  Its
    wall-clock runner (:attr:`sim`, :meth:`run`, :meth:`poll`) runs the
    very process bodies a simulated network runs, and it offers a rig
    the surface a :class:`~repro.core.base.SimulatedNetwork` does
    (:meth:`add_host`, :attr:`am_class`, :meth:`request`, :meth:`rpc`,
    :meth:`send`, :meth:`settle`).  What differs with the clock is
    declared here: :meth:`am_timers`, :meth:`settle`, and no simulated
    events.
    """

    PARTS = ("nodes",)
    #: the runner's engine events stand for wall time, not a simulation
    simulated_events = 0

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
        #: every node's one clock, which :meth:`run` drives against the
        #: wall clock: a process yields a delay, or a :meth:`poll`, and a
        #: fault stage delays a datagram, exactly as on a simulated network
        self.sim = Simulator(start_time=clock.now_us())
        #: what every :meth:`poll` waiter sleeps on until the next pump
        self._pumped = None

    def add_node(self, name: Optional[str] = None) -> LiveBackend:
        node_id = len(self.nodes)
        node_name = name or f"n{node_id}"
        backend = LiveBackend(self._make_transport(node_name), self.sim, self.clock,
                              node_id, node_name, self.max_pdu, self.doorbell_mode)
        self.nodes.append(backend)
        return backend

    def add_host(self, name: str, cpu: Any) -> LiveHost:
        """A node as a rig adds a simulated host; ``cpu`` is not modelled
        (a live node runs on this machine's)."""
        node = self.add_node(name)
        return LiveHost(node, node.create_user_endpoint)

    @property
    def am_class(self) -> type:
        """The AM driver its nodes run: :class:`~repro.live.am.LiveAm`."""
        from .am import LiveAm

        return LiveAm

    @staticmethod
    def am_timers(config):
        """``config`` with the AM timers of a wall-clock run: the OS
        scheduler's jitter is milliseconds, so retransmission and HELLO
        retry wait that long, and a peer is dead only after six silent
        RTOs."""
        return replace(config, retransmit_timeout_us=20_000.0, dead_after_timeouts=6,
                       hello_retry_us=10_000.0)

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
        """Service every node once; returns the datagrams they sent and
        received."""
        return sum(node.service() for node in self.nodes)

    # -- the wall-clock runner -----------------------------------------------
    def poll(self, attempt: Callable[[], Any]) -> Generator:
        """Process: call ``attempt()`` now and once after every pump
        (at the start of the next pass) until it returns something other
        than None, and return that.

        The process form of every polled live call: AM admission
        (``LiveAm.start_request``), an rpc reply (``rpc_result``), a
        send the transport pushes back on.  A waiter sleeps on the next
        pump's event, never on a delay: a delay would retry many times
        inside one ``sim.run`` and starve the AM timers that
        :meth:`run` services between passes.
        """
        while True:
            result = attempt()
            if result is not None:
                return result
            if self._pumped is None:
                self._pumped = self.sim.event(name="live.pump")
            yield self._pumped

    def request(self, am, dest: int, handler: int, args, data: bytes) -> Generator:
        """Process: one AM request from ``am``, admitted when the window,
        the credit gate and any handshake allow; returns its sequence."""
        return self.poll(partial(am.start_request, dest, handler, args, data))

    def rpc(self, am, dest: int, handler: int, args, data: bytes) -> Generator:
        """Process: one AM rpc from ``am``; returns the reply's ``(args, data)``."""
        seq = yield from self.poll(partial(am.start_rpc, dest, handler, args, data))
        return (yield from self.poll(partial(am.rpc_result, dest, seq)))

    def send(self, user: LiveUserEndpoint, channel: int, payload: bytes) -> Generator:
        """Process: one raw U-Net send, retried after a pump while the
        transport pushes back."""
        def attempt():
            try:
                user.send(channel, payload)
            except EndpointError:
                return None
            return True
        return self.poll(attempt)

    def settle(self, ams: Sequence, until_us: float) -> None:
        """After a workload: tail acks land while the AM timers still run
        (a datagram lost on the wall clock needs its retransmission), up
        to ``until_us``; then the timers stop and one last pass runs."""
        self.sim.process(self.poll(lambda: all(am.idle for am in ams) or None))
        self.run(until_us, ams)
        for am in ams:
            am.shutdown()
        self.run(self.sim.now, ams)

    def run(self, until_us: float, ams: Sequence) -> None:
        """Run :attr:`sim`'s processes against the wall clock.

        A pass wakes every :meth:`poll` waiter, runs the simulator up to
        the clock (a yielded delay or a delayed datagram falls due), then
        pumps every node and every AM endpoint in ``ams``.  Returns once
        the clock passes ``until_us`` or nothing is left waiting.  A pass
        that moved nothing (no heap entry fired but the pump's own wake,
        no datagram, no AM packet) parks (event mode) or sleeps briefly,
        never past the next heap entry.
        """
        sim, clock = self.sim, self.clock
        while True:
            now = clock.now_us()
            pumped, self._pumped = self._pumped, None
            if pumped is not None:
                pumped.succeed()
            fired = sim.events_processed + (pumped is not None)
            sim.run(until=min(now, until_us))
            # the pumps stamp (a fault stage's delay) from their own start
            sim.run(until=min(clock.now_us(), until_us))
            moved = sim.events_processed - fired + self.step()
            for am in ams:
                moved += am.service()
            if now >= until_us or (self._pumped is None and sim.peek() == math.inf):
                return
            limit = min(until_us, sim.peek()) - clock.now_us()
            if moved or limit <= 0:
                continue
            if self._doorbell is not None:
                # interrupt-analogue: park until a socket is readable
                self._doorbell.sync(node.transport.sock for node in self.nodes)
                self._doorbell.wait_us(min(_EVENT_WAIT_US, limit))
            else:
                clock.sleep_us(min(_IDLE_SLEEP_US, limit))

    def run_until(self, predicate: Callable[[], bool], limit_us: float,
                  ams: Sequence) -> bool:
        """Run, servicing ``ams``, until ``predicate()`` holds (checked
        after every pump) or ``limit_us`` of wall time passes; returns
        ``predicate()``."""
        self.sim.process(self.poll(lambda: predicate() or None))
        self.run(self.clock.now_us() + limit_us, ams)
        return predicate()

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
        self.sim.close()
        if first_error is not None:
            raise first_error
