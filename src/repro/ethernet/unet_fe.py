"""U-Net/FE: the in-kernel U-Net implementation over the DC21140.

"The in-kernel implementation of U-Net is best described as a protected
co-routine available to user processes" (Section 4.3).  Sending is a
fast trap into the kernel, which services the user's U-Net send queue
onto the device descriptor ring and issues a transmit poll demand
(Figure 3, ~4.2 us of processor time).  Receiving is interrupt driven:
the handler demultiplexes each frame by its U-Net port, copies the data
into the destination endpoint's buffer area (or, under 64 bytes,
directly into the receive descriptor), and bumps the device ring
(Figure 4, ~4.1 us for 40 bytes / ~5.6 us for 100 bytes).

Every step of both paths is traced, which is how the benchmark harness
regenerates the two timeline figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Generator, Optional, Tuple

from ..core.base import UNetBackend
from ..core.descriptors import SMALL_MESSAGE_MAX, RecvDescriptor
from ..core.endpoint import Endpoint
from ..hw.bus import PCI_BUS, BusModel
from ..hw.cpu import CpuModel
from ..hw.interrupts import InterruptController
from ..sim import Resource, Simulator
from .dc21140 import Dc21140, NicTimings, TxRingDescriptor
from .frames import COLLECTIVE_PORT, UNET_FE_MAX_PDU, EthernetFrame, FrameWire, MacAddress
from .ip import (
    UNET_FE_IP_MAX_PDU, IpHeaderError, IpTag, build_ipv4_udp, parse_ipv4_udp,
)

__all__ = ["FeTimings", "UNetFeBackend", "TX_TRACE", "RX_TRACE"]

#: trace categories for the two kernel paths
TX_TRACE = "unet_fe.tx"
RX_TRACE = "unet_fe.rx"


@dataclass
class FeTimings:
    """Kernel service-path costs on the 120 MHz Pentium (microseconds).

    The per-step values reproduce the Figure 3 transmit timeline (total
    4.2 us with ~20% trap overhead) and the Figure 4 receive timelines
    (4.1 us for 40 bytes inline, 5.6 us for 100 bytes with a buffer
    allocation; copy cost growing 1.42 us per 100 bytes).
    """

    # -- transmit trap (Figure 3) --
    check_send_params_us: float = 0.74
    ethernet_header_setup_us: float = 0.37
    ring_descriptor_setup_us: float = 0.56
    issue_poll_demand_us: float = 0.29
    free_ring_descriptor_us: float = 0.92
    free_send_queue_entry_us: float = 0.42
    # -- receive interrupt handler (Figure 4) --
    poll_recv_ring_us: float = 0.52
    demux_us: float = 0.30
    alloc_init_recv_descriptor_us: float = 0.60
    alloc_unet_buffer_us: float = 0.71
    copy_fixed_us: float = 0.55
    bump_recv_ring_us: float = 0.40
    # -- optional IPv4 encapsulation (Section 4.4.3's proposal) --
    ip_encap_us: float = 4.5
    ip_parse_us: float = 4.0

    #: the clock these constants were measured at (Figure 3/4's host)
    REFERENCE_CLOCK_MHZ = 120.0

    def scaled(self, factor: float) -> "FeTimings":
        """Kernel-path costs on a ``factor``-times-faster host."""
        from dataclasses import fields, replace

        changes = {
            f.name: getattr(self, f.name) / factor
            for f in fields(self)
            if isinstance(getattr(self, f.name), float)
        }
        return replace(self, **changes)

    @classmethod
    def for_cpu(cls, cpu: CpuModel) -> "FeTimings":
        """Constants scaled to ``cpu``'s clock (they are all CPU work)."""
        return cls().scaled(cpu.clock_mhz / cls.REFERENCE_CLOCK_MHZ)


class UNetFeBackend(UNetBackend):
    """U-Net over a DC21140 on one host (kernel + NIC together)."""

    wire = FrameWire
    collective_max_payload = UNET_FE_MAX_PDU
    COUNTERS = UNetBackend.COUNTERS + ("messages_sent", "messages_received", "ip_header_drops")
    PARTS = UNetBackend.PARTS + ("nics",)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu: CpuModel,
        mac: MacAddress,
        timings: Optional[FeTimings] = None,
        nic_timings: Optional[NicTimings] = None,
        bus: BusModel = PCI_BUS,
    ) -> None:
        super().__init__(sim, name)
        #: host IP address when the interface runs IPv4-encapsulated
        #: channels (Section 4.4.3's multi-switch/router proposal); the
        #: routed topology assigns it as it attaches the host
        self.ip_address: Optional[int] = None
        self.cpu = cpu
        self.mac = mac
        self.timings = timings or FeTimings.for_cpu(cpu)
        self.nic = Dc21140(sim, mac, bus=bus, timings=nic_timings, name=f"{name}.nic")
        self.nic.trace = self.trace
        #: all controllers this kernel services (Beowulf-style bonding
        #: appends a second one; see ethernet.bonding)
        self.nics = [self.nic]
        #: the host processor is one resource: traps and interrupt
        #: handlers serialize on it
        self.kernel_cpu = Resource(sim, capacity=1, name=f"{name}.cpu")
        self._irq = InterruptController(sim, cpu, self._rx_handler, name=f"{name}.irq")
        self.nic.interrupt = self._irq.assert_irq
        #: endpoints whose send queues could not be fully serviced
        #: because the device ring filled; drained on TX-done
        self._deferred_service: set = set()
        self.nic.on_tx_space = self._tx_space_available
        #: small-message receive optimization (ablation knob)
        self.small_message_optimization = True
        #: next U-Net port ID to hand out
        self._next_port = 1
        self.messages_sent = 0
        self.messages_received = 0
        self.ip_header_drops = 0

    # ------------------------------------------------------------------ API
    @property
    def max_pdu(self) -> int:
        # encapsulation headers shrink the usable PDU
        return UNET_FE_IP_MAX_PDU if self.ip_address is not None else UNET_FE_MAX_PDU

    def allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        if port >= COLLECTIVE_PORT:
            # 0xFF belongs to the NIC-resident collective engine
            raise RuntimeError("out of U-Net port IDs on this interface")
        return port

    # ---------------------------------------------------- collective engine
    def register_collective(self, handler) -> None:
        """Install the NIC-resident collective engine's packet handler
        (one per interface: the reserved U-Net port tells collective
        frames apart, so there is no per-edge tag as on ATM)."""
        self.nic.collective_rx = handler

    def send_collective(self, dst_mac: MacAddress, payload: bytes) -> None:
        """NIC-originated collective send (no trap, no kernel service)."""
        self.nic.send_collective(EthernetFrame(
            dst_mac=dst_mac, src_mac=self.mac,
            dst_port=COLLECTIVE_PORT, src_port=COLLECTIVE_PORT,
            payload=payload,
        ))

    def attach(self, attachment) -> None:
        self.nic.attach(attachment)

    def close(self) -> None:
        super().close()
        self._deferred_service.clear()
        for nic in self.nics:
            nic.tx_ring.drain()
            nic.rx_ring.drain()

    def rx_fault_hooks(self):
        """Delivery hook points a fault pipeline may interpose on.

        One per controller, so bonded (dual-NIC) hosts are perturbed on
        both rails.  Returns ``(owner, attribute_name)`` pairs.
        """
        return [(nic, "_on_frame") for nic in self.nics]

    # ------------------------------------------------------------- transmit
    # Both kernel paths spend one frame per modelled step: each step is a
    # bare wait in the path's own generator (``yield duration``, or
    # ``yield (instant,)``, which is ``Simulator.until(instant)`` without
    # the call), then its record, built only for a listener.
    def kick(self, endpoint: Endpoint) -> Generator:
        """The fast trap: service the endpoint's entire send queue."""
        sim, t, cpu, trace = self.sim, self.timings, self.cpu, self.trace
        kernel = self.kernel_cpu
        if kernel.in_use < kernel.capacity:
            kernel.in_use += 1
        else:
            yield kernel.acquire()
        try:
            start = sim._now
            yield cpu.trap_entry_us
            if trace.listeners:
                trace.record(start, cpu.trap_entry_us, TX_TRACE, "trap entry overhead", begin=True)
            serviced = 0
            tx_ring = self.nic.tx_ring
            while True:
                if len(tx_ring.items) >= tx_ring.capacity:
                    # device ring exhausted: leave the rest on the U-Net
                    # send queue; the TX-done path resumes service
                    self._deferred_service.add(endpoint.id)
                    break
                descriptor = endpoint.take_send_descriptor()
                if descriptor is None:
                    break
                serviced += 1
                start = sim._now
                yield t.check_send_params_us
                if trace.listeners:
                    trace.record(start, t.check_send_params_us, TX_TRACE, "check U-Net send parameters")
                binding = endpoint.channels.get(descriptor.channel_id)
                if binding is None:
                    continue  # protection: drop silently, as hardware would
                # the segments, validated by post_send, straight from the area
                storage, size = endpoint.buffers.storage, endpoint.buffers.buffer_size
                segments = descriptor.segments
                if len(segments) == 1:
                    idx, length = segments[0]
                    payload = storage[idx * size:idx * size + length]
                else:
                    payload = b"".join(storage[idx * size:idx * size + length]
                                       for idx, length in segments)
                frame, nic, poll_now = self._frame_for(binding.tag, payload)
                # header set-up (and encapsulation), then the ring descriptor:
                # nothing is seen between them, so one wake at the sum they reach
                start = sim._now
                ring_start = header_end = start + t.ethernet_header_setup_us
                encapsulated = frame.dst_port == 0
                if encapsulated:
                    ring_start = header_end + t.ip_encap_us
                yield (ring_start + t.ring_descriptor_setup_us,)
                if trace.listeners:
                    trace.record(start, t.ethernet_header_setup_us, TX_TRACE, "Ethernet header set-up")
                    if encapsulated:
                        trace.record(header_end, t.ip_encap_us, TX_TRACE, "IPv4/UDP encapsulation")
                    trace.record(ring_start, t.ring_descriptor_setup_us, TX_TRACE,
                                 "device send ring descriptor set-up")
                nic.tx_ring.push(TxRingDescriptor(frame=frame,
                                                  on_complete=partial(endpoint.send_completed, descriptor)))
                if poll_now:
                    nic.poll_demand()
                binding.messages_sent += 1
                self.messages_sent += 1
            if serviced:
                start = sim._now
                yield t.issue_poll_demand_us
                if trace.listeners:
                    trace.record(start, t.issue_poll_demand_us, TX_TRACE, "issue poll demand to DC21140")
                self.nic.poll_demand()
                # steady state: each trap also reclaims the rings entries
                # of previously transmitted messages (Fig. 3 steps 6-7);
                # nothing is seen between them and the return: one wake
                start = sim._now
                entry_start = start + t.free_ring_descriptor_us
                return_start = entry_start + t.free_send_queue_entry_us
                yield (return_start + cpu.trap_return_us,)
                if trace.listeners:
                    trace.record(start, t.free_ring_descriptor_us, TX_TRACE,
                                 "free send ring descriptor of previous message")
                    trace.record(entry_start, t.free_send_queue_entry_us, TX_TRACE,
                                 "free U-Net send queue entry of previous message")
                    trace.record(return_start, cpu.trap_return_us, TX_TRACE, "return from trap")
            else:
                start = sim._now
                yield cpu.trap_return_us
                if trace.listeners:
                    trace.record(start, cpu.trap_return_us, TX_TRACE, "return from trap")
        finally:
            if kernel.waiters:
                kernel.waiters.popleft().succeed()
            else:
                kernel.in_use -= 1

    def _frame_for(self, tag, payload: bytes) -> Tuple[EthernetFrame, Dc21140, bool]:
        """A send on a channel tagged ``tag``: the frame carrying
        ``payload``, the controller whose ring takes it, and whether to
        poll that controller as soon as it is pushed (the trap's own poll
        demand, after the last descriptor, goes to :attr:`nic`)."""
        if isinstance(tag, IpTag):
            # U-Net port 0 marks IP-encapsulated traffic on the wire
            datagram = build_ipv4_udp(tag.src_ip, tag.dst_ip, tag.src_udp, tag.dst_udp, payload)
            return EthernetFrame(dst_mac=tag.next_hop_mac, src_mac=self.mac,
                                 dst_port=0, src_port=0, payload=datagram), self.nic, False
        return EthernetFrame(dst_mac=tag.dst_mac, src_mac=tag.src_mac, dst_port=tag.dst_port,
                             src_port=tag.src_port, payload=payload), self.nic, False

    def _tx_space_available(self) -> None:
        """TX-done: resume servicing send queues the ring cut short."""
        if not self._deferred_service or self.nic.tx_ring.is_full:
            return
        pending, self._deferred_service = self._deferred_service, set()
        for endpoint_id in pending:
            endpoint = next((e for e in self.endpoints if e.id == endpoint_id), None)
            if endpoint is not None and not endpoint.send_queue.is_empty:
                self.sim.process(self.kick(endpoint), name=f"{self.name}.txdone-service")

    # -------------------------------------------------------------- receive
    def _rx_handler(self) -> Generator:
        """The kernel receive interrupt routine (Figure 4)."""
        sim, t, cpu, trace = self.sim, self.timings, self.cpu, self.trace
        kernel = self.kernel_cpu
        if kernel.in_use < kernel.capacity:
            kernel.in_use += 1
        else:
            yield kernel.acquire()
        try:
            if trace.listeners:
                trace.record(sim._now - cpu.interrupt_entry_us, cpu.interrupt_entry_us,
                             RX_TRACE, "interrupt handler entry", begin=True)
            nics = self.nics
            while True:
                start = sim._now
                yield t.poll_recv_ring_us
                if trace.listeners:
                    trace.record(start, t.poll_recv_ring_us, RX_TRACE, "poll device recv ring")
                for nic in nics:
                    ring = nic.rx_ring.items
                    if ring:
                        frame = ring.popleft().frame
                        break
                else:
                    break
                payload = frame.payload
                if frame.dst_port == 0:
                    # IPv4-encapsulated traffic (port 0 marker)
                    start = sim._now
                    yield t.ip_parse_us
                    if trace.listeners:
                        trace.record(start, t.ip_parse_us, RX_TRACE, "IPv4/UDP validation")
                    try:
                        src_ip, dst_ip, src_udp, dst_udp, _ttl, payload = parse_ipv4_udp(payload)
                    except IpHeaderError:
                        self.ip_header_drops += 1
                        continue
                    key = (src_ip, src_udp, dst_udp)
                else:
                    key = (frame.src_mac, frame.src_port, frame.dst_port)
                start = sim._now
                yield t.demux_us
                if trace.listeners:
                    trace.record(start, t.demux_us, RX_TRACE, "demux to correct endpoint")
                target = self.demux.lookup(key)
                if target is None:
                    continue
                endpoint, channel_id = target
                if endpoint.quarantined:
                    # containment: shed before any alloc/copy work so a
                    # misbehaving endpoint stops consuming kernel time
                    self.quarantine_drops += 1
                    endpoint.note_drop("quarantine_drops")
                    continue
                length = len(payload)
                if self.small_message_optimization and length <= SMALL_MESSAGE_MAX:
                    # the descriptor set-up and the copy into it: one wake
                    copy_us = t.copy_fixed_us + cpu.copy_time(length)
                    start = sim._now
                    copy_start = start + t.alloc_init_recv_descriptor_us
                    yield (copy_start + copy_us,)
                    if trace.listeners:
                        trace.record(start, t.alloc_init_recv_descriptor_us, RX_TRACE,
                                     "alloc+init U-Net recv descr")
                        trace.record(copy_start, copy_us, RX_TRACE, f"copy {length} byte message")
                    descriptor = RecvDescriptor(channel_id, length, payload)
                else:
                    descriptor = yield from self._copy_to_buffers(endpoint, channel_id, payload)
                if descriptor is not None:
                    if endpoint.deliver(descriptor):
                        self.messages_received += 1
                    else:
                        self.recv_queue_drops += 1
                        for idx, _l in descriptor.segments:
                            endpoint.free_queue.try_push(idx)
                start = sim._now
                yield t.bump_recv_ring_us
                if trace.listeners:
                    trace.record(start, t.bump_recv_ring_us, RX_TRACE, "bump device recv ring")
            if trace.listeners:
                trace.record(sim._now, cpu.interrupt_return_us, RX_TRACE, "return from interrupt")
        finally:
            if kernel.waiters:
                kernel.waiters.popleft().succeed()
            else:
                kernel.in_use -= 1

    def _copy_to_buffers(self, endpoint: Endpoint, channel_id: int, payload: bytes) -> Generator:
        """Sub-step of the handler for a message the small-message path
        does not take: one receive buffer per ``buffer_size`` chunk, from
        the free queue.  Returns the descriptor, or None when it dropped
        the message."""
        sim, t, cpu, trace = self.sim, self.timings, self.cpu, self.trace
        start = sim._now
        yield t.alloc_init_recv_descriptor_us
        if trace.listeners:
            trace.record(start, t.alloc_init_recv_descriptor_us, RX_TRACE, "alloc+init U-Net recv descr")
        segments = []
        offset = 0
        size = endpoint.buffers.buffer_size
        while offset < len(payload):
            start = sim._now
            yield t.alloc_unet_buffer_us
            if trace.listeners:
                trace.record(start, t.alloc_unet_buffer_us, RX_TRACE, "allocate U-Net recv buffer")
            index = endpoint.take_free_buffer()
            if index is None:
                self.no_buffer_drops += 1
                endpoint.note_drop("no_buffer_drops")
                for idx, _l in segments:
                    endpoint.free_queue.try_push(idx)
                return None
            chunk = payload[offset : offset + size]
            copy_us = t.copy_fixed_us + cpu.copy_time(len(chunk))
            start = sim._now
            yield copy_us
            if trace.listeners:
                trace.record(start, copy_us, RX_TRACE, f"copy {len(chunk)} byte message")
            if endpoint.closed:
                endpoint.note_drop("recv_queue_drops")  # destroyed mid-copy: its buffers are gone
                self.recv_queue_drops += 1
                return None
            buf = endpoint.buffers.buffer(index)
            buf.clear()
            buf.write(chunk)
            segments.append((index, len(chunk)))
            offset += len(chunk)
        return RecvDescriptor(channel_id=channel_id, length=len(payload), segments=segments)
