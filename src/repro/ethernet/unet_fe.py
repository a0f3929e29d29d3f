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
from typing import Generator, Optional

from ..core.base import UNetBackend
from ..core.channels import EthernetTag
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
        self.nic.interrupt = self._interrupt
        #: all controllers this kernel services (Beowulf-style bonding
        #: appends a second one; see ethernet.bonding)
        self.nics = [self.nic]
        #: the host processor is one resource: traps and interrupt
        #: handlers serialize on it
        self.kernel_cpu = Resource(sim, capacity=1, name=f"{name}.cpu")
        self._irq = InterruptController(sim, cpu, self._rx_handler, name=f"{name}.irq")
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
    def kick(self, endpoint: Endpoint) -> Generator:
        """The fast trap: service the endpoint's entire send queue."""
        t = self.timings
        if not self.kernel_cpu.try_acquire():
            yield self.kernel_cpu.acquire()
        try:
            start = self.sim.now
            yield self.cpu.trap_entry_us
            self.trace.record(start, self.cpu.trap_entry_us, TX_TRACE, "trap entry overhead", begin=True)
            serviced = 0
            while True:
                if self.nic.tx_ring.is_full:
                    # device ring exhausted: leave the rest on the U-Net
                    # send queue; the TX-done path resumes service
                    self._deferred_service.add(endpoint.id)
                    break
                descriptor = endpoint.take_send_descriptor()
                if descriptor is None:
                    break
                yield from self._service_send(endpoint, descriptor)
                serviced += 1
            if serviced:
                yield from self._step(TX_TRACE, "issue poll demand to DC21140", t.issue_poll_demand_us)
                self.nic.poll_demand()
                # steady state: each trap also reclaims the rings entries
                # of previously transmitted messages (Fig. 3 steps 6-7);
                # nothing is seen between them and the return: one wake
                start = self.sim.now
                entry_start = start + t.free_ring_descriptor_us
                return_start = entry_start + t.free_send_queue_entry_us
                yield self.sim.until(return_start + self.cpu.trap_return_us)
                self.trace.record(start, t.free_ring_descriptor_us, TX_TRACE,
                                  "free send ring descriptor of previous message")
                self.trace.record(entry_start, t.free_send_queue_entry_us, TX_TRACE,
                                  "free U-Net send queue entry of previous message")
                self.trace.record(return_start, self.cpu.trap_return_us, TX_TRACE, "return from trap")
            else:
                yield from self._step(TX_TRACE, "return from trap", self.cpu.trap_return_us)
        finally:
            self.kernel_cpu.release()

    def _service_send(self, endpoint: Endpoint, descriptor) -> Generator:
        t = self.timings
        yield from self._step(TX_TRACE, "check U-Net send parameters", t.check_send_params_us)
        binding = endpoint.channels.get(descriptor.channel_id)
        if binding is None:
            return  # protection: drop silently, as hardware would
        payload = b"".join(
            endpoint.buffers.buffer(idx).read(length) for idx, length in descriptor.segments
        )
        # header set-up (and encapsulation), then the ring descriptor:
        # nothing is seen between them, so one wake at the sum they reach
        start = self.sim.now
        ring_start = header_end = start + t.ethernet_header_setup_us
        encapsulated = isinstance(binding.tag, IpTag)
        if encapsulated:
            tag: IpTag = binding.tag
            ring_start = header_end + t.ip_encap_us
            datagram = build_ipv4_udp(tag.src_ip, tag.dst_ip, tag.src_udp, tag.dst_udp, payload)
            # U-Net port 0 marks IP-encapsulated traffic on the wire
            frame = EthernetFrame(
                dst_mac=tag.next_hop_mac,
                src_mac=self.mac,
                dst_port=0,
                src_port=0,
                payload=datagram,
            )
        else:
            eth_tag: EthernetTag = binding.tag
            frame = EthernetFrame(
                dst_mac=eth_tag.dst_mac,
                src_mac=eth_tag.src_mac,
                dst_port=eth_tag.dst_port,
                src_port=eth_tag.src_port,
                payload=payload,
            )
        yield self.sim.until(ring_start + t.ring_descriptor_setup_us)
        self.trace.record(start, t.ethernet_header_setup_us, TX_TRACE, "Ethernet header set-up")
        if encapsulated:
            self.trace.record(header_end, t.ip_encap_us, TX_TRACE, "IPv4/UDP encapsulation")
        self.trace.record(ring_start, t.ring_descriptor_setup_us, TX_TRACE, "device send ring descriptor set-up")

        def complete(d=descriptor, ep=endpoint):
            ep.send_completed(d)

        self.nic.tx_ring.push(TxRingDescriptor(frame=frame, on_complete=complete))
        binding.messages_sent += 1
        self.messages_sent += 1

    def _tx_space_available(self) -> None:
        """TX-done: resume servicing send queues the ring cut short."""
        if not self._deferred_service or self.nic.tx_ring.is_full:
            return
        pending, self._deferred_service = self._deferred_service, set()
        for endpoint_id in pending:
            endpoint = next((e for e in self.endpoints if e.id == endpoint_id), None)
            if endpoint is not None and not endpoint.send_queue.is_empty:
                self.sim.process(self.kick(endpoint), name=f"{self.name}.txdone-service")

    def _step(self, category: str, label: str, duration: float) -> Generator:
        start = self.sim.now
        yield duration
        self.trace.record(start, duration, category, label)

    # -------------------------------------------------------------- receive
    def _interrupt(self) -> None:
        self._irq.assert_irq()

    def _rx_handler(self) -> Generator:
        """The kernel receive interrupt routine (Figure 4)."""
        t = self.timings
        if not self.kernel_cpu.try_acquire():
            yield self.kernel_cpu.acquire()
        try:
            self.trace.record(self.sim.now - self.cpu.interrupt_entry_us, self.cpu.interrupt_entry_us,
                              RX_TRACE, "interrupt handler entry", begin=True)
            while True:
                yield from self._step(RX_TRACE, "poll device recv ring", t.poll_recv_ring_us)
                slot = None
                for nic in self.nics:
                    slot = nic.rx_ring.try_pop()
                    if slot is not None:
                        break
                if slot is None:
                    break
                frame = slot.frame
                payload = frame.payload
                if frame.dst_port == 0:
                    # IPv4-encapsulated traffic (port 0 marker)
                    yield from self._step(RX_TRACE, "IPv4/UDP validation", t.ip_parse_us)
                    try:
                        src_ip, dst_ip, src_udp, dst_udp, _ttl, payload = parse_ipv4_udp(payload)
                    except IpHeaderError:
                        self.ip_header_drops += 1
                        continue
                    yield from self._step(RX_TRACE, "demux to correct endpoint", t.demux_us)
                    target = self.demux.lookup((src_ip, src_udp, dst_udp))
                else:
                    yield from self._step(RX_TRACE, "demux to correct endpoint", t.demux_us)
                    target = self.demux.lookup((frame.src_mac, frame.src_port, frame.dst_port))
                if target is None:
                    continue
                endpoint, channel_id = target
                if endpoint.quarantined:
                    # containment: shed before any alloc/copy work so a
                    # misbehaving endpoint stops consuming kernel time
                    self.quarantine_drops += 1
                    endpoint.note_drop("quarantine_drops")
                    continue
                yield from self._deliver_payload(endpoint, channel_id, payload)
                yield from self._step(RX_TRACE, "bump device recv ring", t.bump_recv_ring_us)
            self.trace.record(self.sim.now, self.cpu.interrupt_return_us, RX_TRACE, "return from interrupt")
        finally:
            self.kernel_cpu.release()

    def _deliver_payload(self, endpoint: Endpoint, channel_id: int, payload: bytes) -> Generator:
        t = self.timings
        if self.small_message_optimization and len(payload) <= SMALL_MESSAGE_MAX:
            # the descriptor set-up and the copy into it: one wake
            copy_us = t.copy_fixed_us + self.cpu.copy_time(len(payload))
            start = self.sim.now
            copy_start = start + t.alloc_init_recv_descriptor_us
            yield self.sim.until(copy_start + copy_us)
            self.trace.record(start, t.alloc_init_recv_descriptor_us, RX_TRACE, "alloc+init U-Net recv descr")
            self.trace.record(copy_start, copy_us, RX_TRACE, f"copy {len(payload)} byte message")
            descriptor = RecvDescriptor(channel_id=channel_id, length=len(payload), inline=payload)
        else:
            yield from self._step(RX_TRACE, "alloc+init U-Net recv descr", t.alloc_init_recv_descriptor_us)
            segments = []
            offset = 0
            size = endpoint.buffers.buffer_size
            while offset < len(payload):
                yield from self._step(RX_TRACE, "allocate U-Net recv buffer", t.alloc_unet_buffer_us)
                index = endpoint.take_free_buffer()
                if index is None:
                    self.no_buffer_drops += 1
                    endpoint.note_drop("no_buffer_drops")
                    for idx, _l in segments:
                        endpoint.free_queue.try_push(idx)
                    return
                chunk = payload[offset : offset + size]
                copy_us = t.copy_fixed_us + self.cpu.copy_time(len(chunk))
                yield from self._step(RX_TRACE, f"copy {len(chunk)} byte message", copy_us)
                if endpoint.closed:
                    endpoint.note_drop("recv_queue_drops")  # destroyed mid-copy: its buffers are gone
                    self.recv_queue_drops += 1
                    return
                buf = endpoint.buffers.buffer(index)
                buf.clear()
                buf.write(chunk)
                segments.append((index, len(chunk)))
                offset += len(chunk)
            descriptor = RecvDescriptor(channel_id=channel_id, length=len(payload), segments=segments)
        if not endpoint.deliver(descriptor):
            self.recv_queue_drops += 1
            for idx, _l in descriptor.segments:
                endpoint.free_queue.try_push(idx)
        else:
            self.messages_received += 1
