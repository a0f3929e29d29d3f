"""Beowulf-style dual-NIC channel bonding (Section 2.2).

"The Beowulf project has constructed a workstation cluster ... Each
system consists of two Fast Ethernet controllers operating in a
round-robin fashion to double the aggregate bandwidth per node."
Beowulf did this through the kernel sockets interface; here the same
trick is applied to U-Net/FE: two DC21140s per host, each on its own
hub, with the kernel's send-queue service striping frames round-robin
across them and one interrupt path draining both receive rings.

Caveat (and the reason Beowulf ran this under TCP): two independent
FIFO rails accumulate skew under backlog, so striped frames can arrive
out of order.  U-Net itself promises nothing about ordering; a protocol
above must tolerate it.  Our go-back-N Active Messages layer delivers
exactly-once-in-order regardless, but pays retransmissions when the
rails drift — use bonding for bandwidth, not for latency-sensitive
small-message traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from ..core.api import Host, UserEndpoint
from ..core.base import SimulatedNetwork
from ..core.channels import connect_pair
from ..core.descriptors import SMALL_MESSAGE_MAX
from ..core.endpoint import Endpoint
from ..hw.bus import PCI_BUS, BusModel
from ..hw.cpu import CpuModel
from ..sim import RngRegistry, Simulator
from .dc21140 import Dc21140, NicTimings, TxRingDescriptor
from .frames import EthernetFrame
from .medium import SharedMedium
from .unet_fe import TX_TRACE, FeTimings, UNetFeBackend

__all__ = ["BondedTag", "DualNicFeBackend", "BeowulfNetwork"]


@dataclass(frozen=True)
class BondedTag:
    """Message tag of a bonded channel: one (MAC, MAC) pair per rail."""

    dst_macs: Tuple[int, int]
    src_macs: Tuple[int, int]
    dst_port: int
    src_port: int


class DualNicFeBackend(UNetFeBackend):
    """U-Net/FE over two DC21140s, striped round-robin."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu: CpuModel,
        macs: Tuple[int, int],
        timings: Optional[FeTimings] = None,
        nic_timings: Optional[NicTimings] = None,
        bus: BusModel = PCI_BUS,
    ) -> None:
        super().__init__(sim, name, cpu, macs[0], timings=timings, nic_timings=nic_timings, bus=bus)
        self.macs = macs
        self.nic_b = Dc21140(sim, macs[1], bus=bus, timings=nic_timings, name=f"{name}.nicB")
        self.nic_b.interrupt = self._interrupt
        self.nic_b.on_tx_space = self._tx_space_available
        self.nics.append(self.nic_b)
        self._rail = 0

    def attach_rails(self, attachment_a, attachment_b) -> None:
        self.nic.attach(attachment_a)
        self.nic_b.attach(attachment_b)

    def _service_send(self, endpoint: Endpoint, descriptor) -> Generator:
        binding = endpoint.channels.get(descriptor.channel_id)
        if binding is None or not isinstance(binding.tag, BondedTag):
            yield from super()._service_send(endpoint, descriptor)
            return
        t = self.timings
        yield from self._step(TX_TRACE, "check U-Net send parameters", t.check_send_params_us)
        tag: BondedTag = binding.tag
        payload = b"".join(
            endpoint.buffers.buffer(idx).read(length) for idx, length in descriptor.segments
        )
        rail = self._rail
        self._rail = 1 - self._rail
        yield from self._step(TX_TRACE, "Ethernet header set-up", t.ethernet_header_setup_us)
        frame = EthernetFrame(
            dst_mac=tag.dst_macs[rail],
            src_mac=tag.src_macs[rail],
            dst_port=tag.dst_port,
            src_port=tag.src_port,
            payload=payload,
        )
        yield from self._step(TX_TRACE, "device send ring descriptor set-up", t.ring_descriptor_setup_us)

        def complete(d=descriptor, ep=endpoint):
            ep.send_completed(d)

        nic = self.nics[rail]
        nic.tx_ring.push(TxRingDescriptor(frame=frame, on_complete=complete))
        nic.poll_demand()
        binding.messages_sent += 1
        self.messages_sent += 1


class BeowulfNetwork(SimulatedNetwork):
    """Hosts with two NICs on two parallel shared-media channels."""

    def __init__(self, sim: Simulator, rate_mbps: float = 100.0, rng: Optional[RngRegistry] = None) -> None:
        self.sim = sim
        registry = rng or RngRegistry()
        self.medium_a = SharedMedium(sim, rate_mbps=rate_mbps, rng=registry)
        self.medium_b = SharedMedium(sim, rate_mbps=rate_mbps, rng=registry)
        self.hosts: List[Host] = []
        self._next_mac = 0x02_00_00_0B_00_01

    def add_host(self, name: str, cpu: CpuModel) -> Host:
        mac_a = self._next_mac
        mac_b = self._next_mac + 1
        self._next_mac += 2
        backend = DualNicFeBackend(self.sim, name=f"{name}.unet_fe2", cpu=cpu, macs=(mac_a, mac_b))
        backend.attach_rails(self.medium_a.attach(), self.medium_b.attach())
        host = Host(self.sim, name, cpu, backend)
        self.hosts.append(host)
        return host

    def devices(self) -> dict:
        return {"media": [self.medium_a, self.medium_b]}

    def connect(self, a: UserEndpoint, b: UserEndpoint) -> Tuple[int, int]:
        """Bonded duplex channel across both rails."""
        backend_a: DualNicFeBackend = a.backend
        backend_b: DualNicFeBackend = b.backend
        port_a = backend_a.allocate_port()
        port_b = backend_b.allocate_port()
        tag_a = BondedTag(dst_macs=backend_b.macs, src_macs=backend_a.macs,
                          dst_port=port_b, src_port=port_a)
        tag_b = BondedTag(dst_macs=backend_a.macs, src_macs=backend_b.macs,
                          dst_port=port_a, src_port=port_b)
        channel_a, channel_b = connect_pair(a, b, tag_a, tag_b,
                                            (backend_b.macs[0], port_b, port_a),
                                            (backend_a.macs[0], port_a, port_b))
        # frames may arrive on either rail: register the second source MAC too
        backend_a.demux.register((backend_b.macs[1], port_b, port_a), a.endpoint, channel_a)
        backend_b.demux.register((backend_a.macs[1], port_a, port_b), b.endpoint, channel_b)
        return channel_a, channel_b
