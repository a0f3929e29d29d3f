"""Fast Ethernet cluster topology builders.

The paper benchmarks three configurations: a 100BaseTX broadcast hub, a
Bay Networks 28115 switch, and a Cabletron FN100 switch.  Both builders
share a channel-setup service: a communication channel is created by
registering the (MAC address, U-Net port) tag pairs with the kernel on
both hosts (Section 4.3.1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.api import Host, UserEndpoint
from ..core.base import SimulatedNetwork
from ..core.channels import EthernetTag, connect_pair
from ..hw.bus import PCI_BUS, BusModel
from ..hw.cpu import CpuModel
from ..sim import Simulator
from .dc21140 import NicTimings
from .medium import SharedMedium
from .switch import BAY_28115, FN100, EthernetSwitch, SwitchModel
from .unet_fe import FeTimings, UNetFeBackend

__all__ = ["connect_fe_channel", "HubNetwork", "SwitchedNetwork", "RoutedFeNetwork"]


def connect_fe_channel(a: UserEndpoint, b: UserEndpoint) -> Tuple[int, int]:
    """The OS service that sets up a U-Net/FE duplex channel; returns
    channel ids on (a, b)."""
    backend_a: UNetFeBackend = a.backend
    backend_b: UNetFeBackend = b.backend
    port_a = backend_a.allocate_port()
    port_b = backend_b.allocate_port()
    tag_a = EthernetTag(dst_mac=backend_b.mac, dst_port=port_b, src_mac=backend_a.mac, src_port=port_a)
    tag_b = EthernetTag(dst_mac=backend_a.mac, dst_port=port_a, src_mac=backend_b.mac, src_port=port_b)
    return connect_pair(a, b, tag_a, tag_b, (backend_b.mac, port_b, port_a),
                        (backend_a.mac, port_a, port_b))


class _FeNetworkBase(SimulatedNetwork):
    """Host bookkeeping every U-Net/FE topology shares; a topology adds
    ``_attach(backend, **where)``, which cables one NIC into it, and may
    check ``where`` in ``_where`` before any NIC is built."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.hosts: List[Host] = []
        self._next_mac = 0x02_00_00_00_00_01  # locally administered

    def add_host(
        self,
        name: str,
        cpu: CpuModel,
        timings: Optional[FeTimings] = None,
        nic_timings: Optional[NicTimings] = None,
        bus: BusModel = PCI_BUS,
        **where,
    ) -> Host:
        """Attach a workstation; ``where`` places it in the topology (a
        Clos ``leaf``, a routed ``segment``, the link's ``propagation_us``).
        A refused placement raises before anything is built."""
        where = self._where(**where)
        backend = UNetFeBackend(
            self.sim,
            name=f"{name}.unet_fe",
            cpu=cpu,
            mac=self._next_mac,
            timings=timings,
            nic_timings=nic_timings,
            bus=bus,
        )
        self._next_mac += 1
        self._attach(backend, **where)
        host = Host(self.sim, name, cpu, backend)
        self.hosts.append(host)
        return host

    def _where(self, **where) -> Dict[str, Any]:
        """Check a placement; returns the keywords ``_attach`` takes."""
        return where

    def connect(self, a: UserEndpoint, b: UserEndpoint) -> Tuple[int, int]:
        return connect_fe_channel(a, b)

    def collective_edge(self, backend_a: UNetFeBackend, backend_b: UNetFeBackend,
                        on_a, on_b) -> Tuple[int, int]:
        """One tree edge of the NIC-resident collectives.  MACs are flat
        addresses and collective frames ride a reserved U-Net port, so
        an edge needs no set-up beyond each NIC's handler; returns the
        addresses (peer MACs) a→b and b→a."""
        backend_a.register_collective(on_a)
        backend_b.register_collective(on_b)
        return backend_b.mac, backend_a.mac


class HubNetwork(_FeNetworkBase):
    """Hosts on a shared 100BaseTX broadcast hub (half duplex, CSMA/CD)."""

    PARTS = ("medium", "hosts")

    def __init__(self, sim: Simulator, rate_mbps: float = 100.0) -> None:
        super().__init__(sim)
        self.medium = SharedMedium(sim, rate_mbps=rate_mbps)

    def _attach(self, backend: UNetFeBackend) -> None:
        backend.attach(self.medium.attach())


class RoutedFeNetwork(_FeNetworkBase):
    """Multiple switched segments joined by a software IP router.

    Implements the scalability extension of Section 4.4.3: U-Net/FE
    channels are IPv4/UDP-encapsulated so messages can cross IP routers
    (at the "considerable communication overhead" the paper predicts —
    measured by ``benchmarks/test_ablation_ip_encap.py``).
    """

    PARTS = ("switches", "router", "hosts")

    def __init__(
        self,
        sim: Simulator,
        segments: int = 2,
        model: SwitchModel = BAY_28115,
        router_forward_us: float = 55.0,
        rate_mbps: float = 100.0,
    ) -> None:
        from .ip import IpRouter  # optional feature

        super().__init__(sim)
        if segments < 1:
            raise ValueError("need at least one segment")
        self.switches = [EthernetSwitch(sim, model, rate_mbps=rate_mbps) for _ in range(segments)]
        self.router = IpRouter(sim, forward_us=router_forward_us)
        for index, switch in enumerate(self.switches):
            mac = self._next_mac
            self._next_mac += 1
            # segment index -> 10.0.<index>.0/24
            network = (10 << 24) | (index << 8)
            self.router.attach_segment(switch, mac, network=network, mask=0xFFFFFF00)
        self._hosts_per_segment = [0] * segments
        self._segment_of = {}
        self._next_udp = {}

    def _where(self, segment: int = 0) -> Dict[str, Any]:
        if not 0 <= segment < len(self.switches):
            raise ValueError(f"no such segment {segment}")
        return {"segment": segment}

    def _attach(self, backend: UNetFeBackend, segment: int) -> None:
        self._hosts_per_segment[segment] += 1
        backend.ip_address = (10 << 24) | (segment << 8) | self._hosts_per_segment[segment]
        backend.attach(self.switches[segment].attach(backend.mac))
        self.router.register_host(backend.ip_address, backend.mac)
        self._segment_of[backend] = segment
        self._next_udp[backend] = 0x4000

    def connect(self, a: UserEndpoint, b: UserEndpoint) -> Tuple[int, int]:
        """IPv4-encapsulated duplex channel, routed if segments differ."""
        from .ip import IpTag  # optional feature

        backend_a: UNetFeBackend = a.backend
        backend_b: UNetFeBackend = b.backend
        udp_a = self._alloc_udp(backend_a)
        udp_b = self._alloc_udp(backend_b)
        seg_a = self._segment_of[backend_a]
        seg_b = self._segment_of[backend_b]
        next_hop_ab = backend_b.mac if seg_a == seg_b else self.router.port_mac(seg_a)
        next_hop_ba = backend_a.mac if seg_a == seg_b else self.router.port_mac(seg_b)
        tag_a = IpTag(dst_ip=backend_b.ip_address, dst_udp=udp_b,
                      src_ip=backend_a.ip_address, src_udp=udp_a, next_hop_mac=next_hop_ab)
        tag_b = IpTag(dst_ip=backend_a.ip_address, dst_udp=udp_a,
                      src_ip=backend_b.ip_address, src_udp=udp_b, next_hop_mac=next_hop_ba)
        return connect_pair(a, b, tag_a, tag_b, (backend_b.ip_address, udp_b, udp_a),
                            (backend_a.ip_address, udp_a, udp_b))

    def _alloc_udp(self, backend: UNetFeBackend) -> int:
        port = self._next_udp[backend]
        self._next_udp[backend] += 1
        return port


class SwitchedNetwork(_FeNetworkBase):
    """Hosts on a Fast Ethernet switch (full duplex links)."""

    PARTS = ("switch", "hosts")

    def __init__(self, sim: Simulator, model: SwitchModel = BAY_28115, rate_mbps: float = 100.0) -> None:
        super().__init__(sim)
        self.switch = EthernetSwitch(sim, model, rate_mbps=rate_mbps)

    def _attach(self, backend: UNetFeBackend, propagation_us: float = 0.5) -> None:
        backend.attach(self.switch.attach(backend.mac, propagation_us=propagation_us))
