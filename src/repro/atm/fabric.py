"""Multi-switch ATM fabrics.

Section 4.4.3 notes that, unlike MAC-addressed U-Net/FE, "U-Net/ATM
does not suffer this problem as virtual circuits are established
network-wide."  This module provides that: a fabric of ASX-200 switches
joined by trunk links, with signaling that programs the VCI route on
every switch along the path, so endpoints communicate across the fabric
with no encapsulation and only the per-switch forwarding latency added.

The switch graph is any :class:`~repro.fabric.topology.Topology` — the
default is the legacy linear chain, and the Clos builders in
``repro.fabric`` pass a leaf/spine graph.  Route programming walks an
arbitrary switch path computed by the topology layer, and successive
VCs are spread round-robin across parallel shortest paths, so a Clos
fabric's spines all carry traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..core.api import Host, UserEndpoint
from ..core.base import SimulatedNetwork
from ..core.channels import AtmTag, connect_pair
from ..core.errors import ChannelError, NoPathError
from ..hw.bus import PCI_BUS, BusModel
from ..hw.cpu import CpuModel
from ..sim import Discarded, Simulator
from .phy import OC3_SONET, AtmPhy, CellLink
from .switch import ASX200_FORWARD_US, AtmSwitch
from .unet_atm import AtmTimings, UNetAtmBackend

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..fabric.topology import Topology

__all__ = ["AtmFabric", "FIRST_USER_VCI"]

#: VCIs 0-31 are reserved for signaling/OAM in real ATM deployments
FIRST_USER_VCI = 32


@dataclass
class _VcRoute:
    """Signaling-plane record of one directional VC, kept so the route
    can be re-programmed when a trunk on its path fails."""

    src_switch: int
    dst_switch: int
    dst_port: int
    key: int
    path: List[int] = field(default_factory=list)


class AtmFabric(SimulatedNetwork):
    """ATM switches joined per a declarative topology, with network-wide VCs.

    Hosts attach to any switch; :meth:`connect` sets up a duplex virtual
    circuit whose VCI is programmed hop by hop along a shortest switch
    path, rotating across parallel paths connection by connection.
    """

    COUNTERS = ("reroutes",)
    PARTS = ("switches", "hosts")

    def __init__(
        self,
        sim: Simulator,
        switches: int = 2,
        trunk_phy: AtmPhy = OC3_SONET,
        trunk_propagation_us: float = 2.0,
        topology: Optional["Topology"] = None,
        forward_us: float = ASX200_FORWARD_US,
    ) -> None:
        if topology is None:
            # on first build, not on import: ``import repro.atm`` alone
            # stays free of the fabric package
            from ..fabric.topology import linear_topology

            topology = linear_topology(switches)
        self.sim = sim
        self.topology = topology
        self.switches: List[AtmSwitch] = [
            AtmSwitch(sim, name=f"asx200-{i}", forward_us=forward_us)
            for i in range(topology.num_switches)
        ]
        self._next_port: List[int] = [0] * topology.num_switches
        #: (switch, neighbour) -> port on ``switch`` whose egress trunk
        #: leads to ``neighbour``
        self._trunk_port: Dict[Tuple[int, int], int] = {}
        self._trunk_links: Dict[Tuple[int, int], CellLink] = {}
        self._host_port: Dict[UNetAtmBackend, Tuple[int, int]] = {}
        self._next_vci = FIRST_USER_VCI
        self._path_key = 0
        self.hosts: List[Host] = []
        #: vci -> signaling record enabling failover re-programming
        self._vc_routes: Dict[int, _VcRoute] = {}
        #: VCs whose endpoints are currently partitioned (retried on heal)
        self._stranded: Set[int] = set()
        self.reroutes = 0
        for a, b in topology.trunks:
            self._join(a, b, trunk_phy, trunk_propagation_us)

    def _allocate_port(self, switch_index: int) -> int:
        port = self._next_port[switch_index]
        self._next_port[switch_index] += 1
        return port

    def _join(self, a: int, b: int, phy: AtmPhy, propagation_us: float) -> None:
        """Duplex trunk between switches ``a`` and ``b``."""
        toward_b = CellLink(self.sim, phy, propagation_us, name=f"trunk{a}->{b}")
        toward_b.deliver = self.switches[b].on_cell
        port_a = self._allocate_port(a)
        self.switches[a].attach_port(port_a, toward_b)
        self._trunk_port[(a, b)] = port_a
        self._trunk_links[(a, b)] = toward_b

        toward_a = CellLink(self.sim, phy, propagation_us, name=f"trunk{b}->{a}")
        toward_a.deliver = self.switches[a].on_cell
        port_b = self._allocate_port(b)
        self.switches[b].attach_port(port_b, toward_a)
        self._trunk_port[(b, a)] = port_b
        self._trunk_links[(b, a)] = toward_a

    def close(self) -> Discarded:
        """End the machine; the signaling plane forgets every VC."""
        discarded = super().close()
        self._vc_routes.clear()
        self._stranded.clear()
        for switch in self.switches:
            switch.clear_routes()
        return discarded

    def trunk_link(self, a: int, b: int) -> CellLink:
        """The egress trunk from switch ``a`` toward adjacent ``b``
        (fault injection and tests interpose on its ``deliver``)."""
        return self._trunk_links[(a, b)]

    def add_host(
        self,
        name: str,
        cpu: CpuModel,
        switch: int = 0,
        phy: AtmPhy = OC3_SONET,
        timings: Optional[AtmTimings] = None,
        bus: BusModel = PCI_BUS,
        propagation_us: float = 0.5,
    ) -> Host:
        """Attach a new workstation to the next free port of ``switch``.

        ``phy`` sets both directions of the host's fiber (the paper's
        bandwidth test received on a 140 Mb/s TAXI link; pass
        ``TAXI_140`` for that configuration).
        """
        if not 0 <= switch < len(self.switches):
            raise ValueError(f"no such switch {switch}")
        backend = UNetAtmBackend(self.sim, name=f"{name}.pca200", timings=timings, bus=bus)
        uplink = CellLink(self.sim, phy, propagation_us, name=f"{name}->sw{switch}")
        uplink.deliver = self.switches[switch].on_cell
        backend.tx_link = uplink
        downlink = CellLink(self.sim, phy, propagation_us, name=f"sw{switch}->{name}")
        # late-bound so fault injectors can interpose on on_cell
        downlink.deliver = lambda cell: backend.on_cell(cell)
        port = self._allocate_port(switch)
        self.switches[switch].attach_port(port, downlink)
        self._host_port[backend] = (switch, port)
        host = Host(self.sim, name, cpu, backend)
        self.hosts.append(host)
        return host

    # ----------------------------------------------------------- signaling
    def _allocate_vci(self) -> int:
        vci = self._next_vci
        self._next_vci += 1
        return vci

    def _program_path(self, vci: int, path: List[int], dst_port: int) -> None:
        """Program ``vci`` hop by hop along an arbitrary switch path."""
        for here, nxt in zip(path, path[1:]):
            self.switches[here].program_route(vci, self._trunk_port[(here, nxt)])
        self.switches[path[-1]].program_route(vci, dst_port)

    def connect_collective(
        self, backend_a: UNetAtmBackend, backend_b: UNetAtmBackend
    ) -> Tuple[int, int]:
        """Bare duplex VC between two attached NICs; returns (vci a→b,
        vci b→a).  Routes are programmed fabric-wide but the VCIs are
        *not* demuxed to any endpoint: :meth:`connect` adds that, and a
        NIC-resident collective engine owns them otherwise.

        Both directions ride the same switch path (symmetric RTT); the
        path key rotates per connection to spread VCs across parallel
        spines.
        """
        if backend_a not in self._host_port or backend_b not in self._host_port:
            raise ChannelError("both hosts must be attached to the fabric")
        switch_a, port_a = self._host_port[backend_a]
        switch_b, port_b = self._host_port[backend_b]
        key = self._path_key
        path = self.topology.path(switch_a, switch_b, key=key)
        self._path_key += 1
        vci_ab = self._allocate_vci()
        vci_ba = self._allocate_vci()
        self._program_path(vci_ab, path, port_b)
        self._program_path(vci_ba, list(reversed(path)), port_a)
        self._vc_routes[vci_ab] = _VcRoute(switch_a, switch_b, port_b, key, list(path))
        self._vc_routes[vci_ba] = _VcRoute(switch_b, switch_a, port_a, key,
                                           list(reversed(path)))
        return vci_ab, vci_ba

    def connect(self, a: UserEndpoint, b: UserEndpoint) -> Tuple[int, int]:
        """Network-wide duplex VC between two endpoints; returns the
        channel identifiers assigned on (a, b)."""
        vci_ab, vci_ba = self.connect_collective(a.backend, b.backend)
        return connect_pair(a, b, AtmTag(tx_vci=vci_ab, rx_vci=vci_ba),
                            AtmTag(tx_vci=vci_ba, rx_vci=vci_ab), vci_ba, vci_ab)

    def collective_edge(self, backend_a: UNetAtmBackend, backend_b: UNetAtmBackend,
                        on_a, on_b) -> Tuple[int, int]:
        """One tree edge of the NIC-resident collectives: a fabric-routed
        VC pair whose VCIs each NIC's firmware hands to ``on_a`` /
        ``on_b``.  Returns the addresses (VCIs) a→b and b→a."""
        vci_ab, vci_ba = self.connect_collective(backend_a, backend_b)
        backend_b.register_collective(on_b, vci_ab)
        backend_a.register_collective(on_a, vci_ba)
        return vci_ab, vci_ba

    def hops_between(self, a: UserEndpoint, b: UserEndpoint) -> int:
        """Number of switches a message between a and b traverses."""
        switch_a, _ = self._host_port[a.backend]
        switch_b, _ = self._host_port[b.backend]
        return self.topology.hops(switch_a, switch_b)

    # ------------------------------------------------------------ failover
    def set_trunk_state(self, a: int, b: int, up: bool) -> bool:
        """Fail (``up=False``) or restore the duplex trunk ``a — b``.

        Going down, both directional links go down and blackhole their
        in-flight cells (each counts its ``blackholed``, as a yanked
        fiber would), and the signaling plane re-programs every VC whose
        path crossed the trunk along a surviving shortest path — keeping the
        VC's original spreading key, so re-keying stays deterministic.
        VCs with no surviving path are *stranded* and re-programmed when
        a trunk comes back.  Returns True when the state changed.
        """
        if not self.topology.set_trunk(a, b, up):
            return False
        self._trunk_links[(a, b)].up = self._trunk_links[(b, a)].up = up
        if up:
            for vci in sorted(self._stranded):
                self._reprogram(vci)
        else:
            for vci in sorted(self._vc_routes):
                if _uses_trunk(self._vc_routes[vci].path, a, b):
                    self._reprogram(vci)
        return True

    def _reprogram(self, vci: int) -> None:
        route = self._vc_routes[vci]
        try:
            path = self.topology.path(route.src_switch, route.dst_switch,
                                      key=route.key)
        except NoPathError:
            self._stranded.add(vci)
            return
        self._program_path(vci, path, route.dst_port)
        route.path = list(path)
        self._stranded.discard(vci)
        self.reroutes += 1

    def backends_reachable(self, backend_a: UNetAtmBackend,
                           backend_b: UNetAtmBackend) -> bool:
        """Whether a live switch path joins the two attached NICs."""
        switch_a, _ = self._host_port[backend_a]
        switch_b, _ = self._host_port[backend_b]
        return self.topology.connected(switch_a, switch_b)


def _uses_trunk(path: List[int], a: int, b: int) -> bool:
    return any((x == a and y == b) or (x == b and y == a)
               for x, y in zip(path, path[1:]))
