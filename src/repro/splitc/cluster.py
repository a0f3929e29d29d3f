"""Cluster builder: N Split-C nodes over a chosen substrate.

Reproduces the paper's two experimental platforms (Section 5):

* the Fast Ethernet cluster — "one 90 MHz and seven 120-MHz Pentium
  workstations ... connected by a Bay Networks 28115 switch";
* the ATM cluster — "4 SPARCStation 20s and 4 SPARCStation 10s ...
  connected by a Fore ASX-200 switch to a 140 Mb/s ATM network".
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Sequence

from ..am.am import AmConfig, AmEndpoint
from ..atm.network import AtmNetwork
from ..atm.phy import TAXI_140, AtmPhy
from ..core.api import Host, UserEndpoint
from ..core.base import Closing
from ..core.endpoint import EndpointConfig
from ..ethernet.network import HubNetwork, SwitchedNetwork
from ..ethernet.switch import BAY_28115, SwitchModel
from ..hw.cpu import (
    PENTIUM_90,
    PENTIUM_120,
    SPARCSTATION_10,
    SPARCSTATION_20,
    CpuModel,
)
from ..sim import Discarded, Simulator
from .costs import DEFAULT_COSTS, KernelCosts
from .runtime import SplitCRuntime

__all__ = ["Cluster", "fe_cluster_cpus", "atm_cluster_cpus", "ENDPOINT_CONFIG"]

#: generous endpoint sizing for the AM traffic of parallel programs
ENDPOINT_CONFIG = EndpointConfig(
    num_buffers=512, buffer_size=2048, send_queue_depth=256, recv_queue_depth=512
)
RX_BUFFERS = 128

#: past this node count the cluster switches to a leaner per-endpoint
#: sizing — 256 nodes x 512 buffers of 2 KB would be a gigabyte of
#: simulated buffer space nobody touches
LEAN_THRESHOLD = 64


def _lean_endpoint_config(n: int) -> EndpointConfig:
    """Endpoint sizing for large clusters.

    The receive queue must still absorb the host-coordinated barrier
    incast at node 0 (every peer's arrival packet plus an announce), so
    it scales with ``n``; the buffer area shrinks from 1 MB to 384 KB
    per node but keeps room for the :data:`RX_BUFFERS` donated at
    endpoint creation plus a working set of send buffers.
    """
    return EndpointConfig(
        num_buffers=RX_BUFFERS + 64,
        buffer_size=2048,
        send_queue_depth=64,
        recv_queue_depth=max(512, 2 * n),
    )


def fe_cluster_cpus(n: int) -> List[CpuModel]:
    """The paper's FE cluster: one Pentium-90, the rest Pentium-120s."""
    return [PENTIUM_90] + [PENTIUM_120] * (n - 1)


def atm_cluster_cpus(n: int) -> List[CpuModel]:
    """The paper's ATM cluster: half SPARCstation-20s, half -10s."""
    half = (n + 1) // 2
    return ([SPARCSTATION_20] * half + [SPARCSTATION_10] * (n - half))[:n]


def _clos_shape(n: int) -> tuple:
    """(leaves, spines, hosts_per_leaf) for an ``n``-host fat tree.

    Leaves hold up to 16 hosts (a realistic leaf port budget) and the
    spine tier is half the leaf tier, capped at 8 — e.g. 256 hosts on
    16 leaves x 8 spines.
    """
    leaves = max(2, -(-n // 16))
    per_leaf = -(-n // leaves)
    spines = max(2, min(8, -(-leaves // 2)))
    return leaves, spines, per_leaf


class Cluster(Closing):
    """N workstations, channel-connected on demand, running Split-C."""

    SUBSTRATES = ("fe-hub", "fe-switch", "fe-beowulf", "fe-clos", "atm", "atm-clos", "mixed")

    def __init__(
        self,
        n: int,
        substrate: str = "fe-switch",
        cpus: Optional[Sequence[CpuModel]] = None,
        am_config: Optional[AmConfig] = None,
        costs: KernelCosts = DEFAULT_COSTS,
        switch_model: SwitchModel = BAY_28115,
        atm_phy: AtmPhy = TAXI_140,
        sim: Optional[Simulator] = None,
        collectives: str = "host",
        collective_fanout: int = 4,
        lazy_channels: bool = True,
        endpoint_config: Optional[EndpointConfig] = None,
    ) -> None:
        if n < 1:
            raise ValueError("cluster needs at least one node")
        if collectives not in ("host", "nic"):
            raise ValueError(f"unknown collectives mode {collectives!r} (host, nic)")
        if substrate not in self.SUBSTRATES:
            raise ValueError(f"unknown substrate {substrate!r} {self.SUBSTRATES}")
        if cpus is None:
            cpus = fe_cluster_cpus(n) if substrate.startswith("fe") else atm_cluster_cpus(n)
        if len(cpus) != n:
            raise ValueError("need one CpuModel per node")
        # every refusal that needs no machine is above: nothing is built
        # that a failed constructor would leave behind unclosed
        self.n = n
        self.substrate = substrate
        self.collectives = collectives
        self.sim = sim or Simulator()
        self.cpus = list(cpus)
        self.network = self._build_network(substrate, switch_model, atm_phy)
        if collectives == "nic" and not hasattr(self.network, "collective_edge"):
            self.network.close()
            raise ValueError(
                f"collectives='nic' is not supported on substrate {substrate!r} "
                "(the engine cannot span the mixed relay or bonded rails)"
            )
        if endpoint_config is None:
            endpoint_config = ENDPOINT_CONFIG if n <= LEAN_THRESHOLD else _lean_endpoint_config(n)
        # the ATM hosts' fibers run the cluster's PHY, like its trunks
        host_kwargs = {"phy": atm_phy} if substrate in ("atm", "atm-clos") else {}
        self.hosts: List[Host] = [
            self.network.add_host(f"node{i}", self.cpus[i], **host_kwargs) for i in range(n)
        ]
        self.endpoints: List[UserEndpoint] = [
            host.create_endpoint(config=endpoint_config, rx_buffers=RX_BUFFERS) for host in self.hosts
        ]
        self.ams: List[AmEndpoint] = [
            AmEndpoint(i, self.endpoints[i], config=am_config) for i in range(n)
        ]
        self._connected_pairs: set = set()
        if lazy_channels:
            # channels come up on first use: O(active pairs), not O(N^2)
            for i, am in enumerate(self.ams):
                am.peer_resolver = self._make_resolver(i)
        else:
            for i in range(n):
                for j in range(i + 1, n):
                    self._ensure_channel(i, j)
        self.collective_engines = []
        if collectives == "nic":
            from ..collectives import wire_collectives

            self.collective_engines = wire_collectives(self.network, self.hosts,
                                                       fanout=collective_fanout)
        self.runtimes: List[SplitCRuntime] = [
            SplitCRuntime(i, n, self.ams[i], self.cpus[i], costs=costs) for i in range(n)
        ]
        for runtime, engine in zip(self.runtimes, self.collective_engines):
            runtime.use_nic_collectives(engine)
        #: what :meth:`close` found still running or in flight
        self.discarded: Optional[Discarded] = None

    # ------------------------------------------------------------- channels
    def _make_resolver(self, i: int):
        def resolve(j: int) -> None:
            if 0 <= j < self.n and j != i:
                self._ensure_channel(i, j)
        return resolve

    def _ensure_channel(self, i: int, j: int) -> None:
        key = (i, j) if i < j else (j, i)
        if key in self._connected_pairs:
            return
        self._connected_pairs.add(key)
        ch_i, ch_j = self.network.connect(self.endpoints[i], self.endpoints[j])
        self.ams[i].connect_peer(j, ch_i)
        self.ams[j].connect_peer(i, ch_j)

    # -------------------------------------------------------------- fabric
    def _build_network(self, substrate: str, switch_model: SwitchModel, atm_phy: AtmPhy):
        if substrate == "fe-hub":
            return HubNetwork(self.sim)
        if substrate == "fe-switch":
            return SwitchedNetwork(self.sim, model=switch_model)
        if substrate == "fe-beowulf":
            from ..ethernet.bonding import BeowulfNetwork

            return BeowulfNetwork(self.sim)
        if substrate == "fe-clos":
            from ..fabric import ClosFeNetwork

            leaves, spines, per_leaf = _clos_shape(self.n)
            return ClosFeNetwork(self.sim, leaves=leaves, spines=spines,
                                 hosts_per_leaf=per_leaf, model=switch_model)
        if substrate == "atm":
            return AtmNetwork(self.sim)
        if substrate == "atm-clos":
            from ..fabric import ClosAtmFabric

            leaves, spines, per_leaf = _clos_shape(self.n)
            return ClosAtmFabric(self.sim, leaves=leaves, spines=spines,
                                 hosts_per_leaf=per_leaf, trunk_phy=atm_phy)
        from ..fabric import MixedFabric  # "mixed": __init__ vetted the name

        per_leaf = max(2, -(-self.n // 4))  # half per side, two leaves each
        return MixedFabric(self.sim, hosts_per_leaf=per_leaf)

    # ---------------------------------------------------------------- run
    def run(self, program: Callable[[SplitCRuntime], Generator], limit: float = 5e9) -> List[Any]:
        """Run one SPMD ``program`` on every node; returns per-node results.

        The program is a generator function taking the node's runtime.
        A cluster runs once: this is its whole life, and it ends closed
        (see :meth:`close`) whether the program returns or raises.
        """
        try:
            processes = [
                self.sim.process(program(runtime), name=f"splitc.node{runtime.node}")
                for runtime in self.runtimes
            ]
            return [self.sim.run_until_complete(process, limit=limit) for process in processes]
        finally:
            self.close()

    def close(self) -> Discarded:
        """End the machine: stop the AM endpoints, close the network and
        the simulator under it.  Results, the Split-C heap, every counter
        and ``sim.events_processed`` stay readable; :attr:`discarded` says
        what was still running or in flight.  Idempotent."""
        for am in self.ams:
            am.shutdown()
        self.discarded = self.network.close()
        return self.discarded

    @property
    def elapsed(self) -> float:
        """Simulation time so far (microseconds)."""
        return self.sim.now

    def time_breakdown(self) -> List[dict]:
        """Per-node cpu/net split (drives the paper's Figure 7)."""
        return [
            {
                "node": rt.node,
                "cpu_us": rt.compute_time,
                "net_us": rt.comm_time,
            }
            for rt in self.runtimes
        ]
