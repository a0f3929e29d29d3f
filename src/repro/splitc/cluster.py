"""Cluster builder: N Split-C nodes over a chosen substrate.

Reproduces the paper's two experimental platforms (Section 5):

* the Fast Ethernet cluster — "one 90 MHz and seven 120-MHz Pentium
  workstations ... connected by a Bay Networks 28115 switch";
* the ATM cluster — "4 SPARCStation 20s and 4 SPARCStation 10s ...
  connected by a Fore ASX-200 switch to a 140 Mb/s ATM network".
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from .. import networks
from ..am.am import AmEndpoint
from ..core.api import Host, UserEndpoint
from ..core.base import Closing
from ..core.endpoint import EndpointConfig
from ..sim import Discarded, Simulator
from .runtime import SplitCRuntime

__all__ = ["Cluster", "ENDPOINT_CONFIG"]

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


class Cluster(Closing):
    """N workstations, channel-connected on demand, running Split-C."""

    #: the rows of :mod:`repro.networks`
    SUBSTRATES = networks.names()
    PARTS = ("network", "ams", "runtimes", "collective_engines")

    def __init__(
        self,
        n: int,
        substrate: str = "fe-switch",
        sim: Optional[Simulator] = None,
        collectives: str = "host",
    ) -> None:
        if n < 1:
            raise ValueError("cluster needs at least one node")
        if collectives not in ("host", "nic"):
            raise ValueError(f"unknown collectives mode {collectives!r} (host, nic)")
        row = networks.get(substrate)
        row.check_hosts(n)
        # every refusal that needs no machine is above: nothing is built
        # that a failed constructor would leave behind unclosed
        self.n = n
        self.substrate = row.name
        self.collectives = collectives
        self.sim = sim or Simulator()
        self.cpus = row.ni.cpus(n)
        self.network = row.build(self.sim, n)
        if collectives == "nic" and not hasattr(self.network, "collective_edge"):
            self.network.close()
            raise ValueError(
                f"collectives='nic' is not supported on substrate {substrate!r} "
                "(the engine cannot span the mixed relay or bonded rails)"
            )
        endpoint_config = ENDPOINT_CONFIG if n <= LEAN_THRESHOLD else _lean_endpoint_config(n)
        host_kwargs = row.cluster_host()
        self.hosts: List[Host] = [
            self.network.add_host(f"node{i}", self.cpus[i], **host_kwargs) for i in range(n)
        ]
        self.endpoints: List[UserEndpoint] = [
            host.create_endpoint(config=endpoint_config, rx_buffers=RX_BUFFERS) for host in self.hosts
        ]
        self.ams: List[AmEndpoint] = [
            AmEndpoint(i, self.endpoints[i]) for i in range(n)
        ]
        self._connected_pairs: set = set()
        # channels come up on first use: O(active pairs), not O(N^2)
        for i, am in enumerate(self.ams):
            am.peer_resolver = self._make_resolver(i)
        self.collective_engines = []
        if collectives == "nic":
            from ..collectives import wire_collectives

            self.collective_engines = wire_collectives(self.network, self.hosts)
        self.runtimes: List[SplitCRuntime] = [
            SplitCRuntime(i, n, self.ams[i], self.cpus[i]) for i in range(n)
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
