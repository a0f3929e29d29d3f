"""A 2-level Clos/fat-tree of Fast Ethernet switches.

Section 4.4.3's scalability discussion stops at a single switch because
U-Net/FE addresses stations by MAC; this builder keeps the flat MAC
address space and scales it with a leaf/spine fabric: hosts attach to
leaf switches, every leaf trunks to every spine, and frames cross at
most leaf → spine → leaf.

Two forwarding regimes:

* **static** (default, any spine count) — the fabric's signaling plane
  programs every switch's MAC table when a host is added.  Destination
  hosts are spread round-robin across spines, so parallel trunks all
  carry traffic while each destination has exactly one loop-free path
  from every leaf.
* **learning** (``learning=True``, requires ``spines == 1``) — switches
  transparently bridge: they learn source MACs across the trunks and
  flood unknown destinations.  A multi-spine Clos has physical loops, so
  learning mode models the spanning-tree-pruned single-spine tree.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..core.api import UserEndpoint
from ..core.errors import NoPathError
from ..ethernet.network import _FeNetworkBase
from ..ethernet.switch import BAY_28115, EthernetSwitch, SwitchModel
from ..hw.bus import Link
from ..sim import Simulator
from .topology import clos_topology, leaves_for

__all__ = ["ClosFeNetwork"]


class ClosFeNetwork(_FeNetworkBase):
    """Hosts on a leaf/spine Fast Ethernet fabric (full duplex links)."""

    COUNTERS = ("reroutes",)
    PARTS = ("leaf_switches", "spine_switches", "hosts")

    def __init__(
        self,
        sim: Simulator,
        leaves: int = 2,
        spines: int = 2,
        hosts_per_leaf: int = 8,
        model: SwitchModel = BAY_28115,
        rate_mbps: float = 100.0,
        trunk_propagation_us: float = 2.0,
        learning: bool = False,
    ) -> None:
        super().__init__(sim)
        if hosts_per_leaf < 1:
            raise ValueError("need at least one host per leaf")
        if learning and spines != 1:
            raise ValueError("learning mode floods; a multi-spine Clos has loops "
                             "(use spines=1 for the spanning-tree-pruned shape)")
        self.topology = clos_topology(leaves, spines)
        self.hosts_per_leaf = hosts_per_leaf
        self.learning = learning
        # auto-size the port count; the paper's products are too small
        # for a fabric role but their latency model still applies
        leaf_model = _sized(model, spines + hosts_per_leaf)
        spine_model = _sized(model, leaves)
        self.leaf_switches: List[EthernetSwitch] = [
            EthernetSwitch(sim, leaf_model, rate_mbps=rate_mbps, learning=learning)
            for _ in range(leaves)
        ]
        self.spine_switches: List[EthernetSwitch] = [
            EthernetSwitch(sim, spine_model, rate_mbps=rate_mbps, learning=learning)
            for _ in range(spines)
        ]
        #: (leaf, spine) -> leaf port toward that spine, and vice versa
        self._leaf_uplink: Dict[Tuple[int, int], int] = {}
        self._spine_downlink: Dict[Tuple[int, int], int] = {}
        #: trunk links by (from, to) topology switch index: a leaf is its
        #: own index, a spine ``leaves + spine``
        self._trunk_links: Dict[Tuple[int, int], Link] = {}
        for leaf in range(leaves):
            for spine in range(spines):
                self._join(leaf, spine, rate_mbps, trunk_propagation_us)
        self._leaf_of_backend: Dict[object, int] = {}
        self._host_count = 0
        #: every statically-programmed host: (mac, leaf, host_index)
        self._mac_programs: List[Tuple[int, int, int]] = []
        #: (mac, source leaf) -> spine its MAC entry currently routes via
        self._via: Dict[Tuple[int, int], int] = {}
        self.reroutes = 0

    def _join(self, leaf: int, spine: int, rate_mbps: float, propagation_us: float) -> None:
        leaf_sw = self.leaf_switches[leaf]
        spine_sw = self.spine_switches[spine]
        up = Link(self.sim, rate_mbps, propagation_us, f"trunk.l{leaf}->s{spine}",
                  header_bytes=spine_sw.model.ingress_header_bytes)
        down = Link(self.sim, rate_mbps, propagation_us, f"trunk.s{spine}->l{leaf}",
                    header_bytes=leaf_sw.model.ingress_header_bytes)
        leaf_port = leaf_sw.attach_egress(up)
        spine_port = spine_sw.attach_egress(down)
        up.deliver = spine_sw.ingress(spine_port)
        down.deliver = leaf_sw.ingress(leaf_port)
        self._leaf_uplink[(leaf, spine)] = leaf_port
        self._spine_downlink[(spine, leaf)] = spine_port
        self._trunk_links[(leaf, self.leaves + spine)] = up
        self._trunk_links[(self.leaves + spine, leaf)] = down

    @property
    def leaves(self) -> int:
        return self.topology.leaves

    @property
    def spines(self) -> int:
        return self.topology.spines

    def trunk_link(self, a: int, b: int) -> Link:
        """The egress trunk from topology switch ``a`` toward adjacent
        ``b`` (a leaf is its own index, a spine ``leaves + spine``)."""
        return self._trunk_links[(a, b)]

    def _attach(self, backend, leaf: Optional[int] = None,
                propagation_us: float = 0.5) -> None:
        """Cable a NIC to ``leaf``; defaults to filling leaves left to right."""
        if leaf is None:
            leaf = self._host_count // self.hosts_per_leaf
        if not 0 <= leaf < self.leaves:
            raise ValueError(f"no such leaf {leaf} "
                             f"(cluster is full at {self.leaves * self.hosts_per_leaf} hosts)")
        backend.attach(self.leaf_switches[leaf].attach(backend.mac,
                                                       propagation_us=propagation_us))
        if not self.learning:
            self._program_fabric(backend.mac, leaf, self._host_count)
        self._leaf_of_backend[backend] = leaf
        self._host_count += 1

    def _program_fabric(self, mac: int, leaf: int, host_index: int) -> None:
        """Signaling plane: one loop-free path to ``mac`` from everywhere.

        The host's leaf knows it directly (programmed by ``attach``);
        spines point at that leaf; other leaves point at a spine chosen
        per host among the *live* trunks, spreading destinations across
        parallel paths.  Re-run by :meth:`set_trunk_state` — the static
        analogue of MAC re-learning after a topology change.
        """
        self._mac_programs.append((mac, leaf, host_index))
        for spine, switch in enumerate(self.spine_switches):
            switch.program_mac(mac, self._spine_downlink[(spine, leaf)])
        self._program_leaves(mac, leaf, host_index)

    def _program_leaves(self, mac: int, leaf: int, host_index: int) -> None:
        topo = self.topology
        for other, switch in enumerate(self.leaf_switches):
            if other == leaf:
                continue
            candidates = [s for s in range(self.spines)
                          if topo.trunk_up(other, self.leaves + s)
                          and topo.trunk_up(leaf, self.leaves + s)]
            if not candidates:
                # partitioned pair: leave the stale entry; frames die in
                # the blackholed trunk until a path returns
                continue
            via = candidates[host_index % len(candidates)]
            previous = self._via.get((mac, other))
            if previous != via:
                switch.program_mac(mac, self._leaf_uplink[(other, via)])
                self._via[(mac, other)] = via
                if previous is not None:
                    self.reroutes += 1

    # ------------------------------------------------------------ failover
    def set_trunk_state(self, a: int, b: int, up: bool) -> bool:
        """Fail or restore the trunk between topology switches ``a`` and
        ``b`` (one a leaf index, the other ``leaves + spine``).  Both
        trunk links blackhole in-flight frames while down and every
        destination MAC is re-spread across surviving spines.  Returns
        True when the state changed."""
        if not self.topology.set_trunk(a, b, up):
            return False
        self._trunk_links[(a, b)].up = self._trunk_links[(b, a)].up = up
        for mac, host_leaf, host_index in self._mac_programs:
            self._program_leaves(mac, host_leaf, host_index)
        return True

    def backends_reachable(self, backend_a, backend_b) -> bool:
        """Whether a live switch path joins the two attached NICs."""
        leaf_a = self._leaf_of_backend[backend_a]
        leaf_b = self._leaf_of_backend[backend_b]
        return self.topology.connected(leaf_a, leaf_b)

    def connect(self, a: UserEndpoint, b: UserEndpoint) -> Tuple[int, int]:
        """Duplex channel; refuses (typed) when the leaves are partitioned."""
        leaf_a = self._leaf_of_backend[a.host.backend]
        leaf_b = self._leaf_of_backend[b.host.backend]
        if not self.topology.connected(leaf_a, leaf_b):
            raise NoPathError(
                f"leaves {leaf_a} and {leaf_b} are partitioned",
                src=leaf_a, dst=leaf_b)
        return super().connect(a, b)

    def hops_between(self, a: UserEndpoint, b: UserEndpoint) -> int:
        """Switches a frame between ``a`` and ``b`` traverses (1 or 3)."""
        leaf_a = self._leaf_of_backend[a.host.backend]
        leaf_b = self._leaf_of_backend[b.host.backend]
        return 1 if leaf_a == leaf_b else 3


def _sized(model: SwitchModel, needed: int) -> SwitchModel:
    if model.ports >= needed:
        return model
    return replace(model, name=f"{model.name}x{needed}", ports=needed)
