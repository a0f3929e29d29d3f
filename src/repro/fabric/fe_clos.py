"""A 2-level Clos/fat-tree of Fast Ethernet switches.

Section 4.4.3's scalability discussion stops at a single switch because
U-Net/FE addresses stations by MAC; this builder keeps the flat MAC
address space and scales it with a leaf/spine fabric: hosts attach to
leaf switches, every leaf trunks to every spine, and frames cross at
most leaf → spine → leaf.

The fabric's signaling plane programs every switch's MAC table when a
host is added.  Destination hosts are spread round-robin across spines,
so parallel trunks all carry traffic while each destination has exactly
one loop-free path from every leaf.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..core.api import UserEndpoint
from ..core.base import TrunkedFabric
from ..core.errors import NoPathError
from ..ethernet.network import _FeNetworkBase
from ..ethernet.switch import BAY_28115, EthernetSwitch, SwitchModel
from ..hw.bus import Link
from ..sim import Simulator
from .topology import clos_topology

__all__ = ["ClosFeNetwork"]


class ClosFeNetwork(_FeNetworkBase, TrunkedFabric):
    """Hosts on a leaf/spine Fast Ethernet fabric (full duplex links).

    The trunks, ports and host placement are :class:`TrunkedFabric`'s
    (a leaf is its own topology index, a spine ``leaves + spine``); this
    class is the MAC-programming plane."""

    def __init__(
        self,
        sim: Simulator,
        leaves: int = 2,
        spines: int = 2,
        hosts_per_leaf: int = 8,
        model: SwitchModel = BAY_28115,
        rate_mbps: float = 100.0,
        trunk_propagation_us: float = 2.0,
    ) -> None:
        _FeNetworkBase.__init__(self, sim)
        self.hosts_per_leaf = hosts_per_leaf
        self._rate_mbps = rate_mbps
        self._trunk_propagation_us = trunk_propagation_us
        #: every statically-programmed host: (mac, leaf, host_index)
        self._mac_programs: List[Tuple[int, int, int]] = []
        #: (mac, source leaf) -> spine its MAC entry currently routes via
        self._via: Dict[Tuple[int, int], int] = {}
        # auto-size the port count; the paper's products are too small
        # for a fabric role but their latency model still applies
        leaf_model = _sized(model, spines + hosts_per_leaf)
        spine_model = _sized(model, leaves)
        TrunkedFabric.__init__(self, sim, clos_topology(leaves, spines), [
            EthernetSwitch(sim, leaf_model if i < leaves else spine_model,
                           rate_mbps=rate_mbps)
            for i in range(leaves + spines)
        ])

    def _trunk(self, a: int, b: int) -> Link:
        return Link(self.sim, self._rate_mbps, self._trunk_propagation_us, f"trunk{a}->{b}",
                    header_bytes=self.switches[b].model.ingress_header_bytes)

    def _where(self, leaf: Optional[int] = None, propagation_us: float = 0.5):
        return {"leaf": self._place(leaf), "propagation_us": propagation_us}

    def _attach(self, backend, leaf: int, propagation_us: float) -> None:
        """Cable a NIC to ``leaf`` (:meth:`_where` chose it)."""
        backend.attach(self.switches[leaf].attach(backend.mac,
                                                  propagation_us=propagation_us))
        self._program_fabric(backend.mac, leaf, len(self.hosts))
        self._switch_of[backend] = leaf

    def _program_fabric(self, mac: int, leaf: int, host_index: int) -> None:
        """Signaling plane: one loop-free path to ``mac`` from everywhere.

        The host's leaf knows it directly (programmed by ``attach``);
        spines point at that leaf; other leaves point at a spine chosen
        per host among the *live* trunks, spreading destinations across
        parallel paths.  Re-run by :meth:`_reroute` — the static
        analogue of MAC re-learning after a topology change.
        """
        self._mac_programs.append((mac, leaf, host_index))
        for spine in range(self.leaves, self.leaves + self.spines):
            self.switches[spine].program_mac(mac, self._trunk_port[(spine, leaf)])
        self._program_leaves(mac, leaf, host_index)

    def _program_leaves(self, mac: int, leaf: int, host_index: int) -> None:
        topo = self.topology
        spines = range(self.leaves, self.leaves + self.spines)
        for other in range(self.leaves):
            if other == leaf:
                continue
            candidates = [s for s in spines
                          if topo.trunk_up(other, s) and topo.trunk_up(leaf, s)]
            if not candidates:
                # partitioned pair: leave the stale entry; frames die in
                # the blackholed trunk until a path returns
                continue
            via = candidates[host_index % len(candidates)]
            previous = self._via.get((mac, other))
            if previous != via:
                self.switches[other].program_mac(mac, self._trunk_port[(other, via)])
                self._via[(mac, other)] = via
                if previous is not None:
                    self.reroutes += 1

    def _reroute(self, a: int, b: int, up: bool) -> None:
        """Re-spread every destination MAC across the surviving spines."""
        for mac, host_leaf, host_index in self._mac_programs:
            self._program_leaves(mac, host_leaf, host_index)

    def connect(self, a: UserEndpoint, b: UserEndpoint) -> Tuple[int, int]:
        """Duplex channel; refuses (typed) when the leaves are partitioned."""
        leaf_a, leaf_b = self._switch_of[a.backend], self._switch_of[b.backend]
        if not self.topology.connected(leaf_a, leaf_b):
            raise NoPathError(f"leaves {leaf_a} and {leaf_b} are partitioned",
                              src=leaf_a, dst=leaf_b)
        return super().connect(a, b)


def _sized(model: SwitchModel, needed: int) -> SwitchModel:
    if model.ports >= needed:
        return model
    return replace(model, name=f"{model.name}x{needed}", ports=needed)
