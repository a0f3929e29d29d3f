"""A 2-level Clos/fat-tree of ASX-200 ATM switches.

Thin builder over :class:`~repro.atm.fabric.AtmFabric`: the topology
layer contributes the leaf/spine graph and the fabric programs each
virtual circuit hop by hop along one of the ``spines`` parallel paths
(rotated per connection), exactly the "virtual circuits are established
network-wide" property of Section 4.4.3 at fat-tree scale.
"""

from __future__ import annotations

from ..atm.fabric import AtmFabric
from ..atm.phy import OC3_SONET, AtmPhy
from ..sim import Simulator
from .topology import clos_topology

__all__ = ["ClosAtmFabric"]


class ClosAtmFabric(AtmFabric):
    """Hosts on a leaf/spine ATM fabric with network-wide VCs; hosts fill
    the leaves left to right unless ``add_host(switch=)`` names a leaf
    (spines carry only trunks)."""

    def __init__(
        self,
        sim: Simulator,
        leaves: int = 2,
        spines: int = 2,
        hosts_per_leaf: int = 8,
        trunk_phy: AtmPhy = OC3_SONET,
        trunk_propagation_us: float = 2.0,
    ) -> None:
        self.hosts_per_leaf = hosts_per_leaf
        super().__init__(
            sim,
            trunk_phy=trunk_phy,
            trunk_propagation_us=trunk_propagation_us,
            topology=clos_topology(leaves, spines),
        )
