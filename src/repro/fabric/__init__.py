"""Scale-out fabric topologies: Clos/fat-tree builders for both substrates.

The paper's clusters sit behind one switch; this package grows them into
multi-stage fabrics.  :mod:`~repro.fabric.topology` declares the switch
graph and computes (parallel) shortest paths; the builders wire real
switch models along it:

* :class:`ClosAtmFabric` — leaf/spine ASX-200s, VCs programmed hop by
  hop network-wide, successive connections rotated across spines;
* :class:`ClosFeNetwork` — leaf/spine Fast Ethernet switches with a
  statically programmed flat MAC space;
* :class:`MixedFabric` — one of each, bridged by a dual-homed relay.

All three expose the ``add_host``/``connect`` surface
:class:`~repro.splitc.cluster.Cluster` expects, and are registered as
cluster substrates ``atm-clos``, ``fe-clos``, and ``mixed``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".topology": ("Topology", "linear_topology", "clos_topology"),
    ".atm_clos": ("ClosAtmFabric",),
    ".fe_clos": ("ClosFeNetwork",),
    ".mixed": ("MixedFabric",),
})
