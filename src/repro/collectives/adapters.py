"""Bind the collective engine to real NIC hardware, on any substrate.

A substrate takes part through three things on its backend —
``register_collective`` (hand arriving collective packets to a handler,
inside the NIC), ``send_collective(address, packet)`` (NIC-originated
send, no host involved) and ``collective_max_payload`` — and one on its
network: ``collective_edge(backend_a, backend_b, on_a, on_b)``, which
sets up whatever an edge needs and returns the address each end sends
to.  On ATM that is a fabric-routed VC pair whose VCIs the PCA-200's
i960 consumes in firmware instead of demultiplexing them to an
endpoint; on Fast Ethernet it is the peer's MAC, with the frames riding
the reserved U-Net port :data:`~repro.ethernet.frames.COLLECTIVE_PORT`
into the (hypothetical) on-controller engine of the DC21140.

``wire_collectives`` builds one engine per host over a shared k-ary
tree and returns them in node order.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .engine import NicCollectiveEngine
from .membership import CollectiveGroup
from .tree import KAryTree

__all__ = ["CollectiveAdapter", "wire_collectives"]


class CollectiveAdapter:
    """What an engine sends through: one backend, its wired peers."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.max_payload = backend.collective_max_payload
        #: peer node -> the address (VCI, MAC) that reaches it
        self.address: Dict[int, object] = {}

    def send(self, peer: int, packet: bytes) -> None:
        self.backend.send_collective(self.address[peer], packet)


def wire_collectives(
    network,
    hosts: Sequence,
    fanout: int = 4,
    healing: bool = False,
):
    """One engine per host; each tree edge is one ``collective_edge``.

    With ``healing=True`` returns ``(engines, group)``: a
    :class:`~repro.collectives.membership.CollectiveGroup` owns the
    engines, fed by the network's reachability and by the same lazy
    ``wire_edge`` that did the first wiring, so an edge a heal creates
    is set up when the healed tree first needs it.
    """
    tree = KAryTree(len(hosts), fanout=fanout)
    sim = network.sim
    adapters = [CollectiveAdapter(host.backend) for host in hosts]
    engines = [
        NicCollectiveEngine(sim, node, tree, adapters[node])
        for node in range(len(hosts))
    ]

    def wire_edge(i: int, j: int) -> None:
        if j in adapters[i].address:
            return
        adapters[i].address[j], adapters[j].address[i] = network.collective_edge(
            hosts[i].backend, hosts[j].backend, engines[i].on_packet, engines[j].on_packet)

    for child in range(1, len(hosts)):
        wire_edge(tree.parent(child), child)
    if not healing:
        return engines
    # a single-switch network tracks no reachability: nothing can partition
    probe = getattr(network, "backends_reachable", None)
    reachable = None if probe is None else (
        lambda i, j: probe(hosts[i].backend, hosts[j].backend))
    return engines, CollectiveGroup(sim, engines, wire_edge=wire_edge, reachable=reachable)
