"""Analytic phase-time calculators.

Each communication phase is modelled as a pipeline across five stages
(sending host, sending NIC, wire, receiving NIC, receiving host); the
steady-state phase time is the per-node bottleneck stage total plus one
end-to-end latency of pipeline fill.  The host stage is shared between
sending and receiving (one CPU), as is the NIC (one i960).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .loggp import StageCosts

__all__ = ["PhaseTimes", "all_to_all_time", "gather_time", "broadcast_time",
           "barrier_time", "sequential_fetch_time", "fragment_messages"]


def fragment_messages(total_bytes: int, max_data: int) -> Tuple[int, int]:
    """(number of packets, bytes of last packet) for a bulk transfer."""
    if total_bytes <= 0:
        return (1, 0)
    n = math.ceil(total_bytes / max_data)
    last = total_bytes - (n - 1) * max_data
    return n, last


@dataclass
class PhaseTimes:
    """One phase's contribution: network time only (a node's compute is
    the projection's own term, Figure 7's other half)."""

    net_us: float


def _per_message_stage_costs(costs: StageCosts, m: int) -> Tuple[float, float, float]:
    """(host both directions, nic both directions, wire) for size ``m``."""
    return (costs.per_message_host(m), costs.per_message_nic(m), costs.wire(m))


def all_to_all_time(
    costs: StageCosts,
    n: int,
    messages_out_per_peer: float,
    message_size: int,
) -> PhaseTimes:
    """Balanced all-to-all: every node sends (and receives) the same
    message count; each node's time is its bottleneck stage."""
    if n <= 1 or messages_out_per_peer <= 0:
        return PhaseTimes(net_us=0.0)
    msgs = messages_out_per_peer * (n - 1)
    host, nic, wire = _per_message_stage_costs(costs, message_size)
    bottleneck = max(msgs * host, msgs * nic, msgs * wire)
    return PhaseTimes(net_us=bottleneck + costs.latency(message_size))


def gather_time(costs: StageCosts, n: int, bytes_per_node: int) -> PhaseTimes:
    """Every node bulk-stores a block to one root: the root's receive
    path is the bottleneck."""
    if n <= 1:
        return PhaseTimes(net_us=0.0)
    packets, _last = fragment_messages(bytes_per_node, costs.max_data)
    m = min(bytes_per_node, costs.max_data)
    inbound = (n - 1) * packets
    root_host = inbound * costs.host_recv(m)
    root_nic = inbound * costs.nic_rx(m)
    root_wire = inbound * costs.wire(m)
    sender = packets * (costs.host_send(m) + costs.nic_tx(m))
    return PhaseTimes(net_us=max(root_host, root_nic, root_wire, sender) + costs.latency(m))


def broadcast_time(costs: StageCosts, n: int, nbytes: int) -> PhaseTimes:
    """Root stores a block to every peer (linear broadcast, as the
    runtime implements it)."""
    if n <= 1:
        return PhaseTimes(net_us=0.0)
    packets, _ = fragment_messages(nbytes, costs.max_data)
    m = min(nbytes, costs.max_data)
    outbound = (n - 1) * packets
    root = outbound * max(costs.host_send(m), costs.nic_tx(m), costs.wire(m))
    return PhaseTimes(net_us=root + costs.latency(m) + costs.host_recv(m) + costs.nic_rx(m))


def barrier_time(costs: StageCosts, n: int) -> PhaseTimes:
    """Central-coordinator barrier: gather of arrivals + linear release."""
    if n <= 1:
        return PhaseTimes(net_us=0.0)
    arrive = (n - 1) * max(costs.host_recv(0), costs.nic_rx(0))
    release = (n - 1) * max(costs.host_send(0), costs.nic_tx(0))
    return PhaseTimes(net_us=arrive + release + 2 * costs.latency(0))


def sequential_fetch_time(costs: StageCosts, nbytes: int, remote_fraction: float = 1.0) -> PhaseTimes:
    """One blocking bulk_get of ``nbytes`` (the matmul block fetch).

    The request packet travels one way, then the owner streams the data
    back as a pipelined sequence of stores; the fetch completes one
    latency after the last fragment leaves.
    """
    packets, _ = fragment_messages(nbytes, costs.max_data)
    m = min(nbytes, costs.max_data)
    host, nic, wire = _per_message_stage_costs(costs, m)
    stream = packets * max(host, nic, wire)
    request = costs.latency(16)
    total = remote_fraction * (request + stream + costs.latency(m))
    return PhaseTimes(net_us=total)
