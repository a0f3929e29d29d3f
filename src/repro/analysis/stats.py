"""Observability: harvest counters from a running simulation.

Every device and protocol layer keeps plain counter attributes
(messages sent, drops, retransmissions, cells forwarded...).  This
module gathers them into one nested dict — handy for debugging
simulations, asserting invariants in tests, and reporting experiment
health (e.g. "were there drops during this bandwidth run?").
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["backend_stats", "am_stats", "cluster_stats", "network_stats", "render_stats"]


def backend_stats(backend: Any) -> Dict[str, Any]:
    """Counters of one U-Net backend (either substrate)."""
    stats: Dict[str, Any] = {"name": backend.name}
    for attr in (
        "pdus_sent",
        "pdus_received",
        "collective_cells_received",
        "crc_errors",
        "no_buffer_drops",
        "recv_queue_drops",
        "messages_sent",
        "messages_received",
        "ip_header_drops",
    ):
        if hasattr(backend, attr):
            stats[attr] = getattr(backend, attr)
    if hasattr(backend, "demux"):
        stats["unknown_tag_drops"] = backend.demux.unknown_tag_drops
    if hasattr(backend, "nic"):
        nic = backend.nic
        stats["nic"] = {
            "frames_sent": nic.frames_sent,
            "frames_received": nic.frames_received,
            "collective_frames_received": nic.collective_frames_received,
            "rx_overflow_drops": nic.rx_overflow_drops,
            "rx_crc_drops": nic.rx_crc_drops,
            "tx_collision_drops": nic.tx_collision_drops,
            "dma_bytes": nic.dma.bytes_transferred,
        }
    elif hasattr(backend, "dma"):
        stats["dma_bytes"] = backend.dma.bytes_transferred
    endpoints = getattr(backend, "endpoints", [])
    stats["endpoints"] = [
        {
            "id": ep.id,
            "messages_sent": ep.messages_sent,
            "messages_received": ep.messages_received,
            "bytes_sent": ep.bytes_sent,
            "bytes_received": ep.bytes_received,
            "receive_drops": ep.receive_drops,
        }
        for ep in endpoints
    ]
    return stats


def am_stats(am: Any) -> Dict[str, Any]:
    """Counters of one Active Messages endpoint."""
    peers = {
        node: {
            "retransmissions": peer.retransmissions,
            "duplicates": peer.duplicates,
            "unacked": len(peer.unacked),
            "timeouts": peer.timeouts,
            "fast_retransmits": peer.fast_retransmits,
            "rtt_samples": peer.rtt_samples,
            "srtt_us": round(peer.srtt, 2) if peer.srtt is not None else None,
            "rto_us": round(peer.rto_us, 2) if peer.srtt is not None else None,
            "cwnd": round(peer.cwnd, 2),
        }
        for node, peer in am._peers_by_node.items()
    }
    return {
        "node": am.node,
        "requests_sent": am.requests_sent,
        "replies_sent": am.replies_sent,
        "acks_sent": am.acks_sent,
        "requests_delivered": am.requests_delivered,
        "peers": peers,
    }


def network_stats(network: Any) -> Dict[str, Any]:
    """Counters of what stands between the hosts, as the network names
    it (:meth:`~repro.core.base.SimulatedNetwork.devices`)."""
    return {kind: [device.counters() for device in devices]
            for kind, devices in network.devices().items()}


def cluster_stats(cluster: Any) -> Dict[str, Any]:
    """Everything about a Split-C cluster run."""
    return {
        "nodes": cluster.n,
        "substrate": cluster.substrate,
        "elapsed_us": cluster.elapsed,
        "network": network_stats(cluster.network),
        "backends": [backend_stats(host.backend) for host in cluster.hosts],
        "am": [am_stats(am) for am in cluster.ams],
        "runtime_ops": [
            {
                "node": rt.node,
                "barriers": rt.barriers_entered,
                "syncs": rt.syncs_completed,
                "gets": rt.gets_issued,
                "puts": rt.puts_issued,
                "fetches": rt.fetches_issued,
            }
            for rt in cluster.runtimes
        ],
        "time_breakdown": cluster.time_breakdown(),
    }


def render_stats(stats: Dict[str, Any], indent: int = 0) -> str:
    """Human-readable nested rendering."""
    lines = []
    pad = "  " * indent
    for key, value in stats.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_stats(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: [{len(value)} entries]")
            for item in value:
                if isinstance(item, dict):
                    lines.append(render_stats(item, indent + 1))
                    lines.append(f"{'  ' * (indent + 1)}---")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line)
