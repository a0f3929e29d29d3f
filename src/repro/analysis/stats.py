"""Observability: harvest counters from a Split-C cluster run.

Every device and protocol layer declares the counters it keeps
(:mod:`repro.telemetry`).  :func:`cluster_stats` collects them from the
cluster's parts — the network (its switches, media and routers, then
each host's NI, DMA engine, links and endpoints), the AM endpoints and
their peers, the Split-C runtimes and any NIC collective engines — into
one flat dict keyed by path, e.g. ``network/hosts/3/backend/endpoints/0/
recv_queue_drops`` or ``ams/3/peers/0/retransmissions``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Sequence

from ..telemetry import collect

__all__ = ["cluster_stats", "render_stats", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in 0..100): the
    smallest sample with at least ``q`` % of them at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def cluster_stats(cluster: Any) -> Dict[str, Any]:
    """A cluster run's shape, then every counter declared below it."""
    return {"nodes": cluster.n, "substrate": cluster.substrate,
            "elapsed_us": cluster.elapsed, **collect(cluster)}


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
