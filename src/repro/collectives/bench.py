"""Collective-latency sweep: host node-0 scheme vs NIC-resident trees.

The ablation behind the scale-out story: the same SPMD program runs a
barrier phase and an all-reduce phase on fat-tree clusters of 8 to 256
nodes, once with Split-C's host-coordinated collectives (every node
talks to node 0) and once with the NIC-resident k-ary trees.  All
latencies are *simulated* time and the ``engine`` section records only
the exact event count of each grid point, so the snapshot is
deterministic and CI gates it with ``diff``.  How fast the event kernel
chews through the sweep is wall-clock: the CLI prints it, perfbench's
``clos-collectives`` workload records it (``sim.events_per_s``), and no
artifact carries it.

Two cells of the grid are impossible by construction, and the bench
records *why* instead of silently shrinking the sweep:

* Fast Ethernet host mode at 256 nodes — the one-byte U-Net port ID
  (Section 4.3) cannot hold the 255-channel mesh that node-0
  coordination builds, so the run dies allocating ports.  A protocol
  limit, not a simulator one.
* host-mode reduce above 32 nodes — ``all_store_sync`` announces to
  every peer, so one reduction costs O(N^2) packets (a 256-node
  iteration is ~9M simulated events).  The point of the NIC trees is
  that this storm disappears; the bench documents the cliff at small N
  and does not burn minutes proving the same asymptote at large N.

The output is one JSON document (``BENCH_collectives.json``), described
and schema-checked by :data:`ARTIFACT`; ``bench --compare`` explains a
``diff`` failure headline by headline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import networks
from ..artifact import Artifact, Headline

__all__ = [
    "ARTIFACT",
    "NODE_COUNTS",
    "SUBSTRATES",
    "MODES",
    "run_collectives_bench",
    "render_collectives_bench",
]

NODE_COUNTS = (8, 32, 128, 256)
SUBSTRATES = ("atm-clos", "fe-clos")
MODES = ("host", "nic")

BARRIER_ITERS = 100
REDUCE_ITERS = 100
#: host-mode reduce is O(N^2) per iteration; fewer samples suffice
HOST_REDUCE_ITERS = 20
HOST_REDUCE_MAX_NODES = 32

_PORT_REASON = ("one-byte U-Net port IDs cannot hold the node-0 mesh "
                "(needs n-1 channels per node)")
_STORM_REASON = ("host reduce rides all_store_sync, O(N^2) announces per "
                 "iteration; measured up to 32 nodes only")


def point_support(substrate: str, mode: str, nodes: int, op: str) -> Tuple[bool, str]:
    """Whether a grid cell can run, and the reason when it cannot."""
    if mode == "host":
        limit = networks.get(substrate).ni.mesh_limit
        if limit is not None and nodes - 1 >= limit:
            return False, _PORT_REASON
        if op == "reduce" and nodes > HOST_REDUCE_MAX_NODES:
            return False, _STORM_REASON
    return True, ""


def _sweep_program(nodes: int, barrier_iters: int, reduce_iters: int) -> Callable:
    """SPMD measurement kernel; node 0's return value is the record."""
    expected = nodes * (nodes + 1) // 2

    def program(runtime):
        values = runtime.heap.allocate("v", 4, np.int64)
        # warm-up: brings lazy channels / collective trees into steady state
        yield from runtime.barrier()
        t0 = runtime.sim.now
        for _ in range(barrier_iters):
            yield from runtime.barrier()
        t1 = runtime.sim.now
        for _ in range(reduce_iters):
            values[:] = runtime.node + 1
            yield from runtime.all_reduce("v", op="sum")
        t2 = runtime.sim.now
        if reduce_iters and int(values[0]) != expected:
            raise AssertionError(
                f"node {runtime.node}: reduce produced {int(values[0])}, "
                f"expected {expected}")
        return {
            "barrier_us": (t1 - t0) / barrier_iters,
            "reduce_us": (t2 - t1) / reduce_iters if reduce_iters else None,
        }

    return program


def _run_point(substrate: str, mode: str, nodes: int,
               barrier_iters: int, reduce_iters: int) -> Dict:
    from ..splitc.cluster import Cluster

    cluster = Cluster(nodes, substrate=substrate, collectives=mode)
    results = cluster.run(_sweep_program(nodes, barrier_iters, reduce_iters),
                          limit=5e9)
    return {
        "barrier_us": results[0]["barrier_us"],
        "reduce_us": results[0]["reduce_us"],
        "sim_events": cluster.sim.events_processed,
    }


def run_collectives_bench(node_counts: Sequence[int] = NODE_COUNTS,
                          barrier_iters: int = BARRIER_ITERS,
                          reduce_iters: int = REDUCE_ITERS,
                          progress: Optional[Callable[[str], None]] = None,
                          ) -> Dict:
    """Run the sweep and assemble the ``BENCH_collectives.json`` payload."""
    say = progress or (lambda message: None)
    points: List[Dict] = []
    skipped: List[Dict] = []
    engine: List[Dict] = []
    for substrate in SUBSTRATES:
        for nodes in node_counts:
            for mode in MODES:
                barrier_ok, why = point_support(substrate, mode, nodes, "barrier")
                if not barrier_ok:
                    skipped.append({"substrate": substrate, "mode": mode,
                                    "nodes": nodes, "op": "barrier", "reason": why})
                    skipped.append({"substrate": substrate, "mode": mode,
                                    "nodes": nodes, "op": "reduce", "reason": why})
                    say(f"{substrate} n={nodes} {mode}: skipped ({why})")
                    continue
                reduce_ok, why = point_support(substrate, mode, nodes, "reduce")
                r_iters = (0 if not reduce_ok
                           else HOST_REDUCE_ITERS if mode == "host"
                           else reduce_iters)
                if not reduce_ok:
                    skipped.append({"substrate": substrate, "mode": mode,
                                    "nodes": nodes, "op": "reduce", "reason": why})
                record = _run_point(substrate, mode, nodes, barrier_iters, r_iters)
                points.append({"substrate": substrate, "mode": mode,
                               "nodes": nodes, "op": "barrier",
                               "iterations": barrier_iters,
                               "mean_us": record["barrier_us"]})
                if record["reduce_us"] is not None:
                    points.append({"substrate": substrate, "mode": mode,
                                   "nodes": nodes, "op": "reduce",
                                   "iterations": r_iters,
                                   "mean_us": record["reduce_us"]})
                engine.append({"substrate": substrate, "mode": mode,
                               "nodes": nodes,
                               "sim_events": record["sim_events"]})
                say(f"{substrate} n={nodes} {mode}: "
                    f"barrier {record['barrier_us']:.1f}us"
                    + (f", reduce {record['reduce_us']:.1f}us"
                       if record["reduce_us"] is not None else "")
                    + f" ({record['sim_events']:,} events)")
    speedups = _speedups(points)
    return {
        "format": ARTIFACT.format,
        "node_counts": list(node_counts),
        "substrates": list(SUBSTRATES),
        "points": points,
        "skipped": skipped,
        "speedups": speedups,
        "engine": engine,
    }


def _speedups(points: List[Dict]) -> List[Dict]:
    """host/nic latency ratio wherever both modes measured a cell."""
    index = {(p["substrate"], p["mode"], p["nodes"], p["op"]): p["mean_us"]
             for p in points}
    out: List[Dict] = []
    for (substrate, mode, nodes, op), host_us in sorted(index.items()):
        if mode != "host":
            continue
        nic_us = index.get((substrate, "nic", nodes, op))
        if nic_us is None:
            continue
        out.append({"substrate": substrate, "nodes": nodes, "op": op,
                    "host_us": host_us, "nic_us": nic_us,
                    "speedup": host_us / nic_us})
    return out


# ---------------------------------------------------------------- validation
_POINT = {"substrate": str, "mode": str, "nodes": int, "op": str,
          "iterations": int, "mean_us": float}
_SKIP = {"substrate": str, "mode": str, "nodes": int, "op": str, "reason": str}
_SPEEDUP = {"substrate": str, "nodes": int, "op": str,
            "host_us": float, "nic_us": float, "speedup": float}
_ENGINE = {"substrate": str, "mode": str, "nodes": int, "sim_events": int}


def _headlines(payload: Dict) -> List[Headline]:
    """Every measured latency cell, plus the host/nic speedup ratios."""
    return (
        [(f"{p['op']}[{p['substrate']},{p['mode']},n{p['nodes']}].mean_us",
          "lower", p["mean_us"]) for p in payload["points"]]
        + [(f"speedup[{s['substrate']},n{s['nodes']}].{s['op']}", "higher",
            s["speedup"]) for s in payload["speedups"]])


#: ``BENCH_collectives.json``: every value is simulated time or an exact
#: count — no wall-clock field — so CI regenerates it and gates it with
#: ``diff`` like the other simulated artifacts
ARTIFACT = Artifact(
    format="repro-bench-collectives/2",
    schema={
        "node_counts": [int],
        "substrates": [str],
        "points": [_POINT],
        "skipped": [_SKIP],
        "speedups": [_SPEEDUP],
        "engine": [_ENGINE],
    },
    headlines=_headlines,
    non_empty=("points",),
)


def render_collectives_bench(payload: Dict) -> str:
    """Terminal summary: latency grid, speedups, unsupported cells."""
    from ..analysis.report import format_table

    index = {(p["substrate"], p["mode"], p["nodes"], p["op"]): p["mean_us"]
             for p in payload["points"]}
    skipped = {(s["substrate"], s["mode"], s["nodes"], s["op"])
               for s in payload["skipped"]}
    rows = []
    for substrate in payload["substrates"]:
        for nodes in payload["node_counts"]:
            row = [substrate, str(nodes)]
            for op in ("barrier", "reduce"):
                for mode in MODES:
                    key = (substrate, mode, nodes, op)
                    if key in index:
                        row.append(f"{index[key]:.1f}")
                    else:
                        row.append("--" if key in skipped else "")
            rows.append(row)
    lines = [format_table(
        ("substrate", "nodes", "barrier host", "barrier nic",
         "reduce host", "reduce nic"),
        rows,
        title="Collective latency, mean us per op (-- = unsupported)")]
    for entry in payload["speedups"]:
        lines.append(f"  {entry['op']}[{entry['substrate']},n{entry['nodes']}]: "
                     f"nic is {entry['speedup']:.2f}x the host scheme "
                     f"({entry['host_us']:.1f} -> {entry['nic_us']:.1f} us)")
    reasons = {s["reason"] for s in payload["skipped"]}
    for reason in sorted(reasons):
        lines.append(f"  unsupported cells: {reason}")
    return "\n".join(lines)
