"""Full-scale analytic projections of the Split-C benchmarks (Table 1).

Simulating 512K keys/node event-by-event is intractable in pure Python
(the small-message radix sort alone exchanges ~6M packets), so Table 1
is produced by the phase model: the same algorithm structure as
``repro.apps``, the same kernel cost constants, and stage costs derived
from the same calibrated device constants as the simulator.  An
ablation benchmark validates the model against full-DES runs at small
key counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..apps.matmul import MatmulConfig
from ..apps.radix_sort import RadixConfig
from ..apps.sample_sort import OVERSAMPLING, SampleConfig
from ..hw.cpu import CpuModel
from ..splitc.costs import DEFAULT_COSTS
from .loggp import StageCosts
from .phases import (
    all_to_all_time,
    barrier_time,
    broadcast_time,
    fragment_messages,
    gather_time,
    sequential_fetch_time,
)

__all__ = ["Projection", "project_radix", "project_sample", "project_matmul"]

#: bytes per (position, key) record in large-message sort exchanges
PAIR_BYTES = 8
#: mild receive imbalance of splitter-based partitioning
SAMPLE_IMBALANCE = 1.12


@dataclass
class Projection:
    """Projected execution of one benchmark on one cluster."""

    benchmark: str
    nprocs: int
    substrate: str
    cpu_us: float
    net_us: float

    @property
    def total_us(self) -> float:
        return self.cpu_us + self.net_us

    @property
    def total_s(self) -> float:
        return self.total_us / 1e6


def _max_int_time(cpus: Sequence[CpuModel], ops: float) -> float:
    return max(cpu.int_op_time(ops) for cpu in cpus)


def _max_flop_time(cpus: Sequence[CpuModel], flops: float) -> float:
    return max(cpu.flop_time(flops) for cpu in cpus)


def _max_copy_time(cpus: Sequence[CpuModel], nbytes: int) -> float:
    return max(cpu.copy_time(nbytes) for cpu in cpus)


def project_radix(
    cfg: RadixConfig,
    n: int,
    costs_net: StageCosts,
    cpus: Sequence[CpuModel],
    substrate: str = "",
) -> Projection:
    """Analytic time for one radix-sort run."""
    kpn = cfg.keys_per_node
    buckets = cfg.buckets
    cpu_us = 0.0
    net_us = 0.0
    for _pass in range(cfg.passes):
        # local histogram + rank computation
        cpu_us += _max_int_time(cpus, DEFAULT_COSTS.radix_pass_ops(kpn, buckets))
        cpu_us += _max_int_time(cpus, DEFAULT_COSTS.radix_rank_ops * kpn + 2 * buckets * n)
        # histogram allgather: each node stores its histogram to each peer
        hist_bytes = buckets * 8
        packets, _ = fragment_messages(hist_bytes, costs_net.max_data)
        net_us += all_to_all_time(costs_net, n, packets, min(hist_bytes, costs_net.max_data)).net_us
        # key distribution: (n-1)/n of the keys leave the node
        remote_keys = kpn * (n - 1) / n
        if cfg.small_messages:
            msgs_per_peer = math.ceil(remote_keys / 2) / max(1, n - 1)
            net_us += all_to_all_time(costs_net, n, msgs_per_peer, 0).net_us
        else:
            bytes_per_peer = int(remote_keys * PAIR_BYTES / max(1, n - 1))
            packets, _ = fragment_messages(bytes_per_peer, costs_net.max_data)
            net_us += all_to_all_time(
                costs_net, n, packets, min(bytes_per_peer, costs_net.max_data)
            ).net_us
        # receiver-side indexed scatter of the incoming (pos, key) pairs
        cpu_us += _max_int_time(cpus, DEFAULT_COSTS.scatter_ops_per_pair * remote_keys)
        # self keys move by memcpy
        cpu_us += _max_int_time(cpus, 2 * kpn / n)
        # store sync + barrier + dst->src copy
        net_us += all_to_all_time(costs_net, n, 1, 0).net_us
        net_us += barrier_time(costs_net, n).net_us
        cpu_us += _max_copy_time(cpus, kpn * 4)
    name = "rsortsm" if cfg.small_messages else "rsortlg"
    return Projection(name, n, substrate, cpu_us, net_us)


def project_sample(
    cfg: SampleConfig,
    n: int,
    costs_net: StageCosts,
    cpus: Sequence[CpuModel],
    substrate: str = "",
) -> Projection:
    """Analytic time for one sample-sort run."""
    kpn = cfg.keys_per_node
    s = min(OVERSAMPLING, kpn)
    cpu_us = 0.0
    net_us = 0.0
    # sampling and gather on node 0
    cpu_us += _max_int_time(cpus, DEFAULT_COSTS.sample_select_ops * s)
    net_us += gather_time(costs_net, n, s * 4).net_us
    # splitter selection on node 0 (node 0's own CPU)
    cpu_us += cpus[0].int_op_time(DEFAULT_COSTS.local_sort_ops(s * n))
    net_us += broadcast_time(costs_net, n, max(1, (n - 1) * 4)).net_us
    net_us += barrier_time(costs_net, n).net_us
    # partition
    cpu_us += _max_int_time(cpus, DEFAULT_COSTS.partition_ops(kpn, n - 1))
    # single key-distribution phase
    remote_keys = kpn * (n - 1) / n
    if cfg.small_messages:
        msgs_per_peer = math.ceil(remote_keys / 2) / max(1, n - 1)
        net_us += all_to_all_time(costs_net, n, msgs_per_peer, 0).net_us
    else:
        bytes_per_peer = int(remote_keys * 4 / max(1, n - 1))
        packets, _ = fragment_messages(bytes_per_peer, costs_net.max_data)
        net_us += all_to_all_time(
            costs_net, n, packets, min(bytes_per_peer, costs_net.max_data)
        ).net_us
        cpu_us += _max_copy_time(cpus, int(remote_keys * 4))
    cpu_us += _max_copy_time(cpus, int(kpn / n) * 4)
    net_us += all_to_all_time(costs_net, n, 1, 0).net_us
    # final local sort, with receive imbalance
    cpu_us += _max_int_time(cpus, DEFAULT_COSTS.local_sort_ops(int(kpn * SAMPLE_IMBALANCE)))
    net_us += barrier_time(costs_net, n).net_us
    name = "ssortsm" if cfg.small_messages else "ssortlg"
    return Projection(name, n, substrate, cpu_us, net_us)


def project_matmul(
    cfg: MatmulConfig,
    n: int,
    costs_net: StageCosts,
    cpus: Sequence[CpuModel],
    substrate: str = "",
) -> Projection:
    """Analytic time for one blocked matrix multiply."""
    b = cfg.block_size
    total_blocks = cfg.blocks * cfg.blocks
    owned_max = math.ceil(total_blocks / n)
    block_bytes = b * b * 8
    remote_fraction = (n - 1) / n
    fetch = sequential_fetch_time(costs_net, block_bytes, remote_fraction=1.0)
    # a fraction of fetches are local memcpys instead
    local_copy = _max_copy_time(cpus, block_bytes)
    per_step_net = 2 * (remote_fraction * fetch.net_us)
    per_step_cpu_copy = 2 * (1 - remote_fraction) * local_copy
    flops = DEFAULT_COSTS.matmul_flops(b, b, b)
    steps = owned_max * cfg.blocks
    cpu_us = steps * (_max_flop_time(cpus, flops) + per_step_cpu_copy)
    net_us = steps * per_step_net + barrier_time(costs_net, n).net_us
    name = f"mm{b}x{b}"
    return Projection(name, n, substrate, cpu_us, net_us)
