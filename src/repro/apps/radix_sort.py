"""Parallel radix sort (the paper's ``rsort`` benchmark).

"The radix sort uses alternating phases of local sort and key
distribution involving irregular all-to-all communication.  The
algorithm performs a fixed number of passes over the keys ... first,
every processor computes a local histogram ...; second, a global
histogram is computed ... to determine the rank of each key in the
sorted array; and finally, every processor sends each of its local keys
to the appropriate processor based on the key's rank" (Section 5.1).

Two variants, as in the paper:

* **small-message** — "each processor transfers two keys at a time":
  every message carries two (key, position) pairs in the AM argument
  words, exercising the small-message path of both NIs;
* **large-message** — "each processor sends one message containing all
  relevant keys to every other processor": one bulk store per peer per
  pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..splitc.cluster import Cluster
from ..splitc.runtime import SplitCRuntime

__all__ = ["RadixConfig", "SortResult", "run_radix_sort", "verify_sorted"]

#: app-level AM handler: scatter (position, key) pairs into the dest array
H_RADIX_SCATTER = 0x40
#: sentinel marking an absent second pair in a small message
NO_KEY = 0xFFFFFFFF


@dataclass(frozen=True)
class RadixConfig:
    keys_per_node: int
    small_messages: bool
    radix_bits: int = 11
    seed: int = 7

    @property
    def passes(self) -> int:
        return -(-32 // self.radix_bits)

    @property
    def buckets(self) -> int:
        return 1 << self.radix_bits


@dataclass
class SortResult:
    elapsed_us: float
    per_node_cpu_us: List[float]
    per_node_net_us: List[float]
    nprocs: int
    keys_per_node: int

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_us / 1e6


def initial_keys(cfg: RadixConfig, node: int) -> np.ndarray:
    """Deterministic per-node key distribution ('arbitrary' in the paper)."""
    rng = np.random.RandomState(cfg.seed * 1000 + node)
    return rng.randint(0, 2**32, size=cfg.keys_per_node, dtype=np.uint32)


def compute_global_positions(
    digits: np.ndarray, per_node_hist: np.ndarray, node: int
) -> np.ndarray:
    """Global rank of each local key for one counting-sort pass.

    Keys are ordered by (bucket, owning node, local order) — the stable
    counting-sort invariant.  ``per_node_hist`` is the allgathered
    (nprocs x buckets) histogram matrix; ``digits`` are this node's
    bucket indices in local key order.  Returns one global position per
    local key; across all nodes the positions form a permutation of
    ``range(total_keys)``.
    """
    buckets = per_node_hist.shape[1]
    counts = per_node_hist.astype(np.int64)
    bucket_totals = counts.sum(axis=0)
    bucket_starts = np.zeros(buckets, dtype=np.int64)
    bucket_starts[1:] = np.cumsum(bucket_totals)[:-1]
    before_me = counts[:node].sum(axis=0) if node else np.zeros(buckets, dtype=np.int64)
    my_base = bucket_starts + before_me
    n = len(digits)
    order = np.argsort(digits, kind="stable")
    sorted_digits = digits[order]
    within = np.arange(n, dtype=np.int64) - np.searchsorted(sorted_digits, sorted_digits, side="left")
    positions = np.empty(n, dtype=np.int64)
    positions[order] = my_base[sorted_digits] + within
    return positions


def radix_program(cfg: RadixConfig):
    """SPMD program factory for one radix-sort run."""

    def program(rt: SplitCRuntime):
        n = rt.nprocs
        kpn = cfg.keys_per_node
        src = rt.all_spread_malloc("rx_src", kpn, np.uint32)
        dst = rt.all_spread_malloc("rx_dst", kpn, np.uint32)
        hist_all = rt.all_spread_malloc("rx_hist", cfg.buckets * n, np.uint64)
        src[:] = initial_keys(cfg, rt.node)

        def scatter_handler(ctx):
            if ctx.data:
                pairs = np.frombuffer(ctx.data, dtype=np.uint32).reshape(-1, 2)
                dst[pairs[:, 0]] = pairs[:, 1]
                count = len(pairs)
            else:
                k1, k2, p1, p2 = ctx.args
                dst[p1] = k1
                count = 1
                if p2 != NO_KEY:
                    dst[p2] = k2
                    count = 2
            return rt.compute(int_ops=rt.costs.scatter_ops_per_pair * count)

        rt.register_counted_handler(H_RADIX_SCATTER, scatter_handler)
        yield from rt.barrier()

        for p in range(cfg.passes):
            shift = p * cfg.radix_bits
            digits = ((src >> np.uint32(shift)) & np.uint32(cfg.buckets - 1)).astype(np.int64)
            local_hist = np.bincount(digits, minlength=cfg.buckets).astype(np.uint64)
            yield from rt.compute(int_ops=rt.costs.radix_pass_ops(kpn, cfg.buckets))
            # allgather per-node histograms (the 'global histogram' step);
            # a peer's slice may already be here, so nothing writes
            # rx_hist before the call (all_gather's contract)
            yield from rt.all_gather("rx_hist", local_hist)
            # rank computation: keys are globally ordered by (bucket,
            # node, local order) — the stable counting-sort invariant
            per_node = hist_all.reshape(n, cfg.buckets)
            positions = compute_global_positions(digits, per_node, rt.node)
            yield from rt.compute(int_ops=rt.costs.radix_rank_ops * kpn + 2 * cfg.buckets * n)
            # key distribution
            dest_nodes = positions // kpn
            dest_offsets = (positions % kpn).astype(np.uint32)
            for peer in range(n):
                mask = dest_nodes == peer
                if not mask.any():
                    continue
                keys_out = src[mask]
                offs_out = dest_offsets[mask]
                if peer == rt.node:
                    dst[offs_out] = keys_out
                    yield from rt.compute(int_ops=2 * len(keys_out))
                elif cfg.small_messages:
                    yield from _send_small(rt, peer, keys_out, offs_out)
                else:
                    pairs = np.empty((len(keys_out), 2), dtype=np.uint32)
                    pairs[:, 0] = offs_out
                    pairs[:, 1] = keys_out
                    yield from rt.counted_bulk(peer, H_RADIX_SCATTER, pairs.tobytes())
            yield from rt.all_store_sync()
            src[:] = dst
            yield from rt.barrier()
        return rt.node

    return program


def _send_small(rt: SplitCRuntime, peer: int, keys: np.ndarray, offsets: np.ndarray):
    """Two (key, position) pairs per message, in the header words."""
    count = len(keys)
    for i in range(0, count - 1, 2):
        args = (int(keys[i]), int(keys[i + 1]), int(offsets[i]), int(offsets[i + 1]))
        yield from rt.counted_request(peer, H_RADIX_SCATTER, args=args)
    if count % 2:
        args = (int(keys[-1]), 0, int(offsets[-1]), NO_KEY)
        yield from rt.counted_request(peer, H_RADIX_SCATTER, args=args)


def run_radix_sort(cluster: Cluster, cfg: RadixConfig) -> SortResult:
    start = cluster.sim.now
    cluster.run(radix_program(cfg))
    breakdown = cluster.time_breakdown()
    return SortResult(
        elapsed_us=cluster.sim.now - start,
        per_node_cpu_us=[b["cpu_us"] for b in breakdown],
        per_node_net_us=[b["net_us"] for b in breakdown],
        nprocs=cluster.n,
        keys_per_node=cfg.keys_per_node,
    )


def verify_sorted(cluster: Cluster, expected_multiset=None) -> bool:
    """Global sorted order + multiset preservation across node slices."""
    pieces = [rt.local("rx_src").copy() for rt in cluster.runtimes]
    merged = np.concatenate(pieces)
    if np.any(np.diff(merged.astype(np.int64)) < 0):
        return False
    if expected_multiset is not None:
        if not np.array_equal(np.sort(merged), np.sort(expected_multiset)):
            return False
    return True
