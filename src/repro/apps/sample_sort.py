"""Parallel sample sort (the paper's ``ssort`` benchmark).

"Instead of alternating computation and communication phases, the
sample sort algorithm uses a single key distribution phase.  The
algorithm selects a fixed number of samples from keys on each node,
sorts all samples from all nodes on a single processor, and selects
splitters ... The splitters are broadcast to all nodes.  The main
communication phase consists of sending each key to the appropriate
node based on splitter values.  Finally, each node sorts its values
locally" (Section 5.1).

Small-message variant sends two keys per message; the large-message
variant transmits a single bulk message per destination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..splitc.cluster import Cluster
from ..splitc.runtime import SplitCRuntime
from .radix_sort import NO_KEY
from .runner import AppResult, run_checked, sorted_permutation

__all__ = ["SampleConfig", "run_sample_sort"]

#: app-level AM handler: append keys to the destination's receive area
H_SS_APPEND = 0x41

#: receive head-room factor over the expected keys_per_node (sample sort
#: balances only approximately)
RECV_SLACK = 3
#: splitter candidates each node contributes
OVERSAMPLING = 32


@dataclass(frozen=True)
class SampleConfig:
    keys_per_node: int
    small_messages: bool


def initial_keys(cfg: SampleConfig, node: int) -> np.ndarray:
    rng = np.random.RandomState(11 * 1000 + node)  # one fixed input per node
    return rng.randint(0, 2**32, size=cfg.keys_per_node, dtype=np.uint32)


def sample_program(cfg: SampleConfig):
    """SPMD program factory for one sample-sort run."""

    def program(rt: SplitCRuntime):
        n = rt.nprocs
        kpn = cfg.keys_per_node
        samples_per_node = min(OVERSAMPLING, kpn)
        keys = rt.all_spread_malloc("ss_keys", kpn, np.uint32)
        recv = rt.all_spread_malloc("ss_recv", max(16, RECV_SLACK * kpn), np.uint32)
        count_arr = rt.all_spread_malloc("ss_count", 1, np.int64)
        samples = rt.all_spread_malloc("ss_samples", samples_per_node * n, np.uint32)
        splitters = rt.all_spread_malloc("ss_split", max(1, n - 1), np.uint32)
        keys[:] = initial_keys(cfg, rt.node)

        def append_handler(ctx):
            if ctx.data:
                incoming = np.frombuffer(ctx.data, dtype=np.uint32)
            else:
                k1, k2, _a2, a3 = ctx.args
                incoming = np.array([k1] if a3 == NO_KEY else [k1, k2], dtype=np.uint32)
            cursor = int(count_arr[0])
            if cursor + len(incoming) > len(recv):
                raise RuntimeError(f"node {rt.node}: sample-sort receive area overflow")
            recv[cursor : cursor + len(incoming)] = incoming
            count_arr[0] = cursor + len(incoming)

        rt.register_counted_handler(H_SS_APPEND, append_handler)
        count_arr[0] = 0
        yield from rt.barrier()

        # phase 1: sample selection, gathered on node 0
        stride = max(1, kpn // samples_per_node)
        my_samples = keys[::stride][:samples_per_node].copy()
        yield from rt.compute(int_ops=rt.costs.sample_select_ops * samples_per_node)
        if rt.node == 0:
            samples[:samples_per_node] = my_samples
        else:
            yield from rt.store_array(0, "ss_samples", rt.node * samples_per_node, my_samples)
        yield from rt.all_store_sync()

        # phase 2: node 0 sorts the samples and broadcasts the splitters
        if rt.node == 0:
            all_samples = np.sort(samples[: samples_per_node * n])
            yield from rt.compute(int_ops=rt.costs.local_sort_ops(len(all_samples)))
            step = max(1, len(all_samples) // n)
            chosen = all_samples[step::step][: n - 1]
            if len(chosen) < n - 1:  # degenerate tiny inputs
                chosen = np.pad(chosen, (0, n - 1 - len(chosen)), constant_values=2**32 - 1)
            yield from rt.broadcast_small(0, "ss_split", chosen.astype(np.uint32))
        else:
            yield from rt.broadcast_small(0, "ss_split")

        # phase 3: the single key-distribution phase
        dest = np.searchsorted(splitters[: n - 1], keys, side="right")
        yield from rt.compute(int_ops=rt.costs.partition_ops(kpn, n - 1))
        for peer in range(n):
            to_peer = keys[dest == peer]
            if peer == rt.node:
                cursor = int(count_arr[0])
                recv[cursor : cursor + len(to_peer)] = to_peer
                count_arr[0] = cursor + len(to_peer)
                yield from rt.compute(us=rt.cpu.copy_time(4 * len(to_peer)))
            elif len(to_peer) == 0:
                continue
            elif cfg.small_messages:
                for i in range(0, len(to_peer) - 1, 2):
                    args = (int(to_peer[i]), int(to_peer[i + 1]), 0, 0)
                    yield from rt.counted_request(peer, H_SS_APPEND, args=args)
                if len(to_peer) % 2:
                    yield from rt.counted_request(
                        peer, H_SS_APPEND, args=(int(to_peer[-1]), 0, 0, NO_KEY)
                    )
            else:
                yield from rt.counted_bulk(peer, H_SS_APPEND, to_peer.tobytes(), record_bytes=4)
        yield from rt.all_store_sync()

        # phase 4: local sort of everything received
        received = int(count_arr[0])
        recv[:received] = np.sort(recv[:received])
        yield from rt.compute(int_ops=rt.costs.local_sort_ops(received))
        yield from rt.barrier()
        return received

    return program


def run_sample_sort(cluster: Cluster, cfg: SampleConfig) -> AppResult:
    return run_checked(cluster, sample_program(cfg),
                       lambda cluster: _verify_sample_sorted(cluster, cfg),
                       "the input keys in sorted order")


def _verify_sample_sorted(cluster: Cluster, cfg: SampleConfig) -> bool:
    """Check the distributed result is a sorted permutation of the input."""
    merged = np.concatenate([rt.local("ss_recv")[: int(rt.local("ss_count")[0])]
                             for rt in cluster.runtimes])
    return sorted_permutation(
        merged, np.concatenate([initial_keys(cfg, i) for i in range(cluster.n)]))
