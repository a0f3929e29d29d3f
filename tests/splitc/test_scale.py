"""Per-node state is sized by what a run touches, not by the node count.

Building ``Cluster(n, "atm-clos", collectives="nic")`` used to be
quadratic — three ``{peer: 0}`` tables of ``n - 1`` entries, 64 empty
demux shards and a Mersenne state per node: 1.9 s and 225 MB at 1 024
nodes (the demux has since become one dict).  Counts, not seconds: the
bytes ``tracemalloc`` sees and the
lengths of one node's containers.
"""

import tracemalloc

import numpy as np

from repro.splitc import Cluster

#: measured 50.8 MB (246 MB before the per-peer tables went sparse);
#: 60 KB a node leaves room for an allocator's mood, not for a table
#: that grows with ``n``
BUDGET_BYTES_1024 = 60 * 1024 * 1024


def _node_containers(cluster, node):
    runtime, am = cluster.runtimes[node], cluster.ams[node]
    demux = cluster.hosts[node].backend.demux
    return {
        "stores_sent": len(runtime._stores_sent),
        "stores_received": len(runtime._stores_received),
        "announce_balance": len(runtime._announce_balance),
        "demux_rows": len(demux),
        "demux_endpoints": len(demux._tags_by_endpoint),
        "am_peers": len(am._peers_by_node),
        "am_jitter_rng": am._rng is not None,
        "channels": len(cluster.endpoints[node].endpoint.channels),
    }


def test_a_1024_node_cluster_builds_within_its_memory_budget():
    tracemalloc.start()
    try:
        with Cluster(1024, "atm-clos", collectives="nic") as big:
            _current, peak = tracemalloc.get_traced_memory()
            containers = _node_containers(big, 517)
    finally:
        tracemalloc.stop()
    assert peak < BUDGET_BYTES_1024, f"{peak / 2**20:.1f} MB"
    with Cluster(32, "atm-clos", collectives="nic") as small:
        assert containers == _node_containers(small, 17)
    assert not any(containers.values())  # an idle node carries no per-peer entry at all


def test_tables_grow_with_the_peers_a_run_touches_and_only_those():
    cluster = Cluster(24, "atm-clos", collectives="nic")

    def program(runtime):
        runtime.heap.allocate("v", 4, np.int64)
        yield from runtime.barrier()
        if runtime.node == 3:
            yield from runtime.store_array(9, "v", 0, np.arange(4, dtype=np.int64))
        return dict(runtime._stores_sent)

    sent = cluster.run(program)
    assert sent[3] == {9: 1} and not any(sent[node] for node in range(24) if node != 3)
    assert _node_containers(cluster, 5)["am_peers"] == 0
    assert sorted(cluster.ams[3]._peers_by_node) == [9]
    assert sorted(cluster.ams[9]._peers_by_node) == [3]


def test_a_sync_completes_on_a_count_of_peers_still_owing_an_announce():
    """``_maybe_finish_sync`` looks at one counter, not at every peer: a
    peer that raced an epoch ahead keeps its surplus and owes nothing
    when the next epoch opens."""
    from types import SimpleNamespace

    with Cluster(3) as cluster:
        runtime = cluster.runtimes[0]

        def announce(src):
            runtime._h_announce(SimpleNamespace(args=(0,), src_node=src))

        def open_sync():
            runtime._sync_event = runtime.sim.event()
            runtime._maybe_finish_sync()
            return runtime._sync_event is None  # finished on the spot?

        assert runtime._announces_owed == 2
        announce(1)
        announce(1)  # peer 1 is already in its next epoch
        assert runtime._announces_owed == 1 and not open_sync()
        announce(2)
        assert runtime.syncs_completed == 1 and runtime._sync_event is None
        assert runtime._announce_balance == {1: 1, 2: 0} and runtime._announces_owed == 1
        assert not open_sync()  # epoch 2 waits for peer 2 alone
        announce(2)
        assert runtime.syncs_completed == 2 and runtime._announces_owed == 2
        assert not any(runtime._announce_balance.values())
