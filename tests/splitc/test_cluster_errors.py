"""Cluster error handling and runtime operation counters."""

import numpy as np
import pytest

from repro.analysis import cluster_stats
from repro.splitc import Cluster


def test_program_exception_propagates():
    cl = Cluster(2, substrate="fe-switch")

    def program(rt):
        yield from rt.barrier()
        if rt.node == 1:
            raise ValueError("node 1 crashed")
        return "ok"

    with pytest.raises(ValueError, match="node 1 crashed"):
        cl.run(program)


def test_run_limit_enforced():
    cl = Cluster(2, substrate="fe-switch")

    def program(rt):
        yield rt.sim.timeout(1e9)  # longer than the limit
        return "done"

    with pytest.raises(RuntimeError):
        cl.run(program, limit=1000.0)


def test_bad_node_count():
    with pytest.raises(ValueError):
        Cluster(0)


def test_runtime_operation_counters():
    cl = Cluster(3, substrate="fe-switch")

    def program(rt):
        arr = rt.all_spread_malloc("a", 8, np.uint32)
        yield from rt.barrier()
        peer = (rt.node + 1) % rt.nprocs
        yield from rt.get(peer, "a", 0)
        yield from rt.put(peer, "a", 0, np.array([1], dtype=np.uint32))
        yield from rt.bulk_get(peer, "a", 0, 4, "a", 4)
        yield from rt.all_store_sync()
        yield from rt.barrier()
        return rt.node

    cl.run(program)
    stats = cluster_stats(cl)
    for node in range(cl.n):
        assert stats[f"runtimes/{node}/barriers_entered"] == 2
        assert stats[f"runtimes/{node}/gets_issued"] == 1
        assert stats[f"runtimes/{node}/puts_issued"] == 1
        assert stats[f"runtimes/{node}/fetches_issued"] == 1
        assert stats[f"runtimes/{node}/syncs_completed"] == 1


def test_beowulf_substrate_runs_splitc():
    from repro.apps import RadixConfig, run_radix_sort, verify_sorted
    from repro.apps.radix_sort import initial_keys

    cfg = RadixConfig(keys_per_node=256, small_messages=False, radix_bits=8)
    cl = Cluster(3, substrate="fe-beowulf")
    run_radix_sort(cl, cfg)
    original = np.concatenate([initial_keys(cfg, i) for i in range(3)])
    assert verify_sorted(cl, expected_multiset=original)
    # frames really used both rails
    assert cl.network.medium_a.frames_carried > 0
    assert cl.network.medium_b.frames_carried > 0
