"""The collectives="host" | "nic" ablation and lazy channel establishment."""

import numpy as np
import pytest

from repro.networks import clos_shape
from repro.splitc.cluster import Cluster


def _program(runtime):
    values = runtime.heap.allocate("v", 2, np.int64)
    yield from runtime.barrier()
    values[:] = runtime.node + 1
    yield from runtime.all_reduce("v", op="sum")
    spread = runtime.heap.allocate("b", 4, np.uint8)
    yield from runtime.broadcast_small(0, "b", np.arange(4, dtype=np.uint8)
                                       if runtime.node == 0 else None)
    yield from runtime.barrier()
    return int(values[0]), bytes(spread.tobytes())


@pytest.mark.parametrize("substrate", ["fe-switch", "fe-clos", "atm", "atm-clos"])
@pytest.mark.parametrize("mode", ["host", "nic"])
def test_collective_results_agree_across_modes(substrate, mode):
    n = 6
    cluster = Cluster(n, substrate=substrate, collectives=mode)
    results = cluster.run(_program)
    expected_sum = n * (n + 1) // 2
    for total, spread in results:
        assert total == expected_sum
        assert spread == bytes(range(4))
    if mode == "nic":
        assert len(cluster.collective_engines) == n
        assert all(engine.barriers_completed >= 2
                   for engine in cluster.collective_engines)


def test_nic_mode_needs_no_am_channels_for_pure_collectives():
    """The whole point at scale: a barrier/reduce program touches zero
    AM channels, so the O(N^2) mesh never materializes."""
    cluster = Cluster(8, substrate="atm-clos", collectives="nic")

    def program(runtime):
        values = runtime.heap.allocate("v", 1, np.int64)
        values[:] = 1
        yield from runtime.barrier()
        yield from runtime.all_reduce("v", op="sum")

    cluster.run(program)
    assert len(cluster._connected_pairs) == 0
    # host mode, same program: node 0 incast plus the announce mesh
    host_cluster = Cluster(8, substrate="atm-clos", collectives="host")
    host_cluster.run(program)
    assert len(host_cluster._connected_pairs) == 8 * 7 // 2


def test_lazy_channels_only_connect_used_pairs():
    cluster = Cluster(6, substrate="fe-switch")

    def program(runtime):
        runtime.heap.allocate("v", 8, np.int64)
        if runtime.node == 1:
            yield from runtime.store_array(3, "v", 0,
                                           np.arange(8, dtype=np.int64))
        yield from runtime.all_store_sync()

    cluster.run(program)
    # all_store_sync announces to every peer, so the mesh fills; the
    # point of laziness is *when*: nothing is connected up front
    assert len(cluster._connected_pairs) == 15
    with Cluster(6, substrate="fe-switch") as lazy:
        assert len(lazy._connected_pairs) == 0


def test_nic_collectives_rejected_on_unsupported_substrates():
    with pytest.raises(ValueError):
        Cluster(4, substrate="mixed", collectives="nic")
    with pytest.raises(ValueError):
        Cluster(4, substrate="fe-beowulf", collectives="nic")
    with pytest.raises(ValueError):
        Cluster(4, collectives="telepathy")


def test_clos_shape_scales_sensibly():
    leaves, spines, per_leaf = clos_shape(256)
    assert leaves * per_leaf >= 256
    assert leaves == 16 and spines == 8
    leaves, spines, per_leaf = clos_shape(8)
    assert leaves >= 2 and spines >= 2
    assert leaves * per_leaf >= 8


def test_nic_all_reduce_falls_back_for_oversize_arrays():
    """Arrays past the engine's packet cap ride the host path — and the
    fallback condition is SPMD-symmetric, so nobody deadlocks."""
    cluster = Cluster(4, substrate="atm", collectives="nic")
    length = 1024  # 8 KB of int64 > the 4 KB ATM collective packet cap

    def program(runtime):
        values = runtime.heap.allocate("v", length, np.int64)
        values[:] = runtime.node
        yield from runtime.all_reduce("v", op="sum")
        return int(values[0])

    results = cluster.run(program)
    assert results == [0 + 1 + 2 + 3] * 4
    assert all(engine.reduces_completed == 0
               for engine in cluster.collective_engines)
