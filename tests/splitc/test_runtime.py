"""Integration tests for the Split-C runtime over simulated clusters."""

import numpy as np
import pytest

from repro.splitc import Cluster, SplitCError, atm_cluster_cpus, fe_cluster_cpus
from repro.hw import PENTIUM_90, PENTIUM_120, SPARCSTATION_10, SPARCSTATION_20


def test_fe_cluster_cpu_mix():
    cpus = fe_cluster_cpus(8)
    assert cpus[0] is PENTIUM_90
    assert all(c is PENTIUM_120 for c in cpus[1:])


def test_atm_cluster_cpu_mix():
    cpus = atm_cluster_cpus(8)
    assert cpus.count(SPARCSTATION_20) == 4
    assert cpus.count(SPARCSTATION_10) == 4


def test_unknown_substrate_rejected():
    with pytest.raises(ValueError):
        Cluster(2, substrate="token-ring")


@pytest.mark.parametrize("substrate", ["fe-hub", "fe-switch", "atm"])
def test_barrier_synchronizes(substrate):
    cl = Cluster(3, substrate=substrate)
    arrivals = []

    def program(rt):
        yield from rt.compute(us=100.0 * rt.node)  # staggered arrival
        yield from rt.barrier()
        arrivals.append((rt.node, rt.sim.now))
        return rt.node

    cl.run(program)
    times = [t for _n, t in arrivals]
    assert max(times) - min(times) < 150.0  # all released together-ish
    assert max(times) >= 200.0  # nobody released before the slowest arrived


def test_multiple_barriers_in_sequence():
    cl = Cluster(4, substrate="fe-switch")

    def program(rt):
        for _ in range(5):
            yield from rt.barrier()
        return "ok"

    assert cl.run(program) == ["ok"] * 4


def test_store_and_sync_visibility():
    cl = Cluster(4, substrate="atm")

    def program(rt):
        data = rt.all_spread_malloc("d", rt.nprocs, np.uint32)
        yield from rt.barrier()
        for peer in range(rt.nprocs):
            if peer != rt.node:
                yield from rt.store_array(peer, "d", rt.node, np.array([rt.node + 1], dtype=np.uint32))
            else:
                data[rt.node] = rt.node + 1
        yield from rt.all_store_sync()
        return list(map(int, data))

    results = cl.run(program)
    assert all(r == [1, 2, 3, 4] for r in results)


def test_repeated_sync_epochs():
    cl = Cluster(2, substrate="fe-switch")

    def program(rt):
        data = rt.all_spread_malloc("d", 4, np.uint32)
        yield from rt.barrier()
        peer = 1 - rt.node
        for epoch in range(3):
            yield from rt.store_array(peer, "d", 0, np.array([epoch + 10], dtype=np.uint32))
            yield from rt.all_store_sync()
            assert data[0] == epoch + 10
        return True

    assert cl.run(program) == [True, True]


def test_get_put_remote():
    cl = Cluster(2, substrate="fe-switch")

    def program(rt):
        arr = rt.all_spread_malloc("a", 8, np.uint32)
        arr[:] = np.arange(8, dtype=np.uint32) + 100 * (rt.node + 1)
        yield from rt.barrier()
        peer = 1 - rt.node
        values = []
        for i in (2, 3, 4):
            values.extend((yield from rt.get(peer, "a", i)))
        yield from rt.put(peer, "a", 0, np.array([9999], dtype=np.uint32))
        yield from rt.barrier()
        return (list(map(int, values)), int(arr[0]))

    results = cl.run(program)
    assert results[0] == ([202, 203, 204], 9999)
    assert results[1] == ([102, 103, 104], 9999)


def test_bulk_get_large_block():
    cl = Cluster(2, substrate="atm")
    nbytes = 9000

    def program(rt):
        src = rt.all_spread_malloc("src", nbytes, np.uint8)
        dst = rt.all_spread_malloc("dst", nbytes, np.uint8)
        src[:] = (np.arange(nbytes) + rt.node) % 251
        yield from rt.barrier()
        peer = 1 - rt.node
        yield from rt.bulk_get(peer, "src", 0, nbytes, "dst", 0)
        yield from rt.barrier()
        expected = (np.arange(nbytes) + peer) % 251
        return bool(np.array_equal(rt.local("dst"), expected))

    assert cl.run(program) == [True, True]


@pytest.mark.parametrize("substrate", ["fe-switch", "atm"])
def test_bulk_get_lands_at_its_destination_element(substrate):
    """A remote fetch into ``d[4:8]`` fills ``d[4:8]``: the owner's
    stores carry the fetch tag, and the requester adds the destination
    offset it recorded for that tag (the offsets on the wire count from
    the start of the fetched block)."""
    cl = Cluster(2, substrate=substrate)

    def program(rt):
        src = rt.all_spread_malloc("src", 4, np.float64)
        dst = rt.all_spread_malloc("d", 8, np.float64)
        src[:] = np.arange(4) + 10.0 * (rt.node + 1)
        dst[:] = -1.0
        yield from rt.barrier()
        if rt.node == 0:
            yield from rt.bulk_get(1, "src", 0, 4, "d", 4)
        yield from rt.barrier()
        return [float(x) for x in rt.local("d")]

    fetched, untouched = cl.run(program)
    assert fetched == [-1.0] * 4 + [20.0, 21.0, 22.0, 23.0]
    assert untouched == [-1.0] * 8


def test_all_reduce_sum():
    cl = Cluster(4, substrate="fe-switch")

    def program(rt):
        hist = rt.all_spread_malloc("h", 16, np.uint64)
        hist[:] = rt.node + 1
        yield from rt.barrier()
        yield from rt.all_reduce("h")
        return int(hist[7])

    assert cl.run(program) == [10, 10, 10, 10]  # 1+2+3+4


def test_broadcast_small():
    cl = Cluster(4, substrate="atm")

    def program(rt):
        arr = rt.all_spread_malloc("b", 3, np.uint32)
        if rt.node == 2:
            yield from rt.broadcast_small(2, "b", np.array([7, 8, 9], dtype=np.uint32))
        else:
            yield from rt.broadcast_small(2, "b")
        return list(map(int, arr))

    assert cl.run(program) == [[7, 8, 9]] * 4


def test_compute_accounting():
    cl = Cluster(2, substrate="fe-switch")

    def program(rt):
        yield from rt.compute(us=500.0)
        yield from rt.barrier()
        return rt.compute_time

    results = cl.run(program)
    assert all(r == pytest.approx(500.0) for r in results)
    breakdown = cl.time_breakdown()
    assert breakdown[0]["cpu_us"] == pytest.approx(500.0)
    assert breakdown[0]["net_us"] > 0


def test_counted_request_to_self_rejected():
    cl = Cluster(2, substrate="fe-switch")

    def program(rt):
        if rt.node == 0:
            with pytest.raises(SplitCError):
                yield from rt.counted_request(0, 0x50)
        yield from rt.barrier()
        return True

    assert cl.run(program) == [True, True]


def test_single_node_cluster_collectives_are_noops():
    cl = Cluster(1, substrate="fe-switch")

    def program(rt):
        arr = rt.all_spread_malloc("x", 4, np.uint64)
        arr[:] = 5
        yield from rt.barrier()
        yield from rt.all_store_sync()
        yield from rt.all_reduce("x")
        return int(arr[0])

    assert cl.run(program) == [5]


def test_all_gather():
    cl = Cluster(4, substrate="fe-switch")
    import numpy as np

    def program(rt):
        arr = rt.all_spread_malloc("g", 4 * 3, np.uint32)
        mine = np.array([rt.node * 10 + k for k in range(3)], dtype=np.uint32)
        yield from rt.barrier()
        yield from rt.all_gather("g", mine)
        return list(map(int, arr))

    expected = [0, 1, 2, 10, 11, 12, 20, 21, 22, 30, 31, 32]
    assert cl.run(program) == [expected] * 4


def test_all_gather_overflow_rejected():
    cl = Cluster(2, substrate="fe-switch")
    import numpy as np
    from repro.splitc import SplitCError

    def program(rt):
        rt.all_spread_malloc("g", 3, np.uint32)  # too small for 2x2
        yield from rt.barrier()
        try:
            yield from rt.all_gather("g", np.array([1, 2], dtype=np.uint32))
            return "no error"
        except SplitCError:
            return "rejected"

    assert cl.run(program) == ["rejected", "rejected"]


@pytest.mark.parametrize("op,expected", [("sum", 10), ("max", 4), ("min", 1)])
def test_all_reduce_ops(op, expected):
    cl = Cluster(4, substrate="fe-switch")

    def program(rt):
        arr = rt.all_spread_malloc("r", 8, np.uint64)
        arr[:] = rt.node + 1  # values 1..4
        yield from rt.barrier()
        yield from rt.all_reduce("r", op=op)
        return int(arr[3])

    assert cl.run(program) == [expected] * 4


def test_all_reduce_unknown_op_rejected():
    cl = Cluster(2, substrate="fe-switch")

    def program(rt):
        arr = rt.all_spread_malloc("r", 2, np.uint64)
        yield from rt.barrier()
        try:
            yield from rt.store_add(1 - rt.node, "r", 0, arr, op="xor")
            return "no error"
        except SplitCError:
            return "rejected"

    assert cl.run(program) == ["rejected", "rejected"]
