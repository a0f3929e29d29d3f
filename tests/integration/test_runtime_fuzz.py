"""Property-based fuzz of the Split-C runtime: random op sequences must
complete (no deadlock) and leave memory consistent."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.splitc import Cluster

ARRAY = 64  # elements of the shared scratch array per node

# one op: (kind, target-offset-seed, value-seed)
_op = st.tuples(
    st.sampled_from(["put", "get", "store", "bulk", "barrier", "sync", "compute"]),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
)


@given(
    nodes=st.integers(2, 4),
    script=st.lists(_op, min_size=3, max_size=14),
    substrate=st.sampled_from(["fe-switch", "atm"]),
)
@settings(max_examples=15, deadline=None)
def test_random_op_sequences_never_deadlock(nodes, script, substrate):
    cluster = Cluster(nodes, substrate=substrate)

    def program(rt):
        arr = rt.all_spread_malloc("fuzz", ARRAY, np.uint32)
        scratch = rt.all_spread_malloc("fuzz_s", ARRAY, np.uint32)
        yield from rt.barrier()
        for kind, a, b in script:
            peer = (rt.node + 1 + a) % rt.nprocs
            offset = a % (ARRAY // 2)
            if kind == "put":
                yield from rt.put(peer, "fuzz", offset, np.array([b % 2**32], dtype=np.uint32))
            elif kind == "get":
                yield from rt.get(peer, "fuzz", offset + b % 4)
            elif kind == "store":
                yield from rt.store_array(peer, "fuzz", offset,
                                          np.array([b % 2**32], dtype=np.uint32))
            elif kind == "bulk":
                yield from rt.bulk_get(peer, "fuzz", 0, 8 + b % 8, "fuzz_s", 0)
            elif kind == "barrier":
                yield from rt.barrier()
            elif kind == "sync":
                yield from rt.all_store_sync()
            elif kind == "compute":
                yield from rt.compute(int_ops=1 + b % 1000)
        # drain every outstanding one-way op before finishing
        yield from rt.all_store_sync()
        yield from rt.barrier()
        return rt.node

    # a deadlock would surface as run_until_complete's drained-schedule
    # or time-limit RuntimeError
    results = cluster.run(program, limit=5e8)
    assert results == list(range(nodes))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_concurrent_counters_balance_after_fuzz(seed):
    """After any run, AM bookkeeping must balance: nothing unacked, no
    window waiters, no pending store-sync state."""
    rng = np.random.RandomState(seed)
    cluster = Cluster(3, substrate="fe-switch")
    plan = [(int(rng.randint(0, 3)), int(rng.randint(1, 40))) for _ in range(6)]

    def program(rt):
        rt.all_spread_malloc("bal", 128, np.uint8)
        yield from rt.barrier()
        for peer_seed, nbytes in plan:
            peer = (rt.node + 1 + peer_seed) % rt.nprocs
            if peer != rt.node:
                yield from rt.store_bytes(peer, "bal", 0, b"f" * nbytes)
        yield from rt.all_store_sync()
        yield from rt.barrier()
        return True

    assert cluster.run(program) == [True, True, True]
    by_node = {am.node: am for am in cluster.ams}
    for am in cluster.ams:
        for peer_node, peer in am._peers_by_node.items():
            # everything sent was received (shutdown may suppress the
            # very last ack, so compare sequence counters, not unacked)
            receiver_state = by_node[peer_node]._peers_by_node[am.node]
            assert receiver_state.expected_seq == peer.next_seq
            assert not peer.window_waiters
    for rt in cluster.runtimes:
        assert rt._sync_event is None
        assert all(v == 0 for v in rt._stores_sent.values())
