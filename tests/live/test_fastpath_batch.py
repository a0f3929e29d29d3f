"""Batch-boundary regressions for the zero-copy fast path.

The batched transport must degrade exactly like the scalar one at
every awkward boundary: a partial kernel drain, EAGAIN mid-batch, an
oversize datagram sitting at slot N of a recvmmsg window, a pool that
runs dry halfway through a burst.  Each case pins the typed error or
drop-accounting outcome to the same vocabulary the unbatched path
uses, on both the ctypes mmsg path and the portable fallback — the
Linux-only tests skip (never fail) elsewhere, and the active path is
logged in the pytest report header (see ``conftest.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import (
    BufferPool,
    LiveCluster,
    WallClock,
    make_transport,
    mmsg_available,
)
from repro.telemetry import read
from .conftest import batching_path, require

pytestmark = require("unix")

#: the explicit seam: ctypes sendmmsg/recvmmsg exist on Linux only —
#: elsewhere these tests skip loudly instead of failing
mmsg_only = pytest.mark.skipif(
    not mmsg_available(),
    reason=f"no sendmmsg/recvmmsg here (active path: {batching_path()})")


def _pair(use_mmsg=None):
    rx = make_transport("unix", "rx", use_mmsg=use_mmsg)
    tx = make_transport("unix", "tx", use_mmsg=use_mmsg)
    return rx, tx


@pytest.fixture(params=["mmsg", "portable"])
def both_paths(request):
    """Run a test on the ctypes path and the portable fallback."""
    if request.param == "mmsg" and not mmsg_available():
        pytest.skip(f"no sendmmsg/recvmmsg here ({batching_path()})")
    return request.param == "mmsg"


# ------------------------------------------------------------ batched rx/tx
def test_round_trip_and_accounting_match_across_paths(both_paths):
    """Same datagrams, same counters, either implementation."""
    rx, tx = _pair(use_mmsg=both_paths)
    with rx, tx:
        # 8 datagrams: under max_dgram_qlen, so every send must land
        msgs = [b"m%03d" % i for i in range(8)]
        accepted = tx.send_many_to(rx.address, msgs)
        assert accepted == 8
        pool = BufferPool(16, 64)
        got = []
        while len(got) < 8:
            batch = rx.recv_batch_into(pool)
            got.extend(bytes(s.payload()) for s in batch)
            for s in batch:
                pool.free(s)
        assert got == msgs
        assert rx.rx_datagrams == 8 and tx.tx_datagrams == 8
        assert pool.free_count == 16


def test_empty_socket_drains_to_empty_list(both_paths):
    rx, tx = _pair(use_mmsg=both_paths)
    with rx, tx:
        pool = BufferPool(8, 64)
        assert rx.recv_batch_into(pool) == []
        assert pool.free_count == 8  # nothing leaked on the EAGAIN path


def test_partial_drain_leaves_the_rest_in_the_kernel(both_paths):
    """A pool smaller than the backlog bounds the drain; undrained
    datagrams survive in the kernel buffer for the next pass."""
    rx, tx = _pair(use_mmsg=both_paths)
    with rx, tx:
        assert tx.send_many_to(rx.address, [b"x%d" % i for i in range(6)]) == 6
        pool = BufferPool(2, 64)
        first = rx.recv_batch_into(pool)
        assert [bytes(s.payload()) for s in first] == [b"x0", b"x1"]
        # pool exhausted mid-backlog: backpressure, not loss
        assert rx.recv_batch_into(pool) == []
        assert pool.exhausted_total >= 1
        for s in first:
            pool.free(s)
        rest = []
        while len(rest) < 4:
            batch = rx.recv_batch_into(pool)
            rest.extend(bytes(s.payload()) for s in batch)
            for s in batch:
                pool.free(s)
        assert rest == [b"x2", b"x3", b"x4", b"x5"]


def test_oversize_datagram_at_slot_n_is_dropped_and_charged(both_paths):
    """A datagram larger than its slot — sitting in the *middle* of a
    batch window — is dropped, charged to ``rx_truncated``, and its
    neighbours on both sides are delivered intact."""
    rx, tx = _pair(use_mmsg=both_paths)
    with rx, tx:
        slot = 32
        tx.send(rx.address, b"a" * 8)
        tx.send(rx.address, b"b" * (slot + 40))  # will not fit
        tx.send(rx.address, b"c" * 8)
        pool = BufferPool(8, slot)
        got = []
        for _ in range(4):
            batch = rx.recv_batch_into(pool)
            got.extend(bytes(s.payload()) for s in batch)
            for s in batch:
                pool.free(s)
        assert got == [b"a" * 8, b"c" * 8]
        assert rx.rx_truncated == 1
        assert rx.rx_datagrams == 2  # the truncated one was never counted
        assert pool.free_count == 8


def test_send_backpressure_stops_at_the_boundary(both_paths):
    """Flooding a tiny receive queue: send_many_to reports the accepted
    prefix, charges ``tx_would_block``, and the tail is untouched —
    identical disposition to the scalar send contract."""
    rx, tx = _pair(use_mmsg=both_paths)
    with rx, tx:
        payload = b"y" * 512
        total_sent = 0
        for _ in range(80):  # default unix dgram queue caps well below this
            accepted = tx.send_many_to(rx.address, [payload] * 8)
            total_sent += accepted
            if accepted == 0:  # a partial batch isn't charged — EAGAIN is
                break
        assert tx.tx_would_block >= 1
        assert total_sent < 80 * 8
        # drain and confirm exactly what was accepted arrives, in order
        pool = BufferPool(64, 600)
        seen = 0
        while True:
            batch = rx.recv_batch_into(pool)
            if not batch:
                break
            seen += len(batch)
            for s in batch:
                pool.free(s)
        assert seen == total_sent


def test_send_many_to_sends_pool_slices_and_bytes_alike(both_paths):
    """The batched doorbell hands ``send_many_to`` TX-pool slices, a
    caller may hand it ``bytes``: each is sent for its valid length,
    with the same acceptance and accounting."""
    rx, tx = _pair(use_mmsg=both_paths)
    with rx, tx:
        payloads = [b"z%02d" % i * (i + 1) for i in range(8)]
        tx_pool = BufferPool(8, 64)
        slices = tx_pool.take(4)
        for slice_, data in zip(slices, payloads[::2]):
            slice_.view[:len(data)] = data
            slice_.length = len(data)
        mixed = [item for pair in zip(slices, payloads[1::2]) for item in pair]
        assert tx.send_many_to(rx.address, mixed) == 8
        tx_pool.give_back(slices)
        assert tx.tx_datagrams == 8
        assert tx.tx_bytes == sum(len(p) for p in payloads)
        pool = BufferPool(16, 64)
        got = []
        while len(got) < 8:
            batch = rx.recv_batch_into(pool)
            got.extend(bytes(s.payload()) for s in batch)
            for s in batch:
                pool.free(s)
        assert got == payloads


def test_syscalls_per_message_is_a_first_class_counter(both_paths):
    rx, tx = _pair(use_mmsg=both_paths)
    with rx, tx:
        assert tx.syscalls_per_message == 0.0  # no division by zero
        tx.send_many_to(rx.address, [b"q"] * 8)
        pool = BufferPool(32, 64)
        drained = 0
        while drained < 8:
            batch = rx.recv_batch_into(pool)
            drained += len(batch)
            for s in batch:
                pool.free(s)
        stats = read(tx)
        assert stats["syscalls_per_message"] == tx.syscalls_per_message
        assert "rx_truncated" in stats
        if both_paths:
            # one sendmmsg moved all 16: strictly sub-1.0 crossings
            assert tx.syscalls_per_message < 1.0
        else:
            assert tx.syscalls_per_message >= 1.0


# ------------------------------------------------------------- mmsg details
@mmsg_only
def test_mmsg_batches_in_one_syscall():
    rx, tx = _pair()
    with rx, tx:
        tx.send_many_to(rx.address, [b"n%d" % i for i in range(8)])
        assert tx.tx_syscalls == 1
        pool = BufferPool(32, 64)
        got = rx.recv_batch_into(pool)
        assert len(got) == 8 and rx.rx_syscalls == 1
        for s in got:
            pool.free(s)


@mmsg_only
def test_mixed_scalar_and_batched_traffic_interleaves_cleanly():
    """Alternating scalar sends (sockaddr armed) and batched receives
    (msg_name disarmed) across one MmsgBatch must not corrupt either
    direction — the slot-cache re-arming seam."""
    rx, tx = _pair()
    with rx, tx:
        pool = BufferPool(8, 64)
        for round_ in range(4):
            tx.send(rx.address, b"s%d" % round_)
            tx.send_many_to(rx.address, [b"b%d" % round_] * 3)
            got = []
            while len(got) < 4:
                batch = rx.recv_batch_into(pool)
                got.extend(bytes(s.payload()) for s in batch)
                for s in batch:
                    pool.free(s)
            assert got == [b"s%d" % round_] + [b"b%d" % round_] * 3


@mmsg_only
def test_pinned_pair_lifts_the_dgram_qlen_cap():
    """connect_peer exempts AF_UNIX from max_dgram_qlen (10 on stock
    kernels): a mutually pinned pair must accept a full 64-datagram
    batch in one syscall, which is the whole reason the burst bench
    can amortize kernel crossings."""
    rx, tx = _pair()
    with rx, tx:
        tx.connect_peer(rx.address)
        rx.connect_peer(tx.address)
        accepted = tx.send_many_to(rx.address, [b"p" * 64] * 64)
        assert accepted == 64
        assert tx.tx_syscalls == 1
        pool = BufferPool(64, 128)
        got = 0
        while got < 64:
            batch = rx.recv_batch_into(pool)
            got += len(batch)
            for s in batch:
                pool.free(s)
        assert got == 64


def test_fallback_seam_is_explicit():
    """Forcing the portable path must actually change the implementation
    (and say so), not silently keep using mmsg."""
    t = make_transport("unix", "seam", use_mmsg=False)
    with t:
        assert t.batch_path() == "portable sendto/recvmsg_into loop"
    if mmsg_available():
        t2 = make_transport("unix", "seam2")
        with t2:
            assert t2.batch_path() == "sendmmsg/recvmmsg (ctypes)"


# ------------------------------------------------- backend-level boundaries
def test_send_burst_survives_pool_exhaustion_mid_burst():
    """A burst larger than the TX pool completes by retrying the tail —
    pool exhaustion is backpressure inside send_burst, invisible to the
    caller beyond a partial per-call count."""
    clock = WallClock()
    with LiveCluster(lambda n: make_transport("unix", n), clock,
                     doorbell_mode="batched") as cluster:
        n0, n1 = cluster.add_node(), cluster.add_node()
        ep0 = n0.create_user_endpoint(rx_buffers=48)
        ep1 = n1.create_user_endpoint(rx_buffers=48)
        ch0, _ch1 = cluster.connect(ep0, ep1)
        payloads = [b"w%04d" % i for i in range(300)]
        got = []

        def on_message(_ep, _ch, view):
            got.append(bytes(view))

        sent = 0
        for _ in range(4000):
            if sent < len(payloads):
                sent += ep0.send_burst(ch0, payloads[sent:sent + 128])
            n1.service_fast(on_message)
            if len(got) == len(payloads):
                break
        assert got == payloads
        assert n0._tx_pool.in_flight_count == 0  # every slice recycled
        assert n1._rx_pool.in_flight_count == 0


def test_send_burst_rejects_oversize_before_sending_anything():
    from repro.core.errors import MessageTooLarge

    clock = WallClock()
    with LiveCluster(lambda n: make_transport("unix", n), clock,
                     doorbell_mode="batched") as cluster:
        n0, n1 = cluster.add_node(), cluster.add_node()
        ep0 = n0.create_user_endpoint(rx_buffers=8)
        ep1 = n1.create_user_endpoint(rx_buffers=8)
        ch0, _ch1 = cluster.connect(ep0, ep1)
        huge = b"x" * (n0.max_pdu + 1)
        with pytest.raises(MessageTooLarge):
            ep0.send_burst(ch0, [b"ok", huge, b"ok"])
        # validation is up-front: nothing was sent, nothing leaked
        assert ep0.endpoint.messages_sent == 0
        assert n0._tx_pool.in_flight_count == 0


def test_fast_path_apis_require_batched_mode():
    from repro.core.errors import EndpointError

    clock = WallClock()
    with LiveCluster(lambda n: make_transport("unix", n), clock) as cluster:
        n0, n1 = cluster.add_node(), cluster.add_node()
        ep0 = n0.create_user_endpoint(rx_buffers=8)
        ep1 = n1.create_user_endpoint(rx_buffers=8)
        ch0, _ch1 = cluster.connect(ep0, ep1)
        with pytest.raises(EndpointError):
            ep0.send_burst(ch0, [b"nope"])
        with pytest.raises(EndpointError):
            n0.service_fast(lambda *a: None)


@mmsg_only
@settings(max_examples=40, deadline=None)
@given(rounds=st.lists(st.tuples(
    st.sampled_from(["same-none", "same-name"]), st.integers(0, 1),
    st.lists(st.tuples(st.sampled_from(["bytes", "pool-a", "pool-b"]),
                       st.binary(max_size=48)), min_size=1, max_size=4)),
    min_size=1, max_size=12))
def test_one_batch_stays_coherent_across_every_call_shape(rounds):
    """One :class:`MmsgBatch` driven through every call shape in turn —
    ``sendmmsg_same`` on a connected socket (no sockaddr) and to either
    of two names, ``recvmmsg`` into slices of two pools and a plain
    buffer — with payloads from two pools and ``bytes`` of varying
    lengths.  The batch caches each slot's sockaddr, base and length;
    every datagram must still arrive intact at the socket it was sent
    to."""
    import socket
    from collections import deque

    from repro.live.mmsg import MmsgBatch, pack_sockaddr

    batch = MmsgBatch()
    pools = {"pool-a": BufferPool(8, 48), "pool-b": BufferPool(8, 64)}
    with make_transport("unix", "d0") as d0, make_transport("unix", "d1") as d1, \
            make_transport("unix", "tx") as tx, make_transport("unix", "conn") as conn:
        dests = (d0, d1)
        names = [pack_sockaddr(socket.AF_UNIX, d.address) for d in dests]
        conn.connect_peer(d0.address)
        expected = (deque(), deque())
        for shape, dest, msgs in rounds:
            payloads, lent = [], []
            for kind, data in msgs:
                if kind == "bytes":
                    payloads.append(data)
                    continue
                slice_ = pools[kind].alloc()
                slice_.view[:len(data)] = data
                slice_.length = len(data)
                payloads.append(slice_)
                lent.append(slice_)
            if shape == "same-none":
                sent = batch.sendmmsg_same(conn.sock.fileno(), None, payloads)
                dest = 0
            else:
                sent = batch.sendmmsg_same(tx.sock.fileno(), names[dest], payloads)
            assert sent == len(msgs)
            expected[dest].extend(data for _k, data in msgs)
            for slice_ in lent:
                slice_.pool.free(slice_)
            for index, sock in enumerate(dests):  # drain on the same batch
                while expected[index]:
                    views = [pools["pool-a"].alloc(), bytearray(64), pools["pool-b"].alloc()]
                    got = batch.recvmmsg(sock.sock.fileno(), views)
                    assert got, "a sent datagram never arrived"
                    for view, (flags, nbytes) in zip(views, got):
                        assert not flags
                        raw = view.view if hasattr(view, "view") else memoryview(view)
                        assert bytes(raw[:nbytes]) == expected[index].popleft()
                    for view in views:
                        if hasattr(view, "pool"):
                            view.pool.free(view)
        assert all(pool.free_count == 8 for pool in pools.values())
