"""Transport edge cases: EAGAIN backpressure, partial drains, dead peers."""

import pytest

from repro.live import TransportError, make_transport, transport_available
from repro.live.transport import RECV_BATCH
from repro.telemetry import read

from .conftest import require

pytestmark = require("unix")


def test_send_backpressure_surfaces_as_false_then_drains_without_loss():
    """Filling the receiver's kernel buffer must yield ``False`` (EAGAIN
    mapped to backpressure), and everything the kernel accepted must
    still come out the other side: backpressure, never silent loss."""
    rx = make_transport("unix", "rx")
    tx = make_transport("unix", "tx")
    try:
        payload = b"x" * 1024
        sent = 0
        blocked = False
        for _ in range(4096):
            if not tx.send(rx.address, payload):
                blocked = True
                break
            sent += 1
        assert blocked, "4 MB into a default kernel buffer never blocked"
        assert tx.tx_would_block >= 1
        assert sent >= 4

        # bounded partial drain: the batch limit models the bounded work
        # of one interrupt-handler invocation
        first = rx.recv_batch()
        assert len(first) == min(sent, RECV_BATCH)
        drained = len(first)
        while True:
            batch = rx.recv_batch()
            if not batch:
                break
            drained += len(batch)
        assert drained == sent
        assert all(len(d) == len(payload) for d in first)

        # and the freed buffer space accepts new sends again
        assert tx.send(rx.address, payload) is True
    finally:
        tx.close()
        rx.close()


def test_send_to_a_torn_down_peer_is_charged_not_raised():
    rx = make_transport("unix", "rx")
    tx = make_transport("unix", "tx")
    dest = rx.address
    rx.close()  # unlinks the socket path
    try:
        assert tx.send(dest, b"late datagram") is True
        assert tx.tx_peer_gone == 1
        assert tx.tx_datagrams == 0
    finally:
        tx.close()


def test_closed_transport_refuses_sends_and_returns_empty_batches():
    t = make_transport("unix", "t")
    t.close()
    with pytest.raises(TransportError):
        t.send("nowhere", b"payload")
    assert t.recv_batch() == []


def test_syscall_accounting_counts_every_attempt():
    rx = make_transport("unix", "rx")
    tx = make_transport("unix", "tx")
    try:
        for _ in range(3):
            assert tx.send(rx.address, b"ping")
        assert tx.tx_syscalls == 3
        assert tx.tx_datagrams == 3
        assert tx.tx_bytes == 12
        got = rx.recv_batch()
        assert len(got) == 3
        # 3 successful recvfrom calls plus the final EAGAIN probe
        assert rx.rx_syscalls == 4
        stats = read(rx)
        assert stats["rx_datagrams"] == 3
        assert stats["rx_bytes"] == 12
    finally:
        tx.close()
        rx.close()


@pytest.mark.skipif(not transport_available("udp"),
                    reason="UDP loopback not available")
def test_udp_loopback_round_trip():
    rx = make_transport("udp", "rx")
    tx = make_transport("udp", "tx")
    try:
        assert tx.send(rx.address, b"over ip")
        deadline = 200
        got = []
        while not got and deadline:
            got = rx.recv_batch()
            deadline -= 1
        assert got == [b"over ip"]
    finally:
        tx.close()
        rx.close()
