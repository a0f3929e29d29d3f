"""Backend edge cases: oversized payloads, teardown races, queue-full drops."""

import pytest

from repro.core import EndpointConfig
from repro.core.errors import EndpointError, MessageTooLarge, UNetError
from repro.live import LiveCluster, make_transport
from repro.live.clock import WallClock

from .conftest import require

pytestmark = require("unix")


def _cluster(**kwargs):
    return LiveCluster(lambda name: make_transport("unix", name),
                       WallClock(), **kwargs)


def _pair(cluster, recv_queue_depth=8, rx_buffers=8):
    a = cluster.add_node("a").create_user_endpoint(rx_buffers=8)
    cfg = EndpointConfig(num_buffers=rx_buffers + 8, buffer_size=2048,
                         send_queue_depth=8, recv_queue_depth=recv_queue_depth)
    b = cluster.add_node("b").create_user_endpoint(config=cfg,
                                                   rx_buffers=rx_buffers)
    ch_a, ch_b = cluster.connect(a, b)
    return a, b, ch_a, ch_b


def test_raw_round_trip_small_and_multi_buffer():
    with _cluster() as cluster:
        a, b, ch_a, ch_b = _pair(cluster)
        a.send(ch_a, b"ping")                      # inline (<= 64B)
        big = bytes(i % 256 for i in range(3000))  # needs two 2 KB buffers
        a.send(ch_a, big)
        assert cluster.run_until(
            lambda: len(b.endpoint.recv_queue) >= 2, limit_us=2_000_000, ams=())
        assert b.poll().data == b"ping"
        assert b.poll().data == big


def test_oversized_payload_is_a_typed_error():
    with _cluster() as cluster:
        a, _b, ch_a, _ = _pair(cluster)
        with pytest.raises(MessageTooLarge) as exc_info:
            a.send(ch_a, b"z" * (cluster.max_pdu + 1))
        assert isinstance(exc_info.value, UNetError)
        # nothing was queued or leaked by the refused send
        assert a.endpoint.send_queue.is_empty


def test_teardown_with_in_flight_datagrams_counts_unknown_tags():
    """Datagrams already in the socket buffer when their endpoint dies
    must die at the demux boundary (protection), visibly accounted."""
    with _cluster() as cluster:
        a, b, ch_a, _ = _pair(cluster)
        node_b = b.backend
        for i in range(3):
            a.send(ch_a, b"in flight %d" % i)
        b.close()  # demux row gone; the datagrams are still in the kernel
        assert cluster.run_until(
            lambda: node_b.demux.unknown_tag_drops >= 3, limit_us=2_000_000, ams=())
        assert node_b.drop_stats()["unknown_tag_drops"] == 3
        # closing twice is fine; the endpoint stays closed
        b.close()
        with pytest.raises(EndpointError):
            b.send(ch_a, b"after close")


def test_full_receive_queue_drops_are_counted_and_buffers_recycled():
    with _cluster() as cluster:
        a, b, ch_a, _ = _pair(cluster, recv_queue_depth=2)
        free_before = len(b.endpoint.free_queue)
        for i in range(5):
            a.send(ch_a, bytes(100) + bytes([i]))  # buffer-borne (> 64B)
        assert cluster.run_until(
            lambda: b.backend.recv_queue_drops >= 3, limit_us=2_000_000, ams=())
        assert len(b.endpoint.recv_queue) == 2
        assert b.backend.drop_stats()["recv_queue_drops"] == 3
        # dropped deliveries returned their claimed buffers to the pool
        assert len(b.endpoint.free_queue) == free_before - 2
        assert b.poll() is not None


def test_no_buffer_drop_rolls_back_partial_multi_buffer_claims():
    with _cluster() as cluster:
        a, b, ch_a, _ = _pair(cluster, rx_buffers=1)
        a.send(ch_a, bytes(3000))  # needs 2 buffers; only 1 donated
        assert cluster.run_until(
            lambda: b.backend.no_buffer_drops >= 1, limit_us=2_000_000, ams=())
        # the partial claim was rolled back, not leaked
        assert len(b.endpoint.free_queue) == 1
        assert b.backend.drop_stats()["no_buffer_drops"] == 1


def test_destroy_endpoint_rejects_foreign_endpoints():
    with _cluster() as cluster:
        node_a = cluster.add_node("a")
        node_b = cluster.add_node("b")
        ep = node_a.create_endpoint()
        with pytest.raises(EndpointError):
            node_b.destroy_endpoint(ep)
