"""Unit tests for U-Net descriptors and endpoints."""

import pytest

from repro.core import (
    ChannelError,
    Endpoint,
    EndpointConfig,
    EndpointError,
    RecvDescriptor,
    SendDescriptor,
    register_channel,
)
from repro.core.channels import lookup_channel
from repro.sim import Simulator


def _endpoint(sim=None, **kwargs):
    sim = sim or Simulator()
    return sim, Endpoint(sim, 0, EndpointConfig(**kwargs), owner="test")


# ---------------------------------------------------------------- descriptors


def test_send_descriptor_length_sums_segments():
    d = SendDescriptor(channel_id=0, segments=[(0, 100), (1, 50)])
    assert d.length == 150


def test_send_descriptor_requires_segments():
    with pytest.raises(ValueError):
        SendDescriptor(channel_id=0, segments=[])
    with pytest.raises(ValueError):
        SendDescriptor(channel_id=0, segments=[(0, -5)])


def test_recv_descriptor_inline_consistency():
    d = RecvDescriptor(channel_id=0, length=4, inline=b"abcd")
    assert d.is_inline
    with pytest.raises(ValueError):
        RecvDescriptor(channel_id=0, length=5, inline=b"abcd")
    with pytest.raises(ValueError):
        RecvDescriptor(channel_id=0, length=4, inline=b"abcd", segments=[(0, 4)])
    with pytest.raises(ValueError):
        RecvDescriptor(channel_id=0, length=4)  # no payload location


def test_recv_descriptor_empty_message_allowed():
    d = RecvDescriptor(channel_id=0, length=0)
    assert not d.is_inline


# ---------------------------------------------------------------- endpoint


def test_post_send_requires_registered_channel():
    sim, ep = _endpoint()
    with pytest.raises(EndpointError):
        ep.post_send(SendDescriptor(channel_id=9, segments=[(0, 10)]))


def test_donate_free_buffer_validates_index():
    sim, ep = _endpoint(num_buffers=4)
    ep.donate_free_buffer(0)
    with pytest.raises(EndpointError):
        ep.donate_free_buffer(4)
    assert len(ep.free_queue) == 1


def test_deliver_and_poll_receive():
    sim, ep = _endpoint()
    d = RecvDescriptor(channel_id=0, length=3, inline=b"abc")
    assert ep.deliver(d)
    got = ep.poll_receive()
    assert got is d
    assert ep.poll_receive() is None
    assert ep.messages_received == 1
    assert ep.bytes_received == 3


def test_deliver_drop_when_recv_queue_full():
    sim, ep = _endpoint(recv_queue_depth=2)
    for _ in range(2):
        assert ep.deliver(RecvDescriptor(channel_id=0, length=1, inline=b"x"))
    assert not ep.deliver(RecvDescriptor(channel_id=0, length=1, inline=b"y"))
    assert ep.recv_queue_drops == 1


def test_wait_receive_fires_on_delivery():
    sim, ep = _endpoint()
    woke = []

    def waiter():
        yield ep.wait_receive()
        woke.append(sim.now)

    def deliverer():
        yield sim.timeout(5.0)
        ep.deliver(RecvDescriptor(channel_id=0, length=1, inline=b"z"))

    sim.process(waiter())
    sim.process(deliverer())
    sim.run()
    assert woke == [5.0]


def test_wait_receive_immediate_when_pending():
    sim, ep = _endpoint()
    ep.deliver(RecvDescriptor(channel_id=0, length=1, inline=b"z"))
    woke = []

    def waiter():
        yield ep.wait_receive()
        woke.append(sim.now)

    sim.process(waiter())
    sim.run()
    assert woke == [0.0]


def test_signal_handler_upcall_once_per_transition():
    sim, ep = _endpoint()
    calls = []
    ep.set_signal_handler(lambda e: calls.append(len(e.recv_queue)))
    ep.deliver(RecvDescriptor(channel_id=0, length=1, inline=b"a"))
    ep.deliver(RecvDescriptor(channel_id=0, length=1, inline=b"b"))
    assert calls == [1]  # only the empty->non-empty transition
    ep.recv_queue.drain()
    ep.deliver(RecvDescriptor(channel_id=0, length=1, inline=b"c"))
    assert calls == [1, 1]


def test_read_message_inline_and_buffers():
    sim, ep = _endpoint()
    assert ep.read_message(RecvDescriptor(channel_id=0, length=2, inline=b"hi")) == b"hi"
    ep.buffers.buffer(3).write(b"world")
    d = RecvDescriptor(channel_id=0, length=5, segments=[(3, 5)])
    assert ep.read_message(d) == b"world"


def test_recycle_returns_buffers_to_free_queue():
    sim, ep = _endpoint()
    d = RecvDescriptor(channel_id=0, length=8, segments=[(2, 4), (5, 4)])
    ep.recycle(d)
    assert len(ep.free_queue) == 2
    assert ep.take_free_buffer() == 2
    assert ep.take_free_buffer() == 5
    assert ep.take_free_buffer() is None


def test_send_completed_wakes_waiters():
    sim, ep = _endpoint()
    register_channel(ep, 0, tag="t")
    d = SendDescriptor(channel_id=0, segments=[(0, 10)])
    woke = []

    def waiter():
        yield ep.wait_send_complete()
        woke.append(sim.now)

    sim.process(waiter())

    def completer():
        yield sim.timeout(3.0)
        ep.send_completed(d)

    sim.process(completer())
    sim.run()
    assert woke == [3.0]
    assert d.completed


# ---------------------------------------------------------------- channels


def test_register_and_lookup_channel():
    sim, ep = _endpoint()
    binding = register_channel(ep, 5, tag="tag5", peer="other")
    assert lookup_channel(ep, 5) is binding
    with pytest.raises(ChannelError):
        lookup_channel(ep, 6)


def test_duplicate_channel_rejected():
    sim, ep = _endpoint()
    register_channel(ep, 1, tag="a")
    with pytest.raises(ChannelError):
        register_channel(ep, 1, tag="b")


def test_ethernet_tag_port_validation():
    from repro.core import EthernetTag

    with pytest.raises(ChannelError):
        EthernetTag(dst_mac=1, dst_port=300, src_mac=2, src_port=0)


def test_demux_table_unknown_counts():
    from repro.core import DemuxTable

    sim, ep = _endpoint()
    table = DemuxTable()
    table.register("tag", ep, 0)
    assert table.lookup("tag") == (ep, 0)
    assert table.lookup("other") is None
    assert table.unknown_tag_drops == 1
    with pytest.raises(KeyError):
        table.register("tag", ep, 1)
    assert table.unregister_endpoint(ep) == 1
    assert table.lookup("tag") is None
    assert table.unknown_tag_drops == 2
