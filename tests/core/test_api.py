"""Tests for the user-level U-Net API layer (Host / UserEndpoint)."""

import pytest

from repro.core import EndpointConfig, EndpointError
from repro.ethernet import HubNetwork
from repro.sim import Simulator


@pytest.fixture
def build_pair(two_hosts):
    def build(rx_buffers=8, config=None):
        rig = two_hosts(HubNetwork(Simulator()), config=config, rx_buffers=rx_buffers)
        return rig.sim, rig.ep1, rig.ep2, rig.ch1, rig.ch2

    return build


def test_send_to_unregistered_channel_rejected(build_pair):
    sim, ep1, ep2, ch1, ch2 = build_pair()

    def tx():
        yield from ep1.send(99, b"oops")

    from repro.core import ChannelError

    with pytest.raises(ChannelError):
        sim.run_until_complete(sim.process(tx()))


def test_send_blocks_until_buffers_reclaimed(build_pair):
    # tiny buffer area: sends must wait for NI completions, not crash
    config = EndpointConfig(num_buffers=6, buffer_size=2048)
    sim, ep1, ep2, ch1, ch2 = build_pair(rx_buffers=2, config=config)
    received = []

    def tx():
        for i in range(12):
            yield from ep1.send(ch1, bytes([i]) * 100)

    def rx():
        while len(received) < 12:
            msg = yield from ep2.recv()
            received.append(msg.data[0])

    sim.process(tx())
    sim.run_until_complete(sim.process(rx()))
    assert received == list(range(12))


def test_buffer_exhaustion_with_no_inflight_raises(build_pair):
    config = EndpointConfig(num_buffers=4, buffer_size=64)
    sim, ep1, ep2, ch1, ch2 = build_pair(rx_buffers=4, config=config)

    def tx():
        yield from ep1.send(ch1, b"x" * 10)

    with pytest.raises(EndpointError):
        sim.run_until_complete(sim.process(tx()))


def test_donate_rx_buffers_fills_free_queue(build_pair):
    sim, ep1, ep2, ch1, ch2 = build_pair(rx_buffers=5)
    assert len(ep1.endpoint.free_queue) == 5


def test_poll_returns_none_when_empty(build_pair):
    sim, ep1, ep2, ch1, ch2 = build_pair()
    assert ep1.poll() is None


def test_poll_consumes_message(build_pair):
    sim, ep1, ep2, ch1, ch2 = build_pair()

    def tx():
        yield from ep1.send(ch1, b"polled")

    sim.process(tx())
    sim.run()
    msg = ep2.poll()
    assert msg is not None and msg.data == b"polled"
    assert ep2.poll() is None


def test_recv_all_upcall_batch(build_pair):
    sim, ep1, ep2, ch1, ch2 = build_pair()

    def tx():
        for i in range(4):
            yield from ep1.send(ch1, bytes([i]))

    sim.process(tx())
    sim.run()
    msgs = ep2.recv_all()
    assert [m.data for m in msgs] == [bytes([i]) for i in range(4)]


def test_signal_handler_via_user_endpoint(build_pair):
    sim, ep1, ep2, ch1, ch2 = build_pair()
    upcalls = []
    ep2.set_signal_handler(lambda ue: upcalls.append(len(ue.recv_all())))

    def tx():
        yield from ep1.send(ch1, b"sig")

    sim.process(tx())
    sim.run()
    assert upcalls == [1]


def test_received_message_metadata(build_pair):
    sim, ep1, ep2, ch1, ch2 = build_pair()

    def tx():
        yield from ep1.send(ch1, b"meta")

    def rx():
        return (yield from ep2.recv())

    sim.process(tx())
    msg = sim.run_until_complete(sim.process(rx()))
    assert len(msg) == 4
    assert msg.channel_id == ch2


def test_kick_flag_defers_transmission(build_pair):
    sim, ep1, ep2, ch1, ch2 = build_pair()

    def tx_no_kick():
        yield from ep1.send(ch1, b"deferred", kick=False)

    sim.process(tx_no_kick())
    sim.run()
    assert ep2.poll() is None  # never kicked: nothing transmitted

    def kick():
        yield from ep1.kick()

    sim.process(kick())
    sim.run()
    assert ep2.poll().data == b"deferred"


def test_channel_binding_statistics(build_pair):
    sim, ep1, ep2, ch1, ch2 = build_pair()

    def tx():
        yield from ep1.send(ch1, b"one")
        yield from ep1.send(ch1, b"two")

    def rx():
        yield from ep2.recv()
        yield from ep2.recv()

    sim.process(tx())
    sim.run_until_complete(sim.process(rx()))
    assert ep1.endpoint.channels[ch1].messages_sent == 2
    assert ep2.endpoint.channels[ch2].messages_received == 2


def test_empty_message_roundtrip(build_pair):
    sim, ep1, ep2, ch1, ch2 = build_pair()

    def tx():
        yield from ep1.send(ch1, b"")

    def rx():
        return (yield from ep2.recv())

    sim.process(tx())
    msg = sim.run_until_complete(sim.process(rx()))
    assert msg.data == b""
