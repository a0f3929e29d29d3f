"""Endpoint-level faults: sick receivers, abusive senders, containment."""

import pytest

from repro.atm import AtmNetwork
from repro.core import EndpointConfig
from repro.ethernet import SwitchedNetwork
from repro.faults import (
    LeakyReceiver,
    MisbehavingSender,
    SlowReceiver,
    StalledReceiver,
    forge_unknown_traffic,
)
from repro.hw import PENTIUM_120
from repro.sim import Simulator
from repro.telemetry import read

SMALL = EndpointConfig(num_buffers=16, buffer_size=1024,
                       send_queue_depth=8, recv_queue_depth=4)


@pytest.fixture
def build_net(closing):
    """A fresh switch (or ATM switch), closed after the test."""
    def build(substrate="ethernet"):
        sim = Simulator()
        net = closing(SwitchedNetwork(sim) if substrate == "ethernet" else AtmNetwork(sim))
        return sim, net

    return build


@pytest.fixture
def build_pair(build_net):
    def build(substrate="ethernet", rx_config=None, rx_buffers=8):
        sim, net = build_net(substrate)
        h0 = net.add_host("tx", PENTIUM_120)
        h1 = net.add_host("rx", PENTIUM_120)
        sender = h0.create_endpoint(rx_buffers=8)
        receiver = h1.create_endpoint(config=rx_config, rx_buffers=rx_buffers)
        ch_tx, ch_rx = net.connect(sender, receiver)
        return sim, sender, receiver, ch_tx

    return build


def blast(sim, sender, channel, count, payload=bytes(200)):
    def tx():
        for _ in range(count):
            yield from sender.send(channel, payload)

    sim.process(tx())


# ------------------------------------------------------------ sick receivers


def test_stalled_receiver_fills_queue_then_counts_receive_drops(build_pair):
    sim, sender, receiver, ch = build_pair(rx_config=SMALL)
    fault = StalledReceiver(receiver)

    def consume():
        while True:
            yield from receiver.recv()

    sim.process(consume())
    blast(sim, sender, ch, 12)
    sim.run(until=20_000.0)
    ep = receiver.endpoint
    assert len(ep.recv_queue) == ep.recv_queue.capacity
    assert ep.recv_queue_drops > 0
    assert read(fault)["backlog"] == ep.recv_queue.capacity
    assert read(fault)["stifled_polls"] == 0  # recv() blocks, never polls


def test_stalled_receiver_restore_wakes_blocked_consumer(build_pair):
    sim, sender, receiver, ch = build_pair(rx_config=SMALL)
    fault = StalledReceiver(receiver)
    consumed = []

    def consume():
        while True:
            message = yield from receiver.recv()
            consumed.append(message)

    sim.process(consume())
    blast(sim, sender, ch, 3)

    def heal():
        yield sim.timeout(10_000.0)
        fault.restore()

    sim.process(heal())
    sim.run(until=20_000.0)
    assert consumed, "restore() must hand the backlog to the parked consumer"


def test_slow_receiver_defers_recycles_and_throttles_polls(build_pair):
    sim, sender, receiver, ch = build_pair(rx_config=SMALL)
    fault = SlowReceiver(receiver, recycle_delay_us=2_000.0,
                         min_poll_interval_us=300.0)
    consumed = []

    def consume():
        while True:
            message = yield from receiver.recv()
            consumed.append(message.data)
            # an eager extra poll inside the interval must be refused
            assert receiver.poll() is None

    sim.process(consume())
    blast(sim, sender, ch, 10)
    sim.run(until=50_000.0)
    stats = read(fault)
    # the lagging consumer loses messages to its shallow queue but
    # keeps consuming — that is what distinguishes slow from stalled
    assert 0 < len(consumed) < 10
    assert receiver.endpoint.recv_queue_drops > 0
    assert stats["deferred_recycles"] == len(consumed)
    assert stats["throttled_polls"] > 0


def test_leaky_receiver_drains_free_queue_until_no_buffer_drops(build_pair):
    sim, sender, receiver, ch = build_pair(rx_config=SMALL)
    fault = LeakyReceiver(receiver)

    def consume():
        while True:
            yield from receiver.recv()

    sim.process(consume())
    blast(sim, sender, ch, 20)
    sim.run(until=50_000.0)
    ep = receiver.endpoint
    stats = read(fault)
    assert stats["leaked_buffers"] > 0
    assert len(ep.free_queue) == 0
    assert ep.no_buffer_drops > 0


# ----------------------------------------------------- victim isolation


@pytest.mark.parametrize("substrate", ["ethernet", "atm"])
def test_sick_endpoint_damage_stays_in_its_own_queues(substrate, build_net):
    # a stalled endpoint and a healthy endpoint share one receiver host;
    # the stalled endpoint's drops must never appear on its neighbour
    sim, net = build_net(substrate)
    tx_host = net.add_host("tx", PENTIUM_120)
    rx_host = net.add_host("rx", PENTIUM_120)
    sick_tx = tx_host.create_endpoint(rx_buffers=8)
    healthy_tx = tx_host.create_endpoint(rx_buffers=8)
    sick_rx = rx_host.create_endpoint(config=SMALL, rx_buffers=8)
    healthy_rx = rx_host.create_endpoint(config=SMALL, rx_buffers=8)
    ch_sick, _ = net.connect(sick_tx, sick_rx)
    ch_healthy, _ = net.connect(healthy_tx, healthy_rx)
    StalledReceiver(sick_rx)
    delivered = []

    def consume():
        while True:
            message = yield from healthy_rx.recv()
            delivered.append(message)

    sim.process(consume())
    blast(sim, sick_tx, ch_sick, 12)
    blast(sim, healthy_tx, ch_healthy, 6, payload=bytes(64))
    sim.run(until=60_000.0)
    assert sick_rx.endpoint.recv_queue_drops > 0
    assert len(delivered) == 6
    healthy_stats = healthy_rx.endpoint.drop_stats()
    assert all(count == 0 for count in healthy_stats.values()), healthy_stats


# ----------------------------------------------------- misbehaving senders


@pytest.mark.parametrize("substrate", ["ethernet", "atm"])
def test_misbehaving_sender_is_contained_by_typed_errors(substrate, build_pair):
    sim, sender, receiver, ch = build_pair(substrate)
    delivered = []

    def consume():
        while True:
            message = yield from receiver.recv()
            delivered.append(message)

    sim.process(consume())
    abuser = MisbehavingSender(sender, ch)
    sim.process(abuser.run(count=12, gap_us=5.0))

    def legit():
        yield sim.timeout(200.0)
        yield from sender.send(ch, b"still works")

    sim.process(legit())
    sim.run(until=20_000.0)
    stats = read(abuser)
    assert stats["attempts"] == 12
    assert stats["uncontained"] == 0
    assert stats["contained"] == 12
    assert all(stats["by_kind"][kind] > 0 for kind in MisbehavingSender.ABUSES)
    # the abuser hurt nobody: its endpoint still sends, the victim's
    # queues saw only the legitimate message
    assert [m.data for m in delivered] == [b"still works"]
    assert all(count == 0 for count in receiver.endpoint.drop_stats().values())


@pytest.mark.parametrize("substrate", ["ethernet", "atm"])
def test_forged_unknown_tags_count_at_the_demux_table(substrate, build_pair):
    sim, sender, receiver, ch = build_pair(substrate)
    backend = receiver.host.backend
    before = backend.demux.unknown_tag_drops
    for _ in range(5):
        forge_unknown_traffic(backend)
    sim.run(until=1_000.0)
    assert backend.demux.unknown_tag_drops == before + 5
    assert read(backend)["unknown_tag_drops"] == before + 5
    # nothing crossed a protection boundary into a real endpoint
    assert receiver.endpoint.messages_received == 0
    assert all(count == 0 for count in receiver.endpoint.drop_stats().values())


def test_receiver_fault_context_manager_restores_hooks(build_pair):
    sim, sender, receiver, ch = build_pair()
    original = receiver.endpoint.poll_receive
    with StalledReceiver(receiver) as fault:
        assert fault.attached
        assert receiver.endpoint.poll_receive is not original
    assert not fault.attached
    assert receiver.endpoint.poll_receive == original
