"""Receiver-credit flow control: wire format, gating, and stall/resume."""

import pytest

from repro.am import AmConfig, AmEndpoint
from repro.am.protocol import (
    CREDIT_FLAG,
    CREDIT_SIZE,
    HEADER_SIZE,
    TYPE_REQUEST,
    Packet,
    decode,
    encode,
)
from repro.core import EndpointConfig
from repro.ethernet import HubNetwork
from repro.hw import PENTIUM_120
from repro.sim import Simulator


def build_pair(config=None, rx_config=None, rx_buffers=48):
    sim = Simulator()
    net = HubNetwork(sim)
    h0 = net.add_host("n0", PENTIUM_120)
    h1 = net.add_host("n1", PENTIUM_120)
    ep0 = h0.create_endpoint(rx_buffers=48)
    ep1 = h1.create_endpoint(config=rx_config, rx_buffers=rx_buffers)
    ch0, ch1 = net.connect(ep0, ep1)
    am0 = AmEndpoint(0, ep0, config=config)
    am1 = AmEndpoint(1, ep1, config=config)
    am0.connect_peer(1, ch0)
    am1.connect_peer(0, ch1)
    return sim, am0, am1


# ---------------------------------------------------------------- wire format


def test_default_wire_format_is_byte_identical_without_credit():
    packet = Packet(type=TYPE_REQUEST, handler=5, seq=3, ack=4,
                    args=(6, 7, 8, 9), data=b"data")
    wire = encode(packet)
    assert len(wire) == HEADER_SIZE + 4
    assert wire[0] & CREDIT_FLAG == 0
    assert decode(wire).credit is None


def test_credit_word_costs_exactly_two_bytes_and_round_trips():
    packet = Packet(type=TYPE_REQUEST, handler=5, seq=3, ack=4,
                    data=b"x", credit=37)
    wire = encode(packet)
    assert wire[0] & CREDIT_FLAG
    assert len(wire) == HEADER_SIZE + CREDIT_SIZE + 1
    assert decode(wire).credit == 37


def test_config_defaults_off_and_validates():
    assert not AmConfig().credit_flow
    with pytest.raises(ValueError):
        AmConfig(credit_flow=True, congestion="ecn", adaptive_window=True)


def test_max_data_shrinks_by_credit_word_when_enabled():
    _, off, _ = build_pair(config=AmConfig())
    _, on, _ = build_pair(config=AmConfig(credit_flow=True))
    assert off.max_data - on.max_data == CREDIT_SIZE


# ---------------------------------------------------------------- behaviour


def test_credit_disabled_peers_never_learn_remote_credit():
    sim, am0, am1 = build_pair(config=AmConfig())
    am1.register_handler(1, lambda ctx: None)

    def tx():
        for _ in range(8):
            yield from am0.request(1, 1, data=b"m")

    sim.process(tx())
    sim.run()
    peer = am0._peers_by_node[1]
    assert peer.remote_credit is None
    assert am0.credit_stalls == 0


def test_sender_stalls_on_exhausted_credit_and_all_arrive():
    # a shallow, slowly-dispatched receiver: advertisements go to zero,
    # the sender stalls instead of overrunning the receive queue
    rx_config = EndpointConfig(num_buffers=32, buffer_size=2048,
                               send_queue_depth=16, recv_queue_depth=4)
    config = AmConfig(credit_flow=True, dispatch_overhead_us=40.0,
                      retransmit_timeout_us=4000.0)
    sim, am0, am1 = build_pair(config=config, rx_config=rx_config, rx_buffers=8)
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def tx():
        for k in range(40):
            yield from am0.request(1, 1, args=(k,), data=bytes(100))

    sim.process(tx())
    sim.run(until=500_000.0)
    assert seen == list(range(40))
    assert am0.credit_stalls > 0
    assert am0._peers_by_node[1].remote_credit is not None


def test_credit_reduces_overrun_drops_versus_fixed():
    rx_config = EndpointConfig(num_buffers=32, buffer_size=2048,
                               send_queue_depth=16, recv_queue_depth=4)

    def run(credit_flow):
        config = AmConfig(credit_flow=credit_flow, dispatch_overhead_us=40.0,
                          retransmit_timeout_us=2000.0)
        sim, am0, am1 = build_pair(config=config, rx_config=rx_config,
                                   rx_buffers=8)
        am1.register_handler(1, lambda ctx: None)

        def tx():
            for k in range(40):
                yield from am0.request(1, 1, args=(k,), data=bytes(100))

        sim.process(tx())
        sim.run(until=500_000.0)
        drops = am1.user.endpoint.recv_queue_drops
        rexmit = sum(p.retransmissions for p in am0._peers_by_node.values())
        return drops, rexmit

    fixed_drops, fixed_rexmit = run(False)
    credit_drops, credit_rexmit = run(True)
    assert credit_drops < fixed_drops
    assert credit_rexmit <= fixed_rexmit


def test_refresh_loop_unsticks_a_stalled_sender():
    # consume without generating reverse traffic: only the periodic
    # refresh can re-open the window after the receiver drains
    rx_config = EndpointConfig(num_buffers=32, buffer_size=2048,
                               send_queue_depth=16, recv_queue_depth=4)
    config = AmConfig(credit_flow=True, dispatch_overhead_us=60.0,
                      retransmit_timeout_us=8000.0)
    sim, am0, am1 = build_pair(config=config, rx_config=rx_config, rx_buffers=8)
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def tx():
        for k in range(24):
            yield from am0.request(1, 1, args=(k,), data=bytes(100))

    sim.process(tx())
    sim.run(until=500_000.0)
    assert seen == list(range(24))
