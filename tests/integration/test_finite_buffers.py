"""Finite switch output buffering: incast overflows drop, AM recovers."""

import pytest

from repro.am import AmConfig, AmEndpoint
from repro.atm import AtmNetwork
from repro.core import EndpointConfig
from repro.ethernet import EthernetSwitch, BAY_28115, SwitchedNetwork
from repro.hw import PENTIUM_120
from repro.sim import Simulator
from repro.telemetry import total

CONFIG = EndpointConfig(num_buffers=256, buffer_size=2048,
                        send_queue_depth=128, recv_queue_depth=256)


def test_fe_switch_incast_overflows_small_buffers(closing):
    sim = Simulator()
    net = closing(SwitchedNetwork(sim))
    # rebuild the switch with tiny egress buffers
    net.switch = EthernetSwitch(sim, BAY_28115, output_buffer=2)
    hosts = [net.add_host(f"h{i}", PENTIUM_120) for i in range(4)]
    endpoints = [h.create_endpoint(config=CONFIG, rx_buffers=64) for h in hosts]
    ams = [AmEndpoint(i, endpoints[i], config=AmConfig(retransmit_timeout_us=500.0))
           for i in range(4)]
    channels = {}
    for i in range(1, 4):
        ch_0, ch_i = net.connect(endpoints[0], endpoints[i])
        ams[0].connect_peer(i, ch_0)
        ams[i].connect_peer(0, ch_i)
    received = []
    ams[0].register_handler(1, lambda ctx: received.append((ctx.src_node, ctx.args[0])))

    def blast(am, node):
        def proc():
            for i in range(12):
                yield from am.request(0, 1, args=(i,), data=b"z" * 1400)

        return proc

    for i in range(1, 4):
        sim.process(blast(ams[i], i)())
    sim.run()
    # three senders into one egress port with 2-frame buffers: drops
    assert total(net.switch, "dropped") > 0
    # ... which the AM layer repaired: every message exactly once
    for src in (1, 2, 3):
        got = sorted(v for s, v in received if s == src)
        assert got == list(range(12))


def test_atm_switch_incast_overflows_small_buffers(closing):
    sim = Simulator()
    net = closing(AtmNetwork(sim))
    net.switch.output_buffer = 16
    hosts = [net.add_host(f"h{i}", PENTIUM_120) for i in range(4)]
    endpoints = [h.create_endpoint(config=CONFIG, rx_buffers=64) for h in hosts]
    ams = [AmEndpoint(i, endpoints[i], config=AmConfig(retransmit_timeout_us=800.0))
           for i in range(4)]
    for i in range(1, 4):
        ch_0, ch_i = net.connect(endpoints[0], endpoints[i])
        ams[0].connect_peer(i, ch_0)
        ams[i].connect_peer(0, ch_i)
    received = []
    ams[0].register_handler(1, lambda ctx: received.append((ctx.src_node, ctx.args[0])))

    def blast(am):
        def proc():
            for i in range(8):
                yield from am.request(0, 1, args=(i,), data=b"q" * 1400)

        return proc

    for i in range(1, 4):
        sim.process(blast(ams[i])())
    sim.run(until=200_000.0)
    assert total(net.switch, "dropped") > 0
    for src in (1, 2, 3):
        got = sorted(v for s, v in received if s == src)
        assert got == list(range(8))


def test_unbounded_buffers_never_drop(closing):
    sim = Simulator()
    net = closing(SwitchedNetwork(sim))
    h1 = net.add_host("h1", PENTIUM_120)
    h2 = net.add_host("h2", PENTIUM_120)
    ep1 = h1.create_endpoint(config=CONFIG, rx_buffers=64)
    ep2 = h2.create_endpoint(config=CONFIG, rx_buffers=64)
    ch1, ch2 = net.connect(ep1, ep2)

    def tx():
        for _ in range(30):
            yield from ep1.send(ch1, b"f" * 1000)

    def rx():
        for _ in range(30):
            yield from ep2.recv()

    sim.process(tx())
    sim.run_until_complete(sim.process(rx()))
    assert total(net.switch, "dropped") == 0
