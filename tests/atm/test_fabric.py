"""Tests for network-wide virtual circuits across multi-switch fabrics."""

import pytest

from repro.atm import AtmFabric
from repro.core import ChannelError
from repro.hw import PENTIUM_120
from repro.sim import Simulator


def _fabric(closing, switches, placements):
    sim = Simulator()
    fabric = closing(AtmFabric(sim, switches=switches))
    endpoints = []
    for i, switch in enumerate(placements):
        host = fabric.add_host(f"h{i}", PENTIUM_120, switch=switch)
        endpoints.append(host.create_endpoint(rx_buffers=16))
    return sim, fabric, endpoints


def _transfer(sim, src, dst, channel, payload):
    def tx():
        yield from src.send(channel, payload)

    sim.process(tx())

    def rx():
        return (yield from dst.recv())

    return sim.run_until_complete(sim.process(rx()))


def _rtt(sim, ep1, ep2, ch1, ch2, size=40):
    def ponger():
        while True:
            msg = yield from ep2.recv()
            yield from ep2.send(ch2, msg.data)

    def pinger():
        last = 0.0
        for _ in range(3):
            t0 = sim.now
            yield from ep1.send(ch1, b"x" * size)
            yield from ep1.recv()
            last = sim.now - t0
        return last

    sim.process(ponger())
    return sim.run_until_complete(sim.process(pinger()))


def test_single_switch_fabric_equivalent_to_network(closing):
    sim, fabric, (ep1, ep2) = _fabric(closing, 1, [0, 0])
    ch1, ch2 = fabric.connect(ep1, ep2)
    msg = _transfer(sim, ep1, ep2, ch1, b"one hop")
    assert msg.data == b"one hop"


def test_cross_switch_delivery(closing):
    sim, fabric, (ep1, ep2) = _fabric(closing, 2, [0, 1])
    ch1, ch2 = fabric.connect(ep1, ep2)
    payload = bytes(range(200)) + bytes(range(200))
    msg = _transfer(sim, ep1, ep2, ch1, payload)
    assert msg.data == payload
    assert fabric.hops_between(ep1, ep2) == 2
    # cells really crossed both switches
    assert fabric.switches[0].cells_forwarded > 0
    assert fabric.switches[1].cells_forwarded > 0


def test_three_switch_chain_routing(closing):
    sim, fabric, (ep1, ep2, ep3) = _fabric(closing, 3, [0, 2, 1])
    ch12, ch21 = fabric.connect(ep1, ep2)  # 0 <-> 2: across all three
    ch13, ch31 = fabric.connect(ep1, ep3)  # 0 <-> 1
    got = {}

    def tx():
        yield from ep1.send(ch12, b"to-far")
        yield from ep1.send(ch13, b"to-mid")

    def rx(tag, ep):
        def proc():
            msg = yield from ep.recv()
            got[tag] = msg.data

        return proc

    sim.process(tx())
    sim.process(rx("far", ep2)())
    sim.process(rx("mid", ep3)())
    sim.run()
    assert got == {"far": b"to-far", "mid": b"to-mid"}


def test_latency_grows_per_switch_hop(closing):
    sim, fabric, (a1, a2) = _fabric(closing, 1, [0, 0])
    ch1, ch2 = fabric.connect(a1, a2)
    one_switch = _rtt(sim, a1, a2, ch1, ch2)

    sim3, fabric3, (b1, b2) = _fabric(closing, 3, [0, 2])
    ch1, ch2 = fabric3.connect(b1, b2)
    three_switches = _rtt(sim3, b1, b2, ch1, ch2)

    # two extra ASX-200s (~7us each) + trunk serialization per direction
    extra = three_switches - one_switch
    assert 2 * 2 * 7.0 * 0.7 < extra < 120.0


def test_reverse_direction_path(closing):
    # host on the higher-numbered switch initiates
    sim, fabric, (ep1, ep2) = _fabric(closing, 2, [1, 0])
    ch1, ch2 = fabric.connect(ep1, ep2)
    msg = _transfer(sim, ep1, ep2, ch1, b"downhill")
    assert msg.data == b"downhill"


def test_unattached_host_rejected(closing):
    sim, fabric, (ep1, ep2) = _fabric(closing, 2, [0, 1])
    other_sim_fabric = closing(AtmFabric(Simulator(), switches=1))
    foreign_host = other_sim_fabric.add_host("x", PENTIUM_120)
    foreign_ep = foreign_host.create_endpoint(rx_buffers=4)
    with pytest.raises(ChannelError):
        fabric.connect(ep1, foreign_ep)


def test_invalid_switch_index():
    sim = Simulator()
    with pytest.raises(ValueError):
        AtmFabric(sim, switches=0)
    sim.close()


def test_active_messages_across_fabric(closing):
    from repro.am import AmEndpoint

    sim, fabric, (ep1, ep2) = _fabric(closing, 3, [0, 2])
    ch1, ch2 = fabric.connect(ep1, ep2)
    am1, am2 = AmEndpoint(0, ep1), AmEndpoint(1, ep2)
    am1.connect_peer(1, ch1)
    am2.connect_peer(0, ch2)
    am2.register_handler(9, lambda ctx: ctx.reply(data=ctx.data[::-1]))

    def caller():
        _args, data = yield from am1.rpc(1, 9, data=b"network-wide vc")
        return data

    assert sim.run_until_complete(sim.process(caller())) == b"cv ediw-krowten"
