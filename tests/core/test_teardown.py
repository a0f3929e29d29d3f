"""Endpoint teardown: protection after close, traffic to the dead."""

import pytest

from repro.atm import AtmNetwork
from repro.core import EndpointError
from repro.ethernet import HubNetwork
from repro.hw import PENTIUM_120
from repro.sim import Simulator


def _pair(network_cls):
    sim = Simulator()
    net = network_cls(sim)
    h1 = net.add_host("h1", PENTIUM_120)
    h2 = net.add_host("h2", PENTIUM_120)
    ep1 = h1.create_endpoint(rx_buffers=8)
    ep2 = h2.create_endpoint(rx_buffers=8)
    ch1, ch2 = net.connect(ep1, ep2)
    return sim, ep1, ep2, ch1, ch2


@pytest.mark.parametrize("network_cls", [HubNetwork, AtmNetwork])
def test_send_after_close_rejected(network_cls):
    sim, ep1, ep2, ch1, ch2 = _pair(network_cls)
    ep1.close()
    assert ep1.closed

    def tx():
        yield from ep1.send(ch1, b"zombie")

    with pytest.raises(EndpointError):
        sim.run_until_complete(sim.process(tx()))


@pytest.mark.parametrize("network_cls", [HubNetwork, AtmNetwork])
def test_traffic_to_closed_endpoint_dropped(network_cls):
    sim, ep1, ep2, ch1, ch2 = _pair(network_cls)
    ep2.close()
    backend2 = ep2.host.backend

    def tx():
        yield from ep1.send(ch1, b"to the dead")

    sim.process(tx())
    sim.run()
    assert ep2.endpoint.recv_queue.is_empty
    assert backend2.demux.unknown_tag_drops >= 1


def test_close_is_idempotent():
    sim, ep1, ep2, ch1, ch2 = _pair(HubNetwork)
    ep1.close()
    ep1.close()  # no error
    assert ep1.closed


def test_other_endpoints_unaffected_by_close():
    sim = Simulator()
    net = HubNetwork(sim)
    h1 = net.add_host("h1", PENTIUM_120)
    h2 = net.add_host("h2", PENTIUM_120)
    ep_a = h1.create_endpoint(rx_buffers=8)
    ep_b = h1.create_endpoint(rx_buffers=8)  # same NIC
    ep_c = h2.create_endpoint(rx_buffers=8)
    ep_d = h2.create_endpoint(rx_buffers=8)
    ch_ac, ch_ca = net.connect(ep_a, ep_c)
    ch_bd, ch_db = net.connect(ep_b, ep_d)
    ep_a.close()

    def tx():
        yield from ep_b.send(ch_bd, b"still alive")

    sim.process(tx())

    def rx():
        return (yield from ep_d.recv())

    msg = sim.run_until_complete(sim.process(rx()))
    assert msg.data == b"still alive"


def test_destroy_foreign_endpoint_rejected():
    sim, ep1, ep2, ch1, ch2 = _pair(HubNetwork)
    with pytest.raises(EndpointError):
        ep1.host.backend.destroy_endpoint(ep2.endpoint)
