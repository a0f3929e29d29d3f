"""Endpoint teardown: protection after close, traffic to the dead."""

import pytest

from repro.atm import AtmNetwork
from repro.core import EndpointError
from repro.ethernet import HubNetwork
from repro.hw import PENTIUM_120, BufferAreaError
from repro.sim import Simulator, SimulatorClosed

#: networks the current test built; closed (idempotently) when it ends
_BUILT = []


@pytest.fixture(autouse=True)
def close_what_was_built():
    yield
    while _BUILT:
        _BUILT.pop().close()


def _pair(network_cls):
    sim = Simulator()
    net = network_cls(sim)
    h1 = net.add_host("h1", PENTIUM_120)
    h2 = net.add_host("h2", PENTIUM_120)
    ep1 = h1.create_endpoint(rx_buffers=8)
    ep2 = h2.create_endpoint(rx_buffers=8)
    ch1, ch2 = net.connect(ep1, ep2)
    _BUILT.append(net)
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
    _BUILT.append(net)
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


# -- what close() means in the awkward cases --------------------------------
def _step_until(sim, condition, limit=100_000):
    for _ in range(limit):
        if condition():
            return
        sim.step()
    raise AssertionError("condition never held")


@pytest.mark.parametrize("network_cls", [HubNetwork, AtmNetwork])
def test_endpoint_destroyed_while_the_ni_is_mid_receive(network_cls):
    """The NI holds the endpoint across its buffer-fill wait; destroying
    it in that window drops the message (counted on both sides) instead
    of writing into a buffer area that is gone."""
    sim, ep1, ep2, ch1, ch2 = _pair(network_cls)
    backend2 = ep2.backend
    sim.process(ep1.send(ch1, bytes(1400)))
    # a receive buffer leaves the free queue once the PDU is past the demux
    _step_until(sim, lambda: len(ep2.endpoint.free_queue) < 8)
    if network_cls is AtmNetwork:
        # ... and on ATM the fill happens after the last cell, at the CRC check
        _step_until(sim, lambda: not backend2._reassembly)
    ep2.close()
    sim.run()
    assert backend2.recv_queue_drops == 1
    assert ep2.endpoint.drop_stats()["recv_queue_drops"] == 1
    assert ep2.endpoint.messages_received == 0 and not ep2.endpoint.recv_queue


@pytest.mark.parametrize("network_cls", [HubNetwork, AtmNetwork])
def test_endpoint_destroyed_with_a_descriptor_inside_the_ni(network_cls):
    """A send descriptor the NI already took finds no channel and no
    buffers: dropped without a trace, as an unregistered channel is."""
    sim, ep1, ep2, ch1, ch2 = _pair(network_cls)
    sim.process(ep1.send(ch1, bytes(300)))
    _step_until(sim, lambda: ep1.endpoint.messages_sent == 1
                and not ep1.endpoint.send_queue)
    ep1.close()
    sim.run()
    assert ep2.endpoint.messages_received == 0


def test_closing_with_an_exported_view_leaves_the_view_readable():
    """``close()`` never unmaps pages under a holder: the area is closed
    at once, the map goes when the last view does."""
    sim, ep1, ep2, ch1, ch2 = _pair(HubNetwork)
    area = ep1.endpoint.buffers
    area.buffer(3).write(b"pinned")
    whole, one = area.storage_view, area.buffer(3).view(6)
    _BUILT[-1].close()
    assert area.closed and area.num_buffers == 0
    assert bytes(one) == b"pinned" and bytes(whole[3 * area.buffer_size:][:6]) == b"pinned"
    with pytest.raises(BufferAreaError):
        area.buffer(3)


def test_closing_the_network_from_inside_a_process_is_refused():
    sim, ep1, ep2, ch1, ch2 = _pair(HubNetwork)
    network = _BUILT[-1]

    def program():
        yield 1.0
        with pytest.raises(SimulatorClosed):
            network.close()
        return len(ep1.endpoint.free_queue)

    assert sim.run_until_complete(sim.process(program())) == 8  # nothing was released
    network.close()
    assert ep1.endpoint.closed and ep2.endpoint.closed
