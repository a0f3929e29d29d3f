"""Multiple endpoints per interface: the multiplexing U-Net exists for.

"The role of U-Net is limited to multiplexing the actual NI among all
processes accessing the network and enforcing protection boundaries"
(Section 3).  These tests run several independent applications over one
NIC on each substrate and check isolation.
"""

import pytest

from repro.atm import AtmNetwork
from repro.ethernet import HubNetwork
from repro.sim import Simulator


@pytest.fixture
def two_apps_one_nic(two_hosts):
    def build(network_cls):
        rig = two_hosts(network_cls(Simulator()), names=("server", "client"),
                        config=None, rx_buffers=8)
        # the server machine runs TWO processes, each with its own endpoint
        ep_app2 = rig.ep1.host.create_endpoint(rx_buffers=8)
        ep_c2 = rig.ep2.host.create_endpoint(rx_buffers=8)
        ch_a2, ch_c2 = rig.net.connect(ep_app2, ep_c2)
        return rig.sim, (rig.ep1, rig.ch1), (ep_app2, ch_a2), (rig.ep2, rig.ch2), (ep_c2, ch_c2)

    return build


@pytest.mark.parametrize("network_cls", [HubNetwork, AtmNetwork])
def test_two_processes_share_one_interface(network_cls, two_apps_one_nic):
    sim, (a1, ch_a1), (a2, ch_a2), (c1, ch_c1), (c2, ch_c2) = two_apps_one_nic(network_cls)
    got = {}

    def client_sends():
        yield from c1.send(ch_c1, b"for app one")
        yield from c2.send(ch_c2, b"for app two")

    def app(tag, ep):
        def proc():
            msg = yield from ep.recv()
            got[tag] = msg.data

        return proc

    sim.process(client_sends())
    sim.process(app(1, a1)())
    sim.process(app(2, a2)())
    sim.run()
    # each message landed at exactly the endpoint it was addressed to
    assert got == {1: b"for app one", 2: b"for app two"}


@pytest.mark.parametrize("network_cls", [HubNetwork, AtmNetwork])
def test_endpoint_isolation_under_interleaved_traffic(network_cls, two_apps_one_nic):
    sim, (a1, ch_a1), (a2, ch_a2), (c1, ch_c1), (c2, ch_c2) = two_apps_one_nic(network_cls)
    received = {1: [], 2: []}

    def client_interleaves():
        for i in range(8):
            yield from c1.send(ch_c1, bytes([1, i]))
            yield from c2.send(ch_c2, bytes([2, i]))

    def app(tag, ep):
        def proc():
            while len(received[tag]) < 8:
                msg = yield from ep.recv()
                received[tag].append(msg.data)

        return proc

    sim.process(client_interleaves())
    p1 = sim.process(app(1, a1)())
    p2 = sim.process(app(2, a2)())
    sim.run_until_complete(p1)
    sim.run_until_complete(p2)
    assert received[1] == [bytes([1, i]) for i in range(8)]
    assert received[2] == [bytes([2, i]) for i in range(8)]


def test_endpoint_cannot_send_on_foreign_channel(two_apps_one_nic):
    """Protection: a channel id registered on one endpoint means nothing
    on another endpoint of the same host."""
    from repro.core import ChannelError

    sim, (a1, ch_a1), (a2, ch_a2), (c1, ch_c1), _ = two_apps_one_nic(HubNetwork)
    # app2 tries to use app1's channel id on its own endpoint: its own
    # channel 0 happens to exist, but a bogus id must be rejected
    bogus = 77

    def evil():
        yield from a2.send(bogus, b"spoof")

    with pytest.raises(ChannelError):
        sim.run_until_complete(sim.process(evil()))


def test_many_endpoints_round_robin_service_atm(two_hosts):
    """The i960 polls all endpoints with pending sends (Section 4.2.2)."""
    rig = two_hosts(AtmNetwork(Simulator()), names=("sender", "receiver"),
                    config=None, rx_buffers=4)
    sim, sender, receiver = rig.sim, rig.ep1.host, rig.ep2.host
    pairs = [(rig.ep1, rig.ch1, rig.ep2)]
    for i in range(3):
        ep_s = sender.create_endpoint(rx_buffers=4)
        ep_r = receiver.create_endpoint(rx_buffers=4)
        ch_s, ch_r = rig.net.connect(ep_s, ep_r)
        pairs.append((ep_s, ch_s, ep_r))
    done = []

    def tx(ep, ch, i):
        def proc():
            yield from ep.send(ch, bytes([i]) * 30)

        return proc

    def rx(ep, i):
        def proc():
            msg = yield from ep.recv()
            done.append((i, msg.data[0]))

        return proc

    for i, (ep_s, ch_s, ep_r) in enumerate(pairs):
        sim.process(tx(ep_s, ch_s, i)())
        sim.process(rx(ep_r, i)())
    sim.run()
    assert sorted(done) == [(i, i) for i in range(4)]
