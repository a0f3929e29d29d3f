"""Tests for the ATM signaling service (connection setup, VCIs)."""

import pytest

from repro.atm import AtmNetwork
from repro.atm.fabric import FIRST_USER_VCI
from repro.core import ChannelError
from repro.hw import PENTIUM_120
from repro.sim import Simulator


def _network(n=2):
    sim = Simulator()
    net = AtmNetwork(sim)
    hosts = [net.add_host(f"h{i}", PENTIUM_120) for i in range(n)]
    endpoints = [h.create_endpoint(rx_buffers=4) for h in hosts]
    return sim, net, endpoints


def test_vcis_start_above_reserved_range():
    sim, net, (ep1, ep2) = _network()
    net.connect(ep1, ep2)
    tag = ep1.endpoint.channels[0].tag
    assert tag.tx_vci >= FIRST_USER_VCI
    assert tag.rx_vci >= FIRST_USER_VCI


def test_vci_pairs_are_distinct_and_complementary():
    sim, net, (ep1, ep2) = _network()
    net.connect(ep1, ep2)
    tag1 = ep1.endpoint.channels[0].tag
    tag2 = ep2.endpoint.channels[0].tag
    assert tag1.tx_vci == tag2.rx_vci
    assert tag1.rx_vci == tag2.tx_vci
    assert tag1.tx_vci != tag1.rx_vci


def test_successive_connections_get_fresh_vcis():
    sim, net, endpoints = _network(3)
    net.connect(endpoints[0], endpoints[1])
    net.connect(endpoints[0], endpoints[2])
    vcis = set()
    for ep in endpoints:
        for binding in ep.endpoint.channels.values():
            vcis.add(binding.tag.tx_vci)
            vcis.add(binding.tag.rx_vci)
    assert len(vcis) == 4  # two duplex connections, four one-way VCs


def test_switch_routes_programmed_for_both_directions():
    sim, net, (ep1, ep2) = _network()
    net.connect(ep1, ep2)
    tag = ep1.endpoint.channels[0].tag
    assert tag.tx_vci in net.switch._routes
    assert tag.rx_vci in net.switch._routes


def test_unattached_host_rejected():
    sim, net, (ep1, ep2) = _network()
    other = AtmNetwork(Simulator())
    foreign = other.add_host("x", PENTIUM_120).create_endpoint(rx_buffers=2)
    with pytest.raises(ChannelError):
        net.connect(ep1, foreign)


def test_channel_ids_are_per_endpoint():
    sim, net, endpoints = _network(3)
    ch01, ch10 = net.connect(endpoints[0], endpoints[1])
    ch02, ch20 = net.connect(endpoints[0], endpoints[2])
    assert ch01 == 0 and ch02 == 1  # second channel on endpoint 0
    assert ch10 == 0 and ch20 == 0  # first channel on each peer
