"""Delivery and path spreading on the Clos builders, and the mixed relay."""

import pytest

from repro.ethernet import EthernetFrame
from repro.fabric import ClosAtmFabric, ClosFeNetwork, MixedFabric
from repro.hw import PENTIUM_120, SPARCSTATION_20
from repro.sim import Simulator
from repro.telemetry import total


def _transfer(sim, src, dst, channel, payload):
    def tx():
        yield from src.send(channel, payload)

    sim.process(tx())

    def rx():
        return (yield from dst.recv())

    return sim.run_until_complete(sim.process(rx()))


# ------------------------------------------------------------------ ATM Clos
def _atm_clos(closing, leaves=2, spines=2, hosts=4, per_leaf=2):
    sim = Simulator()
    fabric = closing(ClosAtmFabric(sim, leaves=leaves, spines=spines,
                                   hosts_per_leaf=per_leaf))
    endpoints = []
    for i in range(hosts):
        host = fabric.add_host(f"h{i}", SPARCSTATION_20)
        endpoints.append(host.create_endpoint(rx_buffers=16))
    return sim, fabric, endpoints


def test_atm_clos_delivers_across_leaves(closing):
    sim, fabric, (ep0, ep1, ep2, ep3) = _atm_clos(closing)
    ch, _ = fabric.connect(ep0, ep2)  # leaf 0 -> leaf 1, via a spine
    payload = bytes(range(256))
    msg = _transfer(sim, ep0, ep2, ch, payload)
    assert msg.data == payload


def test_atm_clos_spreads_connections_across_spines(closing):
    """Successive cross-leaf VCs rotate over the parallel spine paths."""
    sim, fabric, endpoints = _atm_clos(closing, leaves=2, spines=2, hosts=4, per_leaf=2)
    for src in (0, 1):
        for dst in (2, 3):
            fabric.connect(endpoints[src], endpoints[dst])

    def blast(src, dst, channel):
        def tx():
            yield from endpoints[src].send(channel, b"y" * 120)

        sim.process(tx())

    channels = []
    for src in (0, 1):
        for dst in (2, 3):
            channels.append(fabric.connect(endpoints[src], endpoints[dst]))
    for index, (ch, _) in enumerate(channels):
        blast(index % 2, 2 + index // 2, ch)
    sim.run()
    spine_switches = fabric.switches[2:]
    forwarded = [switch.cells_forwarded for switch in spine_switches]
    assert all(count > 0 for count in forwarded), (
        f"a spine sat idle: {forwarded}")


# ------------------------------------------------------------------- FE Clos
def _fe_clos(closing, leaves=2, spines=2, hosts=4, per_leaf=2, **kwargs):
    sim = Simulator()
    network = closing(ClosFeNetwork(sim, leaves=leaves, spines=spines,
                                    hosts_per_leaf=per_leaf, **kwargs))
    endpoints = []
    for i in range(hosts):
        host = network.add_host(f"h{i}", PENTIUM_120)
        endpoints.append(host.create_endpoint(rx_buffers=16))
    return sim, network, endpoints


def test_fe_clos_delivers_across_leaves(closing):
    sim, network, (ep0, ep1, ep2, ep3) = _fe_clos(closing)
    ch, _ = network.connect(ep0, ep3)
    payload = bytes(range(200))
    msg = _transfer(sim, ep0, ep3, ch, payload)
    assert msg.data == payload
    assert total(network, "dropped") == 0


def test_fe_clos_static_programming_spreads_spines(closing):
    """Hosts are spread round-robin over spines, so cross-leaf traffic
    to different destinations exercises different trunks."""
    sim, network, endpoints = _fe_clos(closing, leaves=2, spines=2, hosts=8, per_leaf=4)
    channels = {}
    for dst in (4, 5, 6, 7):  # all on leaf 1
        channels[dst] = network.connect(endpoints[0], endpoints[dst])[0]

    def tx():
        for dst, channel in channels.items():
            yield from endpoints[0].send(channel, b"z" * 100)

    sim.process(tx())
    sim.run()
    up = [network.trunk_link(0, network.leaves + spine).carried
          for spine in range(2)]
    assert all(count > 0 for count in up), f"a trunk sat idle: {up}"


def test_fe_clos_counts_a_trunk_drop_once(closing):
    """A trunk is a leaf's or a spine's egress port, so the fabric-wide
    drop count sees each of its overflows once."""
    _sim, network, _endpoints = _fe_clos(closing)
    trunk = network.trunk_link(0, network.leaves)  # leaf 0 -> spine 0
    trunk.buffer = 1  # one frame on the wire plus one queued
    for _ in range(6):
        trunk.submit(EthernetFrame(dst_mac=1, src_mac=2, dst_port=1, src_port=1,
                                   payload=bytes(1000)))
    assert trunk.dropped == 4
    assert total(network, "dropped") == 4


# -------------------------------------------------------------- mixed fabric
def test_mixed_fabric_native_and_spliced_channels(closing):
    sim = Simulator()
    fabric = closing(MixedFabric(sim, hosts_per_leaf=2))
    atm_a = fabric.add_host("a0", SPARCSTATION_20)   # sides alternate: ATM,
    fe_a = fabric.add_host("f0", PENTIUM_120)        # FE,
    atm_b = fabric.add_host("a1", SPARCSTATION_20)   # ATM
    ep_atm_a = atm_a.create_endpoint(rx_buffers=16)
    ep_atm_b = atm_b.create_endpoint(rx_buffers=16)
    ep_fe_a = fe_a.create_endpoint(rx_buffers=16)

    # native ATM channel: no relay involvement
    ch_native, _ = fabric.connect(ep_atm_a, ep_atm_b)
    msg = _transfer(sim, ep_atm_a, ep_atm_b, ch_native, b"native")
    assert msg.data == b"native"
    assert fabric.relayed_messages == 0

    # cross-substrate: spliced through the dual-homed relay
    ch_cross, _ = fabric.connect(ep_atm_a, ep_fe_a)
    msg = _transfer(sim, ep_atm_a, ep_fe_a, ch_cross, b"over the relay")
    assert msg.data == b"over the relay"
    assert fabric.relayed_messages == 1


def test_mixed_fabric_caps_atm_pdu_at_fe_mtu(closing):
    from repro.ethernet.frames import UNET_FE_MAX_PDU

    sim = Simulator()
    fabric = closing(MixedFabric(sim, hosts_per_leaf=2))
    atm_host = fabric.add_host("a0", SPARCSTATION_20)  # the first host is ATM-side
    # path-MTU rule: an ATM-side host must not emit what FE cannot carry
    assert atm_host.backend.max_pdu == UNET_FE_MAX_PDU
