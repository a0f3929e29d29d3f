"""Tests for the IPv4/UDP encapsulation extension (Section 4.4.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ethernet import (
    IP_ENCAP_OVERHEAD,
    UNET_FE_IP_MAX_PDU,
    IpHeaderError,
    RoutedFeNetwork,
    build_ipv4_udp,
    internet_checksum,
    parse_ipv4_udp,
)
from repro.ethernet.ip import _decrement_ttl
from repro.core import MessageTooLarge
from repro.ethernet.unet_fe import TX_TRACE
from repro.sim import Simulator, TraceRecorder

IP_A = (10 << 24) | 1
IP_B = (10 << 24) | (1 << 8) | 1


# ------------------------------------------------------------- wire format


def test_header_roundtrip():
    datagram = build_ipv4_udp(IP_A, IP_B, 4000, 4001, b"unet over ip")
    src, dst, sp, dp, ttl, payload = parse_ipv4_udp(datagram)
    assert (src, dst, sp, dp) == (IP_A, IP_B, 4000, 4001)
    assert ttl == 64
    assert payload == b"unet over ip"
    assert len(datagram) == IP_ENCAP_OVERHEAD + 12


def test_header_checksum_detects_corruption():
    datagram = bytearray(build_ipv4_udp(IP_A, IP_B, 1, 2, b"x"))
    datagram[16] ^= 0x01  # flip a destination-address bit
    with pytest.raises(IpHeaderError):
        parse_ipv4_udp(bytes(datagram))


def test_short_datagram_rejected():
    with pytest.raises(IpHeaderError):
        parse_ipv4_udp(b"\x45\x00")


def test_length_mismatch_rejected():
    datagram = build_ipv4_udp(IP_A, IP_B, 1, 2, b"abcdef")
    with pytest.raises(IpHeaderError):
        parse_ipv4_udp(datagram[:-1])


def test_ttl_decrement_preserves_validity():
    datagram = build_ipv4_udp(IP_A, IP_B, 1, 2, b"hop")
    forwarded = _decrement_ttl(datagram)
    src, dst, _sp, _dp, ttl, payload = parse_ipv4_udp(forwarded)
    assert ttl == 63
    assert payload == b"hop"


def test_ttl_expiry():
    datagram = build_ipv4_udp(IP_A, IP_B, 1, 2, b"x")
    for _ in range(63):                  # 64 hops' worth of routers ...
        datagram = _decrement_ttl(datagram)
    with pytest.raises(IpHeaderError):   # ... and the 64th refuses it
        _decrement_ttl(datagram)


def test_internet_checksum_known_vector():
    # classic RFC1071 example
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert internet_checksum(data) == 0x220D


@given(payload=st.binary(max_size=512),
       src=st.integers(0, 2**32 - 1), dst=st.integers(0, 2**32 - 1),
       sp=st.integers(0, 65535), dp=st.integers(0, 65535))
@settings(max_examples=60)
def test_property_header_roundtrip(payload, src, dst, sp, dp):
    datagram = build_ipv4_udp(src, dst, sp, dp, payload)
    got = parse_ipv4_udp(datagram)
    assert got[:4] == (src, dst, sp, dp)
    assert got[5] == payload
    # the transmitted header checksum verifies to zero
    assert internet_checksum(datagram[:20]) == 0


@given(payload=st.binary(min_size=1, max_size=64), flip=st.integers(0, 19 * 8 - 1))
@settings(max_examples=50)
def test_property_single_bit_header_corruption_detected(payload, flip):
    datagram = bytearray(build_ipv4_udp(IP_A, IP_B, 7, 9, payload))
    byte, bit = divmod(flip, 8)
    if byte in (10, 11):
        return  # flipping the checksum field itself is also detected, but trivially
    datagram[byte] ^= 1 << bit
    with pytest.raises(IpHeaderError):
        parse_ipv4_udp(bytes(datagram))


# ------------------------------------------------------------- routed U-Net


@pytest.fixture
def routed_pair(two_hosts):
    def build(cross: bool):
        net = RoutedFeNetwork(Simulator(), segments=2)
        rig = two_hosts(net, config=None, rx_buffers=16,
                        where=({"segment": 0}, {"segment": 1 if cross else 0}))
        return rig.sim, net, rig.ep1, rig.ep2, rig.ch1, rig.ch2

    return build


def _transfer(sim, src, dst, channel, payload):
    def tx():
        yield from src.send(channel, payload)

    sim.process(tx())

    def rx():
        return (yield from dst.recv())

    return sim.run_until_complete(sim.process(rx()))


def test_same_segment_ip_channel_delivers(routed_pair):
    sim, net, ep1, ep2, ch1, ch2 = routed_pair(cross=False)
    msg = _transfer(sim, ep1, ep2, ch1, b"local")
    assert msg.data == b"local"
    assert net.router.packets_forwarded == 0  # direct, no router hop


def test_cross_segment_via_router(routed_pair):
    sim, net, ep1, ep2, ch1, ch2 = routed_pair(cross=True)
    msg = _transfer(sim, ep1, ep2, ch1, b"routed hello")
    assert msg.data == b"routed hello"
    assert net.router.packets_forwarded == 1


def test_cross_segment_bidirectional(routed_pair):
    sim, net, ep1, ep2, ch1, ch2 = routed_pair(cross=True)
    out = {}

    def side(name, ep, ch, data):
        def proc():
            yield from ep.send(ch, data)
            msg = yield from ep.recv()
            out[name] = msg.data

        return proc

    sim.process(side("a", ep1, ch1, b"a->b")())
    sim.process(side("b", ep2, ch2, b"b->a")())
    sim.run()
    assert out == {"a": b"b->a", "b": b"a->b"}


def test_ip_mode_shrinks_max_pdu(routed_pair):
    sim, net, ep1, ep2, ch1, ch2 = routed_pair(cross=False)
    assert ep1.host.backend.max_pdu == UNET_FE_IP_MAX_PDU == 1470

    def tx():
        yield from ep1.send(ch1, b"x" * 1471)

    with pytest.raises(MessageTooLarge):
        sim.run_until_complete(sim.process(tx()))


def test_max_ip_pdu_traverses_router(routed_pair):
    sim, net, ep1, ep2, ch1, ch2 = routed_pair(cross=True)
    payload = bytes((i * 11) % 256 for i in range(UNET_FE_IP_MAX_PDU))
    msg = _transfer(sim, ep1, ep2, ch1, payload)
    assert msg.data == payload


def test_router_latency_visible(routed_pair):
    def rtt(cross):
        sim, net, ep1, ep2, ch1, ch2 = routed_pair(cross)

        def ponger():
            while True:
                msg = yield from ep2.recv()
                yield from ep2.send(ch2, msg.data)

        def pinger():
            last = 0.0
            for _ in range(3):
                t0 = sim.now
                yield from ep1.send(ch1, b"p" * 40)
                yield from ep1.recv()
                last = sim.now - t0
            return last

        sim.process(ponger())
        return sim.run_until_complete(sim.process(pinger()))

    assert rtt(True) > rtt(False) + 2 * 50.0  # two router traversals


def test_router_drops_unknown_destination(routed_pair):
    sim, net, ep1, ep2, ch1, ch2 = routed_pair(cross=True)
    backend1 = ep1.host.backend
    from repro.ethernet import EthernetFrame, build_ipv4_udp as build

    rogue = build(backend1.ip_address, (10 << 24) | (1 << 8) | 99, 1, 2, b"lost")
    frame = EthernetFrame(dst_mac=net.router.port_mac(0), src_mac=backend1.mac,
                          dst_port=0, src_port=0, payload=rogue)
    net.router._on_frame(frame, 0)
    sim.run()
    assert net.router.drops_no_route == 1


def test_corrupted_ip_header_dropped_at_receiver(routed_pair):
    sim, net, ep1, ep2, ch1, ch2 = routed_pair(cross=False)
    backend2 = ep2.host.backend
    from repro.ethernet import EthernetFrame
    from repro.ethernet.dc21140 import RxRingBuffer

    bad = bytearray(build_ipv4_udp(ep1.host.backend.ip_address, backend2.ip_address, 0x4000, 0x4000, b"x"))
    bad[15] ^= 0xFF
    frame = EthernetFrame(dst_mac=backend2.mac, src_mac=ep1.host.backend.mac,
                          dst_port=0, src_port=0, payload=bytes(bad))
    backend2.nic.rx_ring.push(RxRingBuffer(frame=frame))
    backend2.nic.interrupt()
    sim.run()
    assert backend2.ip_header_drops == 1
    assert ep2.endpoint.recv_queue.is_empty


def test_active_messages_work_across_router(routed_pair):
    from repro.am import AmEndpoint

    sim, net, ep1, ep2, ch1, ch2 = routed_pair(cross=True)
    am1 = AmEndpoint(0, ep1)
    am2 = AmEndpoint(1, ep2)
    am1.connect_peer(1, ch1)
    am2.connect_peer(0, ch2)
    am2.register_handler(5, lambda ctx: ctx.reply(args=(ctx.args[0] * 3,)))

    def caller():
        args, _data = yield from am1.rpc(1, 5, args=(14,))
        return args[0]

    assert sim.run_until_complete(sim.process(caller())) == 42


def test_encapsulating_trap_traces_each_step_where_it_ran(routed_pair):
    """Header set-up, encapsulation and ring set-up sleep as one wake;
    each is still recorded at the instant the step-by-step trap reached."""
    sim, net, ep1, ep2, ch1, ch2 = routed_pair(cross=False)
    trace = TraceRecorder()
    ep1.backend.trace.subscribe(trace.records.append)
    _transfer(sim, ep1, ep2, ch1, b"")
    assert [(r.start, r.duration, r.step) for r in trace.by_category(TX_TRACE)] == [
        (0.3, 0.6, "trap entry overhead"),
        (0.8999999999999999, 0.74, "check U-Net send parameters"),
        (1.64, 0.37, "Ethernet header set-up"),
        (2.01, 4.5, "IPv4/UDP encapsulation"),
        (6.51, 0.56, "device send ring descriptor set-up"),
        (7.07, 0.29, "issue poll demand to DC21140"),
        (7.36, 0.92, "free send ring descriptor of previous message"),
        (8.280000000000001, 0.42, "free U-Net send queue entry of previous message"),
        (8.700000000000001, 0.3, "return from trap"),
    ]
