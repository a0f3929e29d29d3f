"""Integration tests for the in-kernel U-Net/FE backend."""

import pytest

from repro.core import EndpointConfig, MessageTooLarge
from repro.ethernet import FN100, HubNetwork, SwitchedNetwork, RX_TRACE, TX_TRACE
from repro.sim import Simulator, TraceRecorder


@pytest.fixture
def build_pair(two_hosts):
    def build(kind="hub", rx_buffers=16, trace=None, config=None):
        sim = Simulator()
        net = HubNetwork(sim) if kind == "hub" else SwitchedNetwork(sim, model=kind)
        rig = two_hosts(net, config=config, rx_buffers=rx_buffers, trace=trace)
        return sim, net, rig.ep1, rig.ep2, rig.ch1, rig.ch2

    return build


def transfer(sim, src, dst, channel, payload):
    def tx():
        yield from src.send(channel, payload)

    sim.process(tx())

    def rx():
        return (yield from dst.recv())

    return sim.run_until_complete(sim.process(rx()))


def test_small_message_roundtrip_hub(build_pair):
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    msg = transfer(sim, ep1, ep2, ch1, b"hello")
    assert msg.data == b"hello"


def test_small_message_inline_no_buffer_used(build_pair):
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    transfer(sim, ep1, ep2, ch1, b"x" * 64)  # at the threshold
    assert len(ep2.endpoint.free_queue) == 16


def test_65_bytes_uses_buffer(build_pair):
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    seen = []
    original_deliver = ep2.endpoint.deliver

    def spy(descriptor):
        seen.append(descriptor.is_inline)
        return original_deliver(descriptor)

    ep2.endpoint.deliver = spy
    transfer(sim, ep1, ep2, ch1, b"x" * 65)
    assert seen == [False]


def test_large_message_roundtrip_switch(build_pair):
    sim, net, ep1, ep2, ch1, ch2 = build_pair(kind=FN100)
    payload = bytes((i * 3) % 256 for i in range(1498))
    msg = transfer(sim, ep1, ep2, ch1, payload)
    assert msg.data == payload


def test_pdu_limit_1498(build_pair):
    sim, net, ep1, ep2, ch1, ch2 = build_pair()

    def tx():
        yield from ep1.send(ch1, b"x" * 1499)

    with pytest.raises(MessageTooLarge):
        sim.run_until_complete(sim.process(tx()))


def test_message_spanning_multiple_endpoint_buffers(build_pair):
    config = EndpointConfig(num_buffers=64, buffer_size=256)
    sim, net, ep1, ep2, ch1, ch2 = build_pair(config=config, rx_buffers=24)
    payload = bytes((7 * i) % 256 for i in range(1000))
    msg = transfer(sim, ep1, ep2, ch1, payload)
    assert msg.data == payload


def test_no_free_buffers_drops_large_message(build_pair):
    sim, net, ep1, ep2, ch1, ch2 = build_pair(rx_buffers=0)

    def tx():
        yield from ep1.send(ch1, b"b" * 500)

    sim.process(tx())
    sim.run()
    backend2 = ep2.host.backend
    assert backend2.no_buffer_drops == 1
    assert ep2.endpoint.recv_queue.is_empty


def test_small_messages_still_arrive_without_free_buffers(build_pair):
    # the inline optimization needs no buffers at all
    sim, net, ep1, ep2, ch1, ch2 = build_pair(rx_buffers=0)
    msg = transfer(sim, ep1, ep2, ch1, b"tiny")
    assert msg.data == b"tiny"


def test_batched_sends_single_trap(build_pair):
    """Section 4.3.2: the kernel services the whole send queue per trap."""
    trace = TraceRecorder()
    sim, net, ep1, ep2, ch1, ch2 = build_pair(trace=trace)

    def tx():
        yield from ep1.send(ch1, b"a" * 20, kick=False)
        yield from ep1.send(ch1, b"b" * 20, kick=False)
        yield from ep1.send(ch1, b"c" * 20, kick=True)

    received = []

    def rx():
        while len(received) < 3:
            msg = yield from ep2.recv()
            received.append(msg.data)

    sim.process(tx())
    sim.run_until_complete(sim.process(rx()))
    assert received == [b"a" * 20, b"b" * 20, b"c" * 20]
    tx_spans = [s for s in trace.spans(TX_TRACE)]
    assert len(tx_spans) == 1  # one trap serviced all three messages


def test_trap_total_matches_figure3(build_pair):
    trace = TraceRecorder()
    sim, net, ep1, ep2, ch1, ch2 = build_pair(trace=trace)
    transfer(sim, ep1, ep2, ch1, b"x" * 40)
    span = trace.last_span(TX_TRACE)
    assert span.total == pytest.approx(4.2, abs=0.05)  # Figure 3: 4.2 us


def test_rx_handler_totals_match_figure4(build_pair):
    def handler_total(size):
        trace = TraceRecorder()
        sim, net, ep1, ep2, ch1, ch2 = build_pair(trace=trace)
        transfer(sim, ep1, ep2, ch1, b"x" * size)
        span = trace.last_span(RX_TRACE)
        return span.total

    # Figure 4: 4.1 us for 40 bytes (inline), 5.6 us for 100 bytes
    # (our span includes one extra empty ring poll at the handler tail)
    extra_poll = 0.52
    assert handler_total(40) == pytest.approx(4.1 + extra_poll, abs=0.25)
    assert handler_total(100) == pytest.approx(5.6 + extra_poll, abs=0.25)


def test_smallmsg_ablation_slows_small_receives(build_pair):
    def rtt(enabled):
        sim, net, ep1, ep2, ch1, ch2 = build_pair()
        for ep in (ep1, ep2):
            ep.host.backend.small_message_optimization = enabled

        def ponger():
            while True:
                msg = yield from ep2.recv()
                yield from ep2.send(ch2, msg.data)

        def pinger():
            last = 0.0
            for _ in range(3):
                t0 = sim.now
                yield from ep1.send(ch1, b"s" * 40)
                yield from ep1.recv()
                last = sim.now - t0
            return last

        sim.process(ponger())
        return sim.run_until_complete(sim.process(pinger()))

    assert rtt(False) > rtt(True)


def test_protection_unknown_tag_dropped(build_pair):
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    backend2 = ep2.host.backend
    # forge a frame with an unregistered port combination
    from repro.ethernet import EthernetFrame
    from repro.ethernet.dc21140 import RxRingBuffer

    rogue = EthernetFrame(dst_mac=backend2.mac, src_mac=77, dst_port=200, src_port=3, payload=b"evil")
    backend2.nic.rx_ring.push(RxRingBuffer(frame=rogue))
    backend2.nic.interrupt()
    sim.run()
    assert backend2.demux.unknown_tag_drops == 1
    assert ep2.endpoint.recv_queue.is_empty


def test_in_order_stream(build_pair):
    sim, net, ep1, ep2, ch1, ch2 = build_pair(rx_buffers=32)
    payloads = [bytes([i]) * (1 + i * 53) for i in range(20)]
    received = []

    def tx():
        for p in payloads:
            yield from ep1.send(ch1, p)

    def rx():
        while len(received) < len(payloads):
            msg = yield from ep2.recv()
            received.append(msg.data)

    sim.process(tx())
    sim.run_until_complete(sim.process(rx()))
    assert received == payloads


def test_host_send_overhead_reported(build_pair):
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    # Section 4.4: approximately 4.2 us of processor overhead per send
    assert ep1.host.backend.host_send_overhead_us == pytest.approx(4.2, abs=0.05)
