"""Integration tests for the U-Net/ATM backend (PCA-200 firmware)."""

import pytest

from repro.atm import AtmNetwork, Cell, SINGLE_CELL_MAX_PAYLOAD, TAXI_140
from repro.core import EndpointConfig, MessageTooLarge
from repro.hw import SPARCSTATION_20
from repro.atm.unet_atm import ATM_TX_TRACE
from repro.sim import Simulator, TraceRecorder
from tests.heap_census import heap_census


def build_pair(phy=None, rx_buffers=16, config=None):
    sim = Simulator()
    net = AtmNetwork(sim)
    kwargs = {} if phy is None else {"phy": phy}
    h1 = net.add_host("h1", SPARCSTATION_20, **kwargs)
    h2 = net.add_host("h2", SPARCSTATION_20, **kwargs)
    ep1 = h1.create_endpoint(config=config, rx_buffers=rx_buffers)
    ep2 = h2.create_endpoint(config=config, rx_buffers=rx_buffers)
    ch1, ch2 = net.connect(ep1, ep2)
    return sim, net, ep1, ep2, ch1, ch2


def transfer(sim, src, dst, channel, payload):
    def tx():
        yield from src.send(channel, payload)

    def rx():
        msg = yield from dst.recv()
        return msg

    sim.process(tx())
    return sim.run_until_complete(sim.process(rx()))


def test_small_message_delivered_inline():
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    msg = transfer(sim, ep1, ep2, ch1, b"ping")
    assert msg.data == b"ping"
    assert msg.channel_id == ch2
    # the fast path used no receive buffer
    assert len(ep2.endpoint.free_queue) == 16


def test_single_cell_boundary_uses_fast_path():
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    payload = b"x" * SINGLE_CELL_MAX_PAYLOAD
    msg = transfer(sim, ep1, ep2, ch1, payload)
    assert msg.data == payload
    assert len(ep2.endpoint.free_queue) == 16  # still no buffer consumed


def test_multi_cell_message_uses_free_buffer_and_recycles():
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    payload = bytes(range(256)) * 4  # 1024 bytes
    msg = transfer(sim, ep1, ep2, ch1, payload)
    assert msg.data == payload
    # UserEndpoint.recv recycles the buffer back onto the free queue
    assert len(ep2.endpoint.free_queue) == 16


def test_multi_cell_latency_discontinuity():
    """Figure 5: >40-byte messages lose the single-cell fast path."""

    def rtt_for(size):
        sim, net, ep1, ep2, ch1, ch2 = build_pair()

        def ponger():
            while True:
                msg = yield from ep2.recv()
                yield from ep2.send(ch2, msg.data)

        def pinger():
            rtts = []
            for _ in range(3):
                t0 = sim.now
                yield from ep1.send(ch1, b"z" * size)
                yield from ep1.recv()
                rtts.append(sim.now - t0)
            return rtts[-1]

        sim.process(ponger())
        return sim.run_until_complete(sim.process(pinger()))

    assert rtt_for(44) - rtt_for(40) > 15.0  # sharp jump past one cell


def test_large_message_spans_multiple_buffers():
    config = EndpointConfig(num_buffers=64, buffer_size=512)
    sim, net, ep1, ep2, ch1, ch2 = build_pair(config=config, rx_buffers=32)
    payload = bytes((i * 13) % 256 for i in range(2000))  # needs 4 buffers
    msg = transfer(sim, ep1, ep2, ch1, payload)
    assert msg.data == payload


def test_message_too_large_rejected():
    sim, net, ep1, ep2, ch1, ch2 = build_pair()

    def tx():
        yield from ep1.send(ch1, bytes(70_000))

    with pytest.raises(MessageTooLarge):
        sim.run_until_complete(sim.process(tx()))


def test_no_free_buffers_drops_multicell_message():
    sim, net, ep1, ep2, ch1, ch2 = build_pair(rx_buffers=0)
    backend2 = ep2.host.backend

    def tx():
        yield from ep1.send(ch1, b"b" * 500)

    sim.process(tx())
    sim.run()
    assert backend2.no_buffer_drops == 1
    assert backend2.pdus_received == 0
    # U-Net provides no retransmission: message is simply gone
    assert ep2.endpoint.recv_queue.is_empty


def test_corrupted_cell_dropped_by_crc():
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    backend2 = ep2.host.backend

    # corrupt every cell in flight on the switch->h2 link
    original_on_cell = backend2.on_cell

    def corrupting(cell):
        body = bytearray(cell.payload)
        body[0] ^= 0xFF
        original_on_cell(Cell(vci=cell.vci, payload=bytes(body), last=cell.last, corrupted=True))

    net.switch._ports[1].deliver = corrupting

    def tx():
        yield from ep1.send(ch1, b"c" * 300)

    sim.process(tx())
    sim.run()
    assert backend2.crc_errors == 1
    assert ep2.endpoint.recv_queue.is_empty
    # the allocated buffer went back to the free queue after the CRC drop
    assert len(ep2.endpoint.free_queue) == 16


def test_unknown_vci_counted():
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    backend2 = ep2.host.backend
    backend2.on_cell(Cell(vci=999, payload=bytes(48), last=True))
    sim.run()
    assert backend2.demux.unknown_tag_drops == 1


def test_many_messages_in_order():
    sim, net, ep1, ep2, ch1, ch2 = build_pair(rx_buffers=32)
    payloads = [bytes([i]) * (10 + i * 37) for i in range(12)]
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


def test_bidirectional_traffic():
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    out = {}

    def side(name, ep, ch, greeting):
        def proc():
            yield from ep.send(ch, greeting)
            msg = yield from ep.recv()
            out[name] = msg.data

        return proc

    sim.process(side("a", ep1, ch1, b"from-a")())
    p = sim.process(side("b", ep2, ch2, b"from-b")())
    sim.run()
    assert out == {"a": b"from-b", "b": b"from-a"}


def test_three_hosts_demux_isolation():
    sim = Simulator()
    net = AtmNetwork(sim)
    hosts = [net.add_host(f"h{i}", SPARCSTATION_20) for i in range(3)]
    eps = [h.create_endpoint() for h in hosts]
    ch01, ch10 = net.connect(eps[0], eps[1])
    ch02, ch20 = net.connect(eps[0], eps[2])

    def tx():
        yield from eps[0].send(ch01, b"to-1")
        yield from eps[0].send(ch02, b"to-2")

    got = {}

    def rx(i, ep):
        def proc():
            msg = yield from ep.recv()
            got[i] = msg.data

        return proc

    sim.process(tx())
    sim.process(rx(1, eps[1])())
    sim.process(rx(2, eps[2])())
    sim.run()
    assert got == {1: b"to-1", 2: b"to-2"}


def test_fast_path_ablation_slows_small_messages():
    def rtt(fast):
        sim, net, ep1, ep2, ch1, ch2 = build_pair(rx_buffers=8)
        for host in (ep1.host, ep2.host):
            host.backend.single_cell_fast_path = fast

        def ponger():
            while True:
                msg = yield from ep2.recv()
                yield from ep2.send(ch2, msg.data)

        def pinger():
            last = 0.0
            for _ in range(3):
                t0 = sim.now
                yield from ep1.send(ch1, b"s" * 16)
                yield from ep1.recv()
                last = sim.now - t0
            return last

        sim.process(ponger())
        return sim.run_until_complete(sim.process(pinger()))

    assert rtt(fast=False) > rtt(fast=True) + 10.0


def test_send_statistics():
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    transfer(sim, ep1, ep2, ch1, b"stats")
    backend1 = ep1.host.backend
    assert backend1.pdus_sent == 1
    assert ep1.endpoint.messages_sent == 1
    assert ep1.endpoint.bytes_sent == 5
    assert ep2.endpoint.messages_received == 1


def test_recv_queue_overflow_drops_and_recycles():
    """A full receive queue drops the message (Section 3.1: U-Net has no
    flow control) and returns its buffers to the free queue."""
    config = EndpointConfig(num_buffers=64, buffer_size=2048, recv_queue_depth=2)
    sim, net, ep1, ep2, ch1, ch2 = build_pair(config=config, rx_buffers=16)
    backend2 = ep2.host.backend

    def tx():
        for i in range(5):  # nobody consumes at ep2
            yield from ep1.send(ch1, bytes([i]) * 300)

    sim.process(tx())
    sim.run()
    assert len(ep2.endpoint.recv_queue) == 2  # the queue really capped
    assert backend2.recv_queue_drops == 3
    assert ep2.endpoint.receive_drops == 3
    # dropped messages' buffers were recycled, 2 are still held by the
    # queued (unconsumed) messages
    assert len(ep2.endpoint.free_queue) == 16 - 2


# ------------------------------------------------------ collective engine


def _collective_pair():
    sim = Simulator()
    net = AtmNetwork(sim)
    a = net.add_host("a", SPARCSTATION_20).backend
    b = net.add_host("b", SPARCSTATION_20).backend
    vci_ab, _vci_ba = net.connect_collective(a, b)
    a.trace = TraceRecorder()
    return sim, a, b, vci_ab


def test_collective_sends_are_serialised_through_the_i960():
    """Three packets handed over at once leave one after the other: each
    pays ``collective_op_us`` then ``tx_per_cell_us`` per cell, traced at
    the instants the firmware loop traced them, and arrive in order."""
    sim, a, b, vci = _collective_pair()
    got = []
    b.register_collective(lambda payload: got.append((sim.now, payload)), vci)
    payloads = [b"one", b"2" * 100, b"three"]  # 1, 3 and 1 cells
    sim.run()  # firmware loops park
    start = sim.now
    with heap_census(sim) as census:
        for payload in payloads:
            a.send_collective(vci, payload)
        sim.run()
    t = a.timings
    begins = [start,
              start + t.collective_op_us + t.tx_per_cell_us,
              start + 2 * t.collective_op_us + 4 * t.tx_per_cell_us]
    steps = [(r.start, r.duration, r.step) for r in a.trace.by_category(ATM_TX_TRACE)]
    assert [step for _s, _d, step in steps] == ["collective engine send"] * 3
    assert [s for s, _d, _step in steps] == pytest.approx(begins)
    assert {d for _s, d, _step in steps} == {t.collective_op_us}
    assert [payload for _when, payload in got] == payloads
    assert b.collective_cells_received == 5 and b.pdus_received == 0
    # one heap entry per op and per cell on the sender, none that models no delay
    assert census.entries["call:UNetAtmBackend._collective_tx_segment"] == 3
    assert census.entries["call:UNetAtmBackend._collective_tx_cell"] == 5
    assert not [kind for kind in census.entries if kind.startswith(("start:", "done:"))]
    assert "event:colltx.get" not in census.entries
    assert not a._collective_tx_busy and not a._collective_txq


def test_collective_send_shares_the_uplink_with_host_traffic():
    """The engine and ``_tx_firmware`` interleave cell by cell on
    ``tx_link``: a host message sent while a collective packet is going
    out is neither lost nor reordered within its own VC."""
    sim, net, ep1, ep2, ch1, ch2 = build_pair()
    a, b = ep1.host.backend, ep2.host.backend
    vci, _back = net.connect_collective(a, b)
    got = []
    b.register_collective(got.append, vci)
    a.send_collective(vci, b"c" * 400)
    msg = transfer(sim, ep1, ep2, ch1, b"h" * 400)
    sim.run()
    assert msg.data == b"h" * 400
    assert got == [b"c" * 400]
