"""Integration tests for Active Messages over both substrates."""

import pytest

from repro.am import AmConfig, AmEndpoint, AmError
from repro.am.core import ACK_DELAY_US
from repro.atm import AtmNetwork
from repro.core import EndpointConfig
from repro.ethernet import HubNetwork
from repro.hw import PENTIUM_120
from repro.sim import Simulator

ENDPOINT_CONFIG = EndpointConfig(num_buffers=128, buffer_size=2048,
                                 send_queue_depth=64, recv_queue_depth=128)


def build_am_pair(substrate="ethernet", config=None):
    sim = Simulator()
    if substrate == "ethernet":
        net = HubNetwork(sim)
    else:
        net = AtmNetwork(sim)
    h0 = net.add_host("n0", PENTIUM_120)
    h1 = net.add_host("n1", PENTIUM_120)
    ep0 = h0.create_endpoint(config=ENDPOINT_CONFIG, rx_buffers=48)
    ep1 = h1.create_endpoint(config=ENDPOINT_CONFIG, rx_buffers=48)
    ch0, ch1 = net.connect(ep0, ep1)
    am0 = AmEndpoint(0, ep0, config=config)
    am1 = AmEndpoint(1, ep1, config=config)
    am0.connect_peer(1, ch0)
    am1.connect_peer(0, ch1)
    return sim, am0, am1


@pytest.mark.parametrize("substrate", ["ethernet", "atm"])
def test_request_invokes_handler(substrate):
    sim, am0, am1 = build_am_pair(substrate)
    seen = []
    am1.register_handler(5, lambda ctx: seen.append((ctx.src_node, ctx.args, ctx.data)))

    def tx():
        yield from am0.request(1, 5, args=(10, 20), data=b"hello")

    sim.process(tx())
    sim.run()
    assert seen == [(0, (10, 20, 0, 0), b"hello")]


@pytest.mark.parametrize("substrate", ["ethernet", "atm"])
def test_rpc_roundtrip(substrate):
    sim, am0, am1 = build_am_pair(substrate)

    def double(ctx):
        yield from ctx.reply(args=(ctx.args[0] * 2,), data=ctx.data.upper())

    am1.register_handler(3, double)

    def caller():
        args, data = yield from am0.rpc(1, 3, args=(21,), data=b"abc")
        return args[0], data

    result = sim.run_until_complete(sim.process(caller()))
    assert result == (42, b"ABC")


def test_many_requests_in_order():
    sim, am0, am1 = build_am_pair()
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def tx():
        for i in range(50):
            yield from am0.request(1, 1, args=(i,))

    sim.process(tx())
    sim.run()
    assert seen == list(range(50))


def test_window_blocks_sender():
    config = AmConfig(window=2, ack_every=100)
    sim, am0, am1 = build_am_pair(config=config)
    am1.register_handler(1, lambda ctx: None)
    progress = []

    def tx():
        for i in range(6):
            yield from am0.request(1, 1, args=(i,))
            progress.append((i, sim.now))

    sim.process(tx())
    sim.run()
    assert len(progress) == 6
    # with a window of 2 and only delayed acks, the third send had to
    # wait for the first delayed ack
    assert progress[2][1] - progress[1][1] > ACK_DELAY_US


def test_reliability_recovers_from_receive_drops():
    # tiny receive queue at the destination: U-Net drops, AM retransmits
    small = EndpointConfig(num_buffers=64, buffer_size=2048,
                           send_queue_depth=64, recv_queue_depth=4)
    sim = Simulator()
    net = HubNetwork(sim)
    h0 = net.add_host("n0", PENTIUM_120)
    h1 = net.add_host("n1", PENTIUM_120)
    ep0 = h0.create_endpoint(config=ENDPOINT_CONFIG, rx_buffers=48)
    ep1 = h1.create_endpoint(config=small, rx_buffers=16)
    ch0, ch1 = net.connect(ep0, ep1)
    am0 = AmEndpoint(0, ep0, config=AmConfig(window=16, retransmit_timeout_us=500.0))
    # a slow consumer lets the tiny receive queue overflow for real
    am1 = AmEndpoint(1, ep1, config=AmConfig(dispatch_overhead_us=60.0))
    am0.connect_peer(1, ch0)
    am1.connect_peer(0, ch1)
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def tx():
        for i in range(40):
            yield from am0.request(1, 1, args=(i,))

    sim.process(tx())
    sim.run()
    assert seen == list(range(40))  # exactly once, in order
    assert ep1.endpoint.recv_queue_drops > 0  # drops really happened
    assert am0._peers_by_node[1].retransmissions > 0


def test_reliability_recovers_from_injected_loss():
    sim, am0, am1 = build_am_pair(config=AmConfig(retransmit_timeout_us=300.0))
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    # drop every third frame a->b at the NIC receive hook
    backend1 = am1.user.host.backend
    original = backend1.nic._on_frame
    counter = {"n": 0}

    def lossy(frame):
        counter["n"] += 1
        if counter["n"] % 3 == 0:
            return  # eat the frame
        original(frame)

    backend1.nic._on_frame = lossy

    def tx():
        for i in range(20):
            yield from am0.request(1, 1, args=(i,))

    sim.process(tx())
    sim.run()
    assert seen == list(range(20))


def test_duplicate_suppression():
    sim, am0, am1 = build_am_pair(config=AmConfig(retransmit_timeout_us=20.0, ack_every=1000))
    # the retransmit timer fires long before the delayed ack can come
    # back -> sender retransmits; receiver must not deliver duplicates
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def tx():
        yield from am0.request(1, 1, args=(7,))
        yield sim.timeout(1000.0)

    sim.process(tx())
    sim.run(until=2000.0)
    assert seen == [7]
    assert am1._peers_by_node[0].duplicates >= 1


def test_request_data_too_large_rejected():
    sim, am0, am1 = build_am_pair()

    def tx():
        yield from am0.request(1, 1, data=b"x" * (am0.max_data + 1))

    with pytest.raises(AmError):
        sim.run_until_complete(sim.process(tx()))


def test_unknown_peer_rejected():
    sim, am0, am1 = build_am_pair()

    def tx():
        yield from am0.request(9, 1)

    with pytest.raises(AmError):
        sim.run_until_complete(sim.process(tx()))


def test_handler_id_range():
    sim, am0, am1 = build_am_pair()
    with pytest.raises(AmError):
        am0.register_handler(300, lambda ctx: None)


def test_bidirectional_rpc_concurrent():
    sim, am0, am1 = build_am_pair()
    am0.register_handler(2, lambda ctx: ctx.reply(args=(ctx.args[0] + 100,)))
    am1.register_handler(2, lambda ctx: ctx.reply(args=(ctx.args[0] + 200,)))
    results = {}

    def caller(am, dest, base, tag):
        def proc():
            for i in range(5):
                args, _data = yield from am.rpc(dest, 2, args=(i,))
                results.setdefault(tag, []).append(args[0])

        return proc

    sim.process(caller(am0, 1, 200, "a")())
    sim.process(caller(am1, 0, 100, "b")())
    sim.run()
    assert results["a"] == [200, 201, 202, 203, 204]
    assert results["b"] == [100, 101, 102, 103, 104]


def test_am_statistics():
    sim, am0, am1 = build_am_pair()
    am1.register_handler(1, lambda ctx: ctx.reply())

    def tx():
        yield from am0.rpc(1, 1)
        yield from am0.request(1, 1)

    sim.process(tx())
    sim.run()
    assert am0.requests_sent == 2
    assert am1.requests_delivered == 2
    assert am1.replies_sent >= 1


def _swapped_stream(config):
    """Ten requests whose frames the receiving NIC sees pairwise swapped;
    returns (what was dispatched, the sender's retransmissions)."""
    sim, am0, am1 = build_am_pair(config=config)
    seen = []
    am1.register_handler(1, lambda ctx: seen.append(ctx.args[0]))
    backend1 = am1.user.host.backend
    original = backend1.nic._on_frame
    held = []

    def swapper(frame):
        # hold every even-indexed frame until the next one passed
        if len(held) == 0 and frame.payload:
            held.append(frame)
            return
        original(frame)
        if held:
            original(held.pop())

    backend1.nic._on_frame = swapper

    def tx():
        for i in range(10):
            yield from am0.request(1, 1, args=(i,))

    sim.process(tx())
    sim.run(until=100_000.0)
    backend1.nic._on_frame = original
    sim.run()
    return seen, am0._peers_by_node[1].retransmissions


def test_go_back_n_reorder_costs_retransmissions():
    seen, retransmissions = _swapped_stream(AmConfig(retransmit_timeout_us=200.0))
    assert seen == list(range(10))  # still exactly-once in-order ...
    assert retransmissions > 0  # ... but paid for


def test_sack_reassembles_reordered_stream():
    """SACK's reorder buffer holds the early frame of each swapped pair:
    in-order delivery, and fewer retransmissions than go-back-N's."""
    seen, sack = _swapped_stream(AmConfig(retransmit_timeout_us=200.0, ack_mode="sack"))
    _seen, gbn = _swapped_stream(AmConfig(retransmit_timeout_us=200.0))
    assert seen == list(range(10))
    assert sack < gbn
