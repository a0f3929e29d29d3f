"""Tests for Beowulf-style dual-NIC channel bonding (Section 2.2)."""

from repro.core import EndpointConfig
from repro.ethernet import BeowulfNetwork, HubNetwork
from repro.hw import PENTIUM_120
from repro.sim import Simulator

CONFIG = EndpointConfig(num_buffers=256, buffer_size=2048,
                        send_queue_depth=128, recv_queue_depth=256)


def _pair(closing):
    """Two bonded hosts on a network closed when the test ends."""
    sim = Simulator()
    net = closing(BeowulfNetwork(sim))
    h1 = net.add_host("h1", PENTIUM_120)
    h2 = net.add_host("h2", PENTIUM_120)
    ep1 = h1.create_endpoint(config=CONFIG, rx_buffers=64)
    ep2 = h2.create_endpoint(config=CONFIG, rx_buffers=64)
    ch1, ch2 = net.connect(ep1, ep2)
    return sim, net, ep1, ep2, ch1, ch2


def test_bonded_messages_arrive_in_order(closing):
    sim, net, ep1, ep2, ch1, ch2 = _pair(closing)
    received = []

    def tx():
        for i in range(16):
            yield from ep1.send(ch1, bytes([i]) * 120)

    def rx():
        while len(received) < 16:
            msg = yield from ep2.recv()
            received.append(msg.data[0])

    sim.process(tx())
    sim.run_until_complete(sim.process(rx()))
    assert received == list(range(16))


def test_traffic_stripes_across_both_rails(closing):
    sim, net, ep1, ep2, ch1, ch2 = _pair(closing)

    def tx():
        for i in range(10):
            yield from ep1.send(ch1, b"s" * 200)

    def rx():
        for _ in range(10):
            yield from ep2.recv()

    sim.process(tx())
    sim.run_until_complete(sim.process(rx()))
    assert net.medium_a.frames_carried == 5
    assert net.medium_b.frames_carried == 5


def test_bonding_roughly_doubles_bandwidth(closing):
    def goodput(net_factory):
        sim = Simulator()
        net = closing(net_factory(sim))
        h1 = net.add_host("h1", PENTIUM_120)
        h2 = net.add_host("h2", PENTIUM_120)
        ep1 = h1.create_endpoint(config=CONFIG, rx_buffers=64)
        ep2 = h2.create_endpoint(config=CONFIG, rx_buffers=64)
        ch1, ch2 = net.connect(ep1, ep2)
        n, size = 60, 1498

        def tx():
            for _ in range(n):
                yield from ep1.send(ch1, b"b" * size)

        def rx():
            for _ in range(n):
                yield from ep2.recv()
            return sim.now

        sim.process(tx())
        end = sim.run_until_complete(sim.process(rx()))
        return n * size * 8 / end

    single = goodput(HubNetwork)
    dual = goodput(BeowulfNetwork)
    # "double the aggregate bandwidth per node"
    assert dual > 1.8 * single


def test_bonded_am_traffic_reliable_despite_rail_skew(closing):
    from repro.am import AmEndpoint

    sim, net, ep1, ep2, ch1, ch2 = _pair(closing)
    am1, am2 = AmEndpoint(0, ep1), AmEndpoint(1, ep2)
    am1.connect_peer(1, ch1)
    am2.connect_peer(0, ch2)
    seen = []
    am2.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def tx():
        for i in range(30):
            yield from am1.request(1, 1, args=(i,), data=b"x" * 900)

    sim.process(tx())
    sim.run()
    # rails drift under backlog and reorder frames (see module docs);
    # the AM layer must still deliver exactly once, in order
    assert seen == list(range(30))


def test_bidirectional_bonded(closing):
    sim, net, ep1, ep2, ch1, ch2 = _pair(closing)
    out = {}

    def side(tag, ep, ch):
        def proc():
            yield from ep.send(ch, tag.encode() * 20)
            msg = yield from ep.recv()
            out[tag] = msg.data[:1]

        return proc

    sim.process(side("a", ep1, ch1)())
    sim.process(side("b", ep2, ch2)())
    sim.run()
    assert out == {"a": b"b", "b": b"a"}


def _rail_skew_retransmissions(closing, cfg):
    """A 30 x 900 B AM stream over the bonded rails; returns the
    sender's retransmissions once everything arrived in order."""
    from repro.am import AmEndpoint

    sim, net, ep1, ep2, ch1, ch2 = _pair(closing)
    am1, am2 = AmEndpoint(0, ep1, config=cfg), AmEndpoint(1, ep2, config=cfg)
    am1.connect_peer(1, ch1)
    am2.connect_peer(0, ch2)
    seen = []
    am2.register_handler(1, lambda ctx: seen.append(ctx.args[0]))

    def tx():
        for i in range(30):
            yield from am1.request(1, 1, args=(i,), data=b"x" * 900)

    sim.process(tx())
    sim.run()
    assert seen == list(range(30))
    assert not am2._peers_by_node[0].ooo_held  # everything drained
    return am1._peers_by_node[1].retransmissions


def test_sack_cuts_rail_skew_retransmissions(closing):
    """The rails reorder frames: go-back-N resends the whole window
    behind each hole, SACK's scoreboard only the holes."""
    from repro.am import AmConfig

    gbn = _rail_skew_retransmissions(closing, AmConfig())
    sack = _rail_skew_retransmissions(closing, AmConfig(ack_mode="sack"))
    assert sack < gbn
