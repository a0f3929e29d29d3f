"""Send completions arrive in post order — except across bonded rails.

``UserEndpointBase._reclaim_completed`` pops completed sends off the
head of a FIFO and stops at the first one still in flight, so a
completion that overtook an earlier send's leaves its buffers
unreclaimed until the head catches up.  On U-Net/ATM, U-Net/FE and
U-Net/OS that never happens — one send queue, one NI draining it in
order — and this pins it.  On the Beowulf backend it does: the kernel
stripes one send queue over two DC21140s, each completes its own frames
in order, and a small frame on one rail overtakes a large one on the
other.  What is pinned there is what the reclaim needs: per-rail order,
every send completed, every buffer back, and a sender that runs the
buffer area dry still finishing.
"""

import pytest

from repro.atm import AtmNetwork
from repro.core import EndpointConfig
from repro.core.clock import ManualClock
from repro.ethernet import BeowulfNetwork, SwitchedNetwork
from repro.hw import PENTIUM_120
from repro.live.backend import LiveCluster
from repro.sim import Simulator

from .test_substrate_contract import _Mailbox

CONFIG = EndpointConfig(num_buffers=64, buffer_size=2048,
                        send_queue_depth=32, recv_queue_depth=64)
#: big and small alternate, so a rail or a path that finished its own
#: work sooner would show
RX_BUFFERS = 32
SIZES = [1400, 8, 900, 40, 1498, 0, 700, 16, 1200, 64, 300, 1498]


def _log_completions(endpoint):
    order = []
    completed = endpoint.send_completed

    def send_completed(descriptor):
        order.append(descriptor)
        completed(descriptor)

    endpoint.send_completed = send_completed
    return order


def _stream(net, config, rx_buffers):
    """Send SIZES a -> b; returns (a, descriptors in post order, in completion order)."""
    a, b = (net.add_host(name, PENTIUM_120).create_endpoint(config=config, rx_buffers=rx_buffers)
            for name in ("a", "b"))
    ch_a, _ch_b = net.connect(a, b)
    order = _log_completions(a.endpoint)
    posted = []

    def sender():
        for size in SIZES:
            yield from a.send(ch_a, bytes(size))
            posted.append(a._tx_inflight[-1][0])

    def receiver():
        for _ in SIZES:
            yield from b.recv()

    net.sim.process(sender())
    net.sim.run_until_complete(net.sim.process(receiver()))
    return a, posted, order


def _all_reclaimed(user, config, rx_buffers):
    user._reclaim_completed()
    return not user._tx_inflight and user.endpoint.buffers.free_count == config.num_buffers - rx_buffers


@pytest.mark.parametrize("network_cls", [AtmNetwork, SwitchedNetwork])
def test_simulated_completions_follow_post_order(network_cls):
    with network_cls(Simulator()) as net:
        a, posted, order = _stream(net, CONFIG, RX_BUFFERS)
        assert order == posted
        assert _all_reclaimed(a, CONFIG, RX_BUFFERS)


def test_bonded_rails_complete_in_order_per_rail_only():
    with BeowulfNetwork(Simulator()) as net:
        a, posted, order = _stream(net, CONFIG, RX_BUFFERS)
        assert order != posted  # the 8-byte frame on rail B beats the 1400-byte one on rail A
        assert sorted(order, key=posted.index) == posted
        for rail in (0, 1):  # the kernel stripes round-robin from rail 0
            assert [d for d in order if posted.index(d) % 2 == rail] == posted[rail::2]
        assert _all_reclaimed(a, CONFIG, RX_BUFFERS)


def test_bonded_sender_short_of_buffers_still_finishes():
    """Three send buffers for twelve messages: the sender blocks on
    completions again and again, behind a head that completes late."""
    tight = EndpointConfig(num_buffers=RX_BUFFERS + 3, buffer_size=2048,
                           send_queue_depth=32, recv_queue_depth=64)
    with BeowulfNetwork(Simulator()) as net:
        a, posted, order = _stream(net, tight, RX_BUFFERS)
        assert len(order) == len(SIZES)
        assert _all_reclaimed(a, tight, RX_BUFFERS)


def test_live_completions_follow_post_order():
    boxes = {}
    with LiveCluster(lambda name: _Mailbox(boxes, name), ManualClock()) as net:
        a, b = (net.add_node(name).create_user_endpoint(config=CONFIG, rx_buffers=RX_BUFFERS)
                for name in ("a", "b"))
        ch_a, _ch_b = net.connect(a, b)
        order = _log_completions(a.endpoint)
        posted = []
        for size in SIZES:
            a.send(ch_a, bytes(size), kick=False)  # queue them all, then ring once
            posted.append(a._tx_inflight[-1][0])
        a.kick()
        assert order == posted
        assert _all_reclaimed(a, CONFIG, RX_BUFFERS)
