"""LiveAm unit tests on a ManualClock: deterministic timer behavior.

The sockets are real (same process, loopback delivery is immediate);
every *timer* — delayed acks, retransmission timeouts, credit refresh —
runs off the injected clock, so these tests advance time by hand and
assert exactly when things fire.
"""

import pytest

from repro.am.am import AmConfig
from repro.am.core import ACK_DELAY_US, BACKOFF_JITTER, CREDIT_UPDATE_US
from repro.core.clock import ManualClock
from repro.live import LiveAm, LiveCluster, make_transport

from .conftest import require

pytestmark = require("unix")


def _pair(clock, config=None):
    cluster = LiveCluster(lambda name: make_transport("unix", name), clock)
    ep0 = cluster.add_node("n0").create_user_endpoint()
    ep1 = cluster.add_node("n1").create_user_endpoint()
    ch0, ch1 = cluster.connect(ep0, ep1)
    am0 = LiveAm(0, ep0, config=config)
    am1 = LiveAm(1, ep1, config=config)
    am0.connect_peer(1, ch0)
    am1.connect_peer(0, ch1)

    def pump():
        cluster.step()
        am0.service()
        am1.service()

    return cluster, am0, am1, pump


def test_rpc_round_trip_under_manual_time():
    clock = ManualClock()
    cluster, am0, am1, pump = _pair(clock)
    try:
        am1.register_handler(7, lambda ctx: ctx.reply(args=(ctx.args[0] + 1,),
                                                      data=ctx.data.upper()))
        seq = am0.start_rpc(1, 7, args=(41,), data=b"payload")
        assert seq is not None
        result = None
        for _ in range(10):
            pump()
            result = am0.rpc_result(1, seq)
            if result is not None:
                break
        assert result is not None
        args, data = result
        assert args[0] == 42 and data == b"PAYLOAD"
    finally:
        cluster.close()


def test_delayed_ack_fires_exactly_at_its_deadline():
    clock = ManualClock()
    cluster, am0, am1, pump = _pair(clock)
    try:
        am1.register_handler(1, lambda ctx: None)
        assert am0.start_request(1, 1, args=(0,)) is not None
        cluster.step()
        am1.service()  # delivered; the delayed ack is now pending
        peer = am1._peers_by_node[0]
        assert peer.ack_deadline is not None
        acks_before = am1.acks_sent

        # one microsecond short of the deadline: nothing fires
        clock.advance(ACK_DELAY_US - 1.0)
        am1.service()
        assert am1.acks_sent == acks_before

        clock.advance(2.0)
        am1.service()
        assert am1.acks_sent == acks_before + 1

        cluster.step()
        am0.service()
        assert am0.idle
    finally:
        cluster.close()


def test_rto_fires_only_after_the_configured_timeout():
    clock = ManualClock()
    cluster, am0, am1, pump = _pair(clock)
    try:
        assert am0.start_request(1, 1, args=(0,)) is not None
        # the receiver never services: no ack ever comes back
        rto = am0.config.retransmit_timeout_us
        clock.advance(rto - 1.0)
        am0.service()
        snap = am0.snapshot()[1]
        assert snap["timeouts"] == 0 and snap["retransmissions"] == 0

        clock.advance(2.0)
        am0.service()
        snap = am0.snapshot()[1]
        assert snap["timeouts"] == 1
        assert snap["retransmissions"] == 1  # head-only go-back-N
    finally:
        cluster.close()


def test_credit_gate_blocks_at_zero_and_counts_one_stall_per_episode():
    clock = ManualClock()
    cluster, am0, am1, pump = _pair(clock, config=AmConfig(credit_flow=True))
    try:
        events = []
        am0.trace.subscribe(lambda record: events.append(record.step))
        peer = am0._peers_by_node[1]
        peer.remote_credit = 0  # the spec gate: <= 0 blocks
        assert am0.start_request(1, 1, args=(0,)) is None
        assert am0.start_request(1, 1, args=(0,)) is None
        assert peer.credit_stalls == 1  # one episode, however often polled
        assert events.count("credit_stall") == 1

        peer.remote_credit = 4
        assert am0.start_request(1, 1, args=(0,)) is not None
        assert "grant" in events
        # conservative spend: the tracked send charged one credit
        assert peer.remote_credit == 3
    finally:
        cluster.close()


def test_window_gate_refuses_admission_when_full():
    clock = ManualClock()
    config = AmConfig(window=2)
    cluster, am0, am1, pump = _pair(clock, config=config)
    try:
        assert am0.start_request(1, 1, args=(0,)) is not None
        assert am0.start_request(1, 1, args=(1,)) is not None
        assert am0.start_request(1, 1, args=(2,)) is None  # window full
        # receiver acks; the window reopens
        am1.register_handler(1, lambda ctx: None)
        for _ in range(4):
            pump()
            clock.advance(ACK_DELAY_US + 1)
        assert am0.start_request(1, 1, args=(2,)) is not None
    finally:
        cluster.close()


def test_credit_refresh_advertises_when_local_room_changes():
    clock = ManualClock()
    config = AmConfig(credit_flow=True)
    cluster, am0, am1, pump = _pair(clock, config=config)
    try:
        am1.register_handler(1, lambda ctx: None)
        assert am0.start_request(1, 1, args=(0,)) is not None
        for _ in range(3):
            pump()
            clock.advance(ACK_DELAY_US + 1)
        peer01 = am1._peers_by_node[0]
        assert peer01.last_advertised is not None
        # force a stale advertisement, then cross the refresh deadline
        peer01.last_advertised = 0
        acks = am1.acks_sent
        clock.advance(CREDIT_UPDATE_US + 1)
        am1.service()
        assert am1.acks_sent == acks + 1
    finally:
        cluster.close()


# -- drift the one-core merge fixed on the live driver (the simulated
# -- endpoint's order was the reference: its artifacts are byte-pinned) --
def test_a_peer_restart_clears_the_ecn_and_sack_state_of_the_dead_conversation():
    clock = ManualClock()
    config = AmConfig(recovery=True, adaptive_window=True, congestion="ecn")
    cluster, am0, am1, pump = _pair(clock, config=config)
    try:
        peer = am0._peers_by_node[1]
        peer.pending_echoes, peer.ecn_round_end = 3, 5
        peer.sacked.update({1, 2})
        peer.sack_rexmitted.add(0)
        am1.crash()
        assert am1.restart() == 1        # its HELLO announces epoch 1
        for _ in range(3):
            pump()
        assert peer.remote_epoch == 1    # am0 saw the restart ...
        assert peer.pending_echoes == 0 and peer.ecn_round_end is None
        assert not peer.sacked and not peer.sack_rexmitted
    finally:
        cluster.close()


class _CountingRandom:
    def __init__(self):
        self.draws = []

    def random(self):
        self.draws.append(0.25 * (len(self.draws) + 1))
        return self.draws[-1]


def test_an_rto_expiry_computes_its_timeout_once():
    clock = ManualClock()
    config = AmConfig(adaptive_rto=True)
    cluster, am0, am1, pump = _pair(clock, config=config)
    try:
        am0._rng = rng = _CountingRandom()
        timeouts = []
        am0.trace.subscribe(
            lambda r: r.step == "timeout" and timeouts.append(r.info["rto_us"]))
        assert am0.start_request(1, 1, args=(0,)) is not None
        am0._peers_by_node[1].backoff = 1     # jitter only applies backed off
        clock.advance(config.rto_max_us)
        am0.service()                         # the receiver never acked
        assert len(rng.draws) == 1            # one draw per expiry, not two
        # ... and the observation reports the very threshold that expired
        expected = config.retransmit_timeout_us * config.backoff_factor * (
            1.0 + BACKOFF_JITTER * rng.draws[0])
        assert timeouts == [expected]
    finally:
        cluster.close()


def test_expiry_backs_off_and_halves_the_window_before_the_starvation_verdict():
    clock = ManualClock()
    config = AmConfig(recovery=True, adaptive_rto=True, adaptive_window=True,
                      dead_after_timeouts=1)
    cluster, am0, am1, pump = _pair(clock, config=config)
    try:
        assert am0.start_request(1, 1, args=(0,)) is not None
        peer = am0._peers_by_node[1]
        clock.advance(config.retransmit_timeout_us + 1.0)
        am0.service()
        assert not peer.alive and peer.abandoned == 1
        # same order as the simulated endpoint: the estimator state is
        # updated even by the timeout that ends in the verdict
        assert peer.backoff == 1
        assert peer.cwnd == config.window / 2.0
    finally:
        cluster.close()
