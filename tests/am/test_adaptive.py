"""The adaptive reliability stack: RTO estimation, AIMD, fast retransmit."""

import pytest

from repro.am import AmConfig, AmEndpoint
from repro.am.core import MIN_WINDOW
from repro.core import EndpointConfig
from repro.ethernet import SwitchedNetwork
from repro.faults import LinkPerturbation, attach_pipeline
from repro.sim import Simulator

CONFIG = EndpointConfig(num_buffers=128, buffer_size=2048,
                        send_queue_depth=64, recv_queue_depth=128)


@pytest.fixture
def pair(two_hosts):
    """Two AM endpoints on a fresh switch, closed after the test."""
    def build(config=None):
        rig = two_hosts(SwitchedNetwork(Simulator()), names=("n0", "n1"),
                        config=CONFIG, rx_buffers=48)
        am0 = AmEndpoint(0, rig.ep1, config=config)
        am1 = AmEndpoint(1, rig.ep2, config=config)
        am0.connect_peer(1, rig.ch1)
        am1.connect_peer(0, rig.ch2)
        return rig.sim, am0, am1

    return build


class DropNth(LinkPerturbation):
    """Deterministically drop exactly the n-th PDU seen (1-based)."""

    def __init__(self, n):
        super().__init__()
        self.n = n
        self.count = 0

    def process(self, pdu, now, emit):
        self.count += 1
        if self.count == self.n:
            return
        emit(pdu, 0.0)


# ------------------------------------------------------------- validation
@pytest.mark.parametrize("knob", ["retransmit_timeout_us", "dispatch_overhead_us"])
@pytest.mark.parametrize("value", [0.0, -1.0, -4000.0])
def test_time_knobs_must_be_positive(knob, value):
    with pytest.raises(ValueError, match=knob):
        AmConfig(**{knob: value})


@pytest.mark.parametrize("kwargs", [
    {"rto_min_us": 0.0},
    {"rto_min_us": 5000.0, "rto_max_us": 100.0},
    {"backoff_factor": 0.5},
])
def test_adaptive_knob_validation(kwargs):
    with pytest.raises(ValueError):
        AmConfig(**kwargs)


def test_dup_ack_threshold_must_be_at_least_one():
    with pytest.raises(ValueError, match="dup_ack_threshold"):
        AmConfig(dup_ack_threshold=0)


def test_adaptive_classmethod_enables_the_full_stack():
    config = AmConfig.adaptive()
    assert config.adaptive_rto and config.adaptive_window and config.fast_retransmit
    # base protocol knobs are untouched
    assert config.window == AmConfig().window
    assert config.retransmit_timeout_us == AmConfig().retransmit_timeout_us
    # explicit overrides win over the flag defaults
    partial = AmConfig.adaptive(fast_retransmit=False, window=8)
    assert partial.adaptive_rto and not partial.fast_retransmit
    assert partial.window == 8


def test_defaults_are_the_paper_faithful_fixed_stack():
    config = AmConfig()
    assert not config.adaptive_rto
    assert not config.adaptive_window
    assert not config.fast_retransmit


# ---------------------------------------------------------- RTO estimator
def test_first_rtt_sample_seeds_the_estimator(pair):
    _sim, am0, _am1 = pair(AmConfig.adaptive())
    peer = am0._peers_by_node[1]
    am0._update_rto(peer, 1000.0)
    assert peer.srtt == 1000.0
    assert peer.rttvar == 500.0
    assert peer.rto_us == 1000.0 + 4.0 * 500.0
    assert peer.rtt_samples == 1


def test_rtt_ewma_follows_jacobson_karels(pair):
    _sim, am0, _am1 = pair(AmConfig.adaptive())
    peer = am0._peers_by_node[1]
    am0._update_rto(peer, 1000.0)
    am0._update_rto(peer, 2000.0)
    # rttvar' = 3/4*500 + 1/4*|1000-2000|; srtt' = 7/8*1000 + 1/8*2000
    assert peer.rttvar == pytest.approx(625.0)
    assert peer.srtt == pytest.approx(1125.0)
    assert peer.rto_us == pytest.approx(1125.0 + 4.0 * 625.0)
    assert peer.rtt_samples == 2


def test_rto_is_clamped_to_floor_and_ceiling(pair):
    config = AmConfig.adaptive(rto_min_us=250.0, rto_max_us=60_000.0)
    _sim, am0, _am1 = pair(config)
    peer = am0._peers_by_node[1]
    am0._update_rto(peer, 10.0)  # srtt+4*rttvar = 30 -> floor
    assert peer.rto_us == 250.0
    am0._update_rto(peer, 1_000_000.0)
    assert peer.rto_us == 60_000.0


def test_backoff_multiplies_the_rto_with_bounded_jitter(pair):
    config = AmConfig.adaptive(backoff_factor=2.0)
    _sim, am0, _am1 = pair(config)
    peer = am0._peers_by_node[1]
    peer.srtt, peer.rttvar, peer.rto_us = 1000.0, 500.0, 3000.0
    assert am0._current_rto(peer) == 3000.0  # no backoff, no jitter
    peer.backoff = 1
    for _ in range(20):
        rto = am0._current_rto(peer)
        assert 6000.0 <= rto <= 6000.0 * 1.1
    peer.backoff = 10  # 3000 * 2^10 would be ~3s: must hit the ceiling
    assert am0._current_rto(peer) == config.rto_max_us


def test_fixed_mode_ignores_the_estimator(pair):
    _sim, am0, _am1 = pair(AmConfig())  # adaptive_rto off
    peer = am0._peers_by_node[1]
    peer.srtt, peer.rto_us = 100.0, 700.0
    assert am0._current_rto(peer) == am0.config.retransmit_timeout_us


def test_karns_rule_skips_retransmitted_packets(pair):
    _sim, am0, _am1 = pair(AmConfig.adaptive())
    peer = am0._peers_by_node[1]
    peer.unacked[0] = object()
    peer.sent_at[0] = 0.0
    peer.rexmit_seqs.add(0)  # this packet was retransmitted
    peer.backoff = 3
    am0._process_ack(peer, 1)
    assert peer.rtt_samples == 0  # no sample from an ambiguous ack
    assert peer.backoff == 0  # but progress still cancels backoff
    assert not peer.unacked and not peer.rexmit_seqs and not peer.sent_at


def test_clean_ack_produces_a_sample(pair):
    _sim, am0, _am1 = pair(AmConfig.adaptive())
    peer = am0._peers_by_node[1]
    peer.unacked[0] = object()
    peer.sent_at[0] = -500.0  # "sent" 500 us before now (sim.now == 0)
    am0._process_ack(peer, 1)
    assert peer.rtt_samples == 1
    assert peer.srtt == 500.0


# ----------------------------------------------------------------- AIMD
def test_window_halves_on_fast_retransmit_and_grows_on_acks(pair):
    _sim, am0, _am1 = pair(AmConfig.adaptive())
    peer = am0._peers_by_node[1]
    assert peer.cwnd == 16.0
    peer.unacked[0] = object()
    am0._fast_retransmit(peer)
    assert peer.fast_retransmits == 1
    assert peer.cwnd == 8.0
    assert am0._effective_window(peer) == 8
    am0._process_ack(peer, 1)  # additive increase: +1/cwnd per acked pkt
    assert peer.cwnd == pytest.approx(8.0 + 1.0 / 8.0)


def test_window_never_shrinks_below_min_window(pair):
    config = AmConfig.adaptive()
    _sim, am0, _am1 = pair(config)
    peer = am0._peers_by_node[1]
    peer.cwnd = 1.5
    peer.unacked[0] = object()
    am0._fast_retransmit(peer)
    assert peer.cwnd == MIN_WINDOW
    assert am0._effective_window(peer) == MIN_WINDOW


def test_effective_window_is_static_without_adaptive_window(pair):
    _sim, am0, _am1 = pair(AmConfig())
    peer = am0._peers_by_node[1]
    peer.cwnd = 1.0  # ignored in fixed mode
    assert am0._effective_window(peer) == am0.config.window


# ------------------------------------------------- dup-ack fast retransmit
def _run_single_drop_stream(pair, config, messages=12):
    """Send ``messages`` requests with the 3rd data frame dropped.

    Returns (delivered ids, sim time the last id was dispatched, peer).
    """
    sim, am0, am1 = pair(config)
    seen = []
    done_at = []

    def handler(ctx):
        seen.append(ctx.args[0])
        if len(seen) == messages:
            done_at.append(sim.now)

    am1.register_handler(1, handler)
    pipeline = attach_pipeline(am1.user.host.backend, [DropNth(3)])

    def tx():
        for i in range(messages):
            yield from am0.request(1, 1, args=(i,))

    sim.process(tx())
    sim.run(until=1_000_000.0)
    pipeline.restore()
    return seen, done_at[0] if done_at else None, am0._peers_by_node[1]


def test_dup_acks_trigger_fast_retransmit(pair):
    # drop exactly the 3rd data frame arriving at the receiver: the
    # following in-window arrivals each produce an immediate duplicate
    # ack, crossing the sender's threshold long before the 4 ms RTO
    seen, done_at, peer = _run_single_drop_stream(pair, AmConfig.adaptive())
    assert seen == list(range(12))  # exactly-once, in order
    assert done_at is not None
    assert peer.fast_retransmits >= 1
    # the first recovery was dup-ack driven; the go-back-N tail (the
    # receiver discarded everything behind the hole) then drains on the
    # estimated RTO, far below the fixed 4 ms per lost packet
    assert peer.retransmissions > peer.timeouts


def test_fixed_stack_needs_full_rtos_for_the_same_loss(pair):
    seen, done_at, peer = _run_single_drop_stream(pair, AmConfig())
    assert seen == list(range(12))
    assert peer.fast_retransmits == 0
    assert done_at is not None and done_at >= AmConfig().retransmit_timeout_us


def test_adaptive_recovers_much_faster_than_fixed(pair):
    _seen_a, adaptive_done, _pa = _run_single_drop_stream(pair, AmConfig.adaptive())
    _seen_f, fixed_done, _pf = _run_single_drop_stream(pair, AmConfig())
    assert adaptive_done is not None and fixed_done is not None
    assert adaptive_done < fixed_done / 4.0


def test_threshold_not_reached_without_enough_dup_acks(pair):
    _sim, am0, _am1 = pair(AmConfig.adaptive(dup_ack_threshold=3))
    peer = am0._peers_by_node[1]
    peer.unacked[5] = object()
    am0._process_ack(peer, 5)  # baseline ack
    am0._process_ack(peer, 5)  # dup 1
    am0._process_ack(peer, 5)  # dup 2
    assert peer.fast_retransmits == 0
    am0._process_ack(peer, 5)  # dup 3: threshold
    assert peer.fast_retransmits == 1
    # further dups must not retransmit the same head again
    am0._process_ack(peer, 5)
    assert peer.fast_retransmits == 1
