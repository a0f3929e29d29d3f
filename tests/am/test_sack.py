"""Loss-resilient transport in the simulator: SACK and ECN behavior.

The selective-acknowledgment upgrade must (a) hold out-of-order
arrivals and dispatch in order, (b) retransmit holes only — never the
whole window — and (c) keep Karn's rule over selective retransmits.
The ECN mode must note CE marks at the receiver, echo them back, and
shrink the sender's window once per round.  All behind default-off
knobs whose combinations are validated at construction.
"""

import pytest

from repro.am import AmConfig, AmEndpoint
from repro.am.core import MIN_WINDOW
from repro.am.protocol import SACK_BITMAP_BITS, mark_ce
from repro.core import EndpointConfig
from repro.core.errors import ConfigError, UNetError
from repro.ethernet import SwitchedNetwork
from repro.ethernet.frames import FrameWire
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
        return rig.sim, rig.ep1.host, rig.ep2.host, am0, am1

    return build


class DropNth(LinkPerturbation):
    """Deterministically drop exactly the n-th PDU seen (1-based)."""

    def __init__(self, *ns):
        super().__init__()
        self.ns = set(ns)
        self.count = 0

    def process(self, pdu, now, emit):
        self.count += 1
        if self.count in self.ns:
            return
        emit(pdu, 0.0)


class MarkNth(LinkPerturbation):
    """Deterministically CE-mark exactly the n-th PDU seen (1-based)."""

    def __init__(self, *ns):
        super().__init__()
        self.ns = set(ns)
        self.count = 0

    def process(self, pdu, now, emit):
        self.count += 1
        if self.count in self.ns:
            (pdu,) = FrameWire.rewrite([pdu], mark_ce)
        emit(pdu, 0.0)


def _stream(sim, am0, n, collected):
    def traffic():
        for i in range(n):
            yield from am0.request(1, 1, args=(i,))
    sim.process(traffic(), name="sack.traffic")
    sim.run(until=1_000_000.0)
    return collected


# ------------------------------------------------------------- validation
def test_ack_mode_and_congestion_values_are_validated():
    with pytest.raises(ConfigError, match="ack_mode"):
        AmConfig(ack_mode="cumulative")
    with pytest.raises(ConfigError, match="congestion"):
        AmConfig(congestion="red")


@pytest.mark.parametrize("kwargs,knob", [
    ({"ack_mode": "sack", "fast_retransmit": True, "adaptive_rto": True},
     "fast_retransmit"),
    ({"ack_mode": "sack", "recovery": True}, "recovery"),
    ({"ack_mode": "sack", "window": SACK_BITMAP_BITS + 1}, "window"),
    ({"congestion": "ecn"}, "congestion"),  # needs adaptive_window
    ({"congestion": "ecn", "adaptive_window": True, "credit_flow": True},
     "credit_flow"),
])
def test_invalid_knob_combinations_raise_typed_errors(kwargs, knob):
    with pytest.raises(ConfigError) as excinfo:
        AmConfig(**kwargs)
    assert excinfo.value.knob == knob
    # the typed error is both a UNetError and a ValueError, so both the
    # new hierarchy and legacy call sites catch it
    assert isinstance(excinfo.value, UNetError)
    assert isinstance(excinfo.value, ValueError)


def test_valid_sack_and_ecn_configs_construct():
    AmConfig(ack_mode="sack")
    AmConfig(ack_mode="sack", window=SACK_BITMAP_BITS)
    AmConfig(ack_mode="sack", congestion="ecn", adaptive_window=True)


# ------------------------------------------------------ selective repeat
def test_clean_sack_stream_sends_no_retransmissions(pair):
    sim, _h0, _h1, am0, am1 = pair(AmConfig(ack_mode="sack"))
    got = []
    am1.register_handler(1, lambda ctx: got.append(ctx.args[0]))
    _stream(sim, am0, 12, got)
    assert got == list(range(12))
    assert am0._peers_by_node[1].retransmissions == 0


def test_one_hole_retransmits_one_packet_not_the_window(pair):
    """The headline SACK property: a single drop inside a full window
    costs exactly one retransmission; go-back-N would replay the tail."""
    sim, _h0, h1, am0, am1 = pair(AmConfig(ack_mode="sack"))
    pipeline = attach_pipeline(h1.backend, [DropNth(3)])
    got = []
    am1.register_handler(1, lambda ctx: got.append(ctx.args[0]))
    _stream(sim, am0, 12, got)
    pipeline.restore()
    assert got == list(range(12))
    peer = am0._peers_by_node[1]
    assert peer.retransmissions == 1
    # the receiver held the out-of-order tail instead of dropping it
    assert am1._peers_by_node[0].duplicates == 0


def test_burst_of_holes_retransmits_each_hole_once(pair):
    sim, _h0, h1, am0, am1 = pair(AmConfig(ack_mode="sack"))
    pipeline = attach_pipeline(h1.backend, [DropNth(3, 4, 5)])
    got = []
    am1.register_handler(1, lambda ctx: got.append(ctx.args[0]))
    _stream(sim, am0, 16, got)
    pipeline.restore()
    assert got == list(range(16))
    assert am0._peers_by_node[1].retransmissions == 3


def test_gbn_replays_the_window_where_sack_does_not(pair):
    """The same single drop under both ack modes: the go-back-N run
    must retransmit strictly more (and redeliver duplicates)."""
    costs = {}
    for mode in ("gbn", "sack"):
        sim, _h0, h1, am0, am1 = pair(AmConfig(ack_mode=mode))
        pipeline = attach_pipeline(h1.backend, [DropNth(3)])
        got = []
        am1.register_handler(1, lambda ctx, got=got: got.append(ctx.args[0]))
        _stream(sim, am0, 12, got)
        pipeline.restore()
        assert got == list(range(12))
        costs[mode] = (am0._peers_by_node[1].retransmissions,
                       am1._peers_by_node[0].duplicates)
    assert costs["sack"] == (1, 0)
    assert costs["gbn"][0] > 1
    assert costs["gbn"][1] > 0


def test_selective_retransmits_obey_karns_rule(pair):
    """A selectively retransmitted packet's RTT must never be sampled:
    its ack time is ambiguous between the two transmissions."""
    sim, _h0, h1, am0, am1 = pair(AmConfig(ack_mode="sack",
                                           adaptive_rto=True))
    pipeline = attach_pipeline(h1.backend, [DropNth(3)])
    am1.register_handler(1, lambda ctx: None)
    _stream(sim, am0, 12, [])
    pipeline.restore()
    peer = am0._peers_by_node[1]
    assert peer.retransmissions == 1
    # 12 sends, one retransmitted: at most 11 clean samples
    assert peer.rtt_samples <= 11


def test_sack_state_appears_in_snapshots(pair):
    sim, _h0, h1, am0, am1 = pair(AmConfig(ack_mode="sack"))
    pipeline = attach_pipeline(h1.backend, [DropNth(2)])
    am1.register_handler(1, lambda ctx: None)
    _stream(sim, am0, 8, [])
    pipeline.restore()
    snap = am0.snapshot()[1]
    for key in ("sacked", "ooo_held", "ecn_marks", "ecn_echoes",
                "ecn_backoffs"):
        assert key in snap
    # everything drained by the end of the run
    assert snap["sacked"] == 0
    assert am1.snapshot()[0]["ooo_held"] == 0


# ------------------------------------------------------------------- ECN
def _ecn_config(**overrides):
    overrides.setdefault("ack_mode", "sack")
    overrides.setdefault("congestion", "ecn")
    overrides.setdefault("adaptive_window", True)
    return AmConfig(**overrides)


def test_ce_mark_is_noted_echoed_and_backs_the_sender_off(pair):
    sim, _h0, h1, am0, am1 = pair(_ecn_config())
    pipeline = attach_pipeline(h1.backend, [MarkNth(3)])
    got = []
    am1.register_handler(1, lambda ctx: got.append(ctx.args[0]))
    _stream(sim, am0, 12, got)
    pipeline.restore()
    assert got == list(range(12))  # marking never corrupts delivery
    receiver = am1._peers_by_node[0]
    sender = am0._peers_by_node[1]
    assert receiver.ecn_marks == 1
    assert receiver.ecn_echoes == 1
    assert sender.ecn_backoffs == 1
    assert sender.retransmissions == 0  # signal without loss


def test_one_burst_of_marks_costs_one_backoff_per_round(pair):
    """RFC-3168 shape: every mark is echoed, but the sender halves its
    window at most once per window round trip."""
    sim, _h0, h1, am0, am1 = pair(_ecn_config())
    pipeline = attach_pipeline(h1.backend, [MarkNth(3, 4, 5, 6)])
    am1.register_handler(1, lambda ctx: None)
    _stream(sim, am0, 12, [])
    pipeline.restore()
    receiver = am1._peers_by_node[0]
    sender = am0._peers_by_node[1]
    assert receiver.ecn_marks == 4
    # echoes drain one per outbound packet; a tail mark may still be
    # pending a carrier when the stream ends, but most must get out
    assert 3 <= receiver.ecn_echoes <= 4
    # the round gate collapses the burst: far fewer backoffs than marks
    # (the burst may straddle one round boundary, hence "up to 2")
    assert 1 <= sender.ecn_backoffs <= 2
    assert sender.cwnd >= MIN_WINDOW


def test_ce_marks_are_ignored_without_ecn_mode(pair):
    """A gbn or plain-sack endpoint crossing an ECN-marking queue must
    treat the CE bit as noise: no echoes, no backoffs, clean delivery."""
    for config in (AmConfig(), AmConfig(ack_mode="sack")):
        sim, _h0, h1, am0, am1 = pair(config)
        pipeline = attach_pipeline(h1.backend, [MarkNth(2, 3)])
        got = []
        am1.register_handler(1, lambda ctx, got=got: got.append(ctx.args[0]))
        _stream(sim, am0, 8, got)
        pipeline.restore()
        assert got == list(range(8))
        assert am1._peers_by_node[0].ecn_echoes == 0
        assert am0._peers_by_node[1].ecn_backoffs == 0
