"""The protocol core on its own: no Simulator, no sockets, no sleeping.

A fake driver with a settable ``now`` and list-collecting hooks stands
in for :class:`~repro.am.am.AmEndpoint` / :class:`~repro.live.am.LiveAm`,
so every clock-free decision the two drivers share is pinned once, in
microseconds of test time.
"""

import pytest

from repro.am.core import ACK_DELAY_US, MIN_WINDOW, AmConfig, AmCore, PeerState
from repro.am.protocol import (TYPE_ACK, TYPE_HELLO, TYPE_HELLO_ACK, TYPE_REPLY,
                               TYPE_REQUEST, Packet, decode, encode)
from repro.core.errors import PeerUnavailableError, StaleEpochError
from repro.sim import TraceRecorder


class _Queue(list):
    capacity = 64


class _Endpoint:
    def __init__(self):
        self.drops = {}
        self.recv_queue = _Queue()
        self.free_queue = _Queue(range(32))

    def note_drop(self, kind):
        self.drops[kind] = self.drops.get(kind, 0) + 1


class _Backend:
    max_pdu = 1500

    def __init__(self):
        self.trace = TraceRecorder(enabled=False)


class _User:
    def __init__(self):
        self.endpoint = _Endpoint()
        self.backend = _Backend()


class FakeAm(AmCore):
    """The smallest possible driver: every hook records its call."""

    def __init__(self, config=None, node_id=0):
        super().__init__(node_id, _User(), config)
        self.now = 0.0
        self.sent = []          # (peer node, ptype) control packets
        self.rexmits = []       # (peer node, seq or None) requested
        self.rpc_done = {}
        self.rpc_failed = {}
        self.opened = []
        self.events = []
        self.trace.subscribe(lambda r: self.events.append((r.step, r.info)))
        self.connect_peer(1, 7)
        self.peer = self._peers_by_node[1]

    def _now(self):
        return self.now

    def _new_peer(self, node, channel):
        return PeerState(node, channel, self.config.window, self.now)

    def _send_now(self, peer, ptype):
        self.sent.append((peer.node, ptype))

    def _retransmit_now(self, peer, seq=None):
        self.rexmits.append((peer.node, seq))

    def _start_hello(self, peer):
        self.sent.append((peer.node, TYPE_HELLO))

    def _credit_opened(self, peer):
        self.opened.append(peer.node)

    def _rpc_complete(self, key, token, reply):
        self.rpc_done[key] = reply

    def _rpc_fail(self, key, token, exc):
        self.rpc_failed[key] = exc

    # -- helpers ----------------------------------------------------------
    def send(self, n=1):
        """Track ``n`` fresh packets as a driver's request() would."""
        seqs = []
        for _ in range(n):
            packet = self._sequenced(self.peer, TYPE_REQUEST, 1, 0, (0,), b"")
            self._prepare(self.peer, packet, track=True)
            seqs.append(packet.seq)
        return seqs

    def kinds(self, kind):
        return [f for k, f in self.events if k == kind]


def test_karns_rule_never_samples_a_retransmitted_seq():
    am = FakeAm(AmConfig(adaptive_rto=True))
    am.send(2)
    am.now = 500.0
    assert am._rexmit_wire(am.peer) is not None      # head (seq 0) resent
    am.now = 900.0
    am._process_ack(am.peer, 1)                      # acks only the resent one
    assert am.peer.rtt_samples == 0 and am.peer.srtt is None
    am.now = 1000.0
    am._process_ack(am.peer, 2)                      # seq 1 was clean
    assert am.peer.rtt_samples == 1 and am.peer.srtt == 1000.0
    assert not am.peer.rexmit_seqs and not am.peer.sent_at


def test_aimd_grows_one_packet_per_window_of_clean_acks():
    am = FakeAm(AmConfig(adaptive_window=True, window=16))
    am.peer.cwnd = 4.0
    am.send(4)
    for ack in (1, 2, 3, 4):
        am._process_ack(am.peer, ack)
    assert 4.9 < am.peer.cwnd <= 5.0     # ~ +1 after one window's worth
    assert am._effective_window(am.peer) == 4


@pytest.mark.parametrize("signal", ["timeout", "fast-retransmit", "ecn"])
def test_aimd_halves_on_every_congestion_signal(signal):
    am = FakeAm(AmConfig(adaptive_window=True, fast_retransmit=True,
                         congestion="ecn"))
    am.send(3)
    if signal == "timeout":
        assert am._rto_expired(am.peer, 4000.0)
    elif signal == "fast-retransmit":
        am._fast_retransmit(am.peer)
        assert am.rexmits == [(1, None)]
    else:
        am._ecn_backoff(am.peer, 0)
    assert am.peer.cwnd == 8.0
    am.peer.cwnd = 1.5
    am._halve_window(am.peer)
    assert am.peer.cwnd == MIN_WINDOW    # never below it


def test_ecn_backs_off_at_most_once_per_round():
    am = FakeAm(AmConfig(adaptive_window=True, congestion="ecn"))
    am.send(4)                           # window edge is now seq 4
    am._ecn_backoff(am.peer, 0)
    am._ecn_backoff(am.peer, 1)          # same congested round: ignored
    am._ecn_backoff(am.peer, 3)
    assert am.peer.ecn_backoffs == 1 and am.peer.cwnd == 8.0
    am._ecn_backoff(am.peer, 4)          # the ack reached the recorded edge
    assert am.peer.ecn_backoffs == 2 and am.peer.cwnd == 4.0
    assert len(am.kinds("ecn_backoff")) == 2


def test_each_sack_hole_goes_once_per_round_and_is_rearmed_by_an_rto():
    am = FakeAm(AmConfig(ack_mode="sack", window=8))
    am.send(5)                           # seqs 0..4 outstanding
    bits = 0b1010                        # receiver holds 2 and 4 (ack=0)
    am._process_sack(am.peer, 0, bits)
    assert am.peer.sacked == {2, 4}
    assert am.rexmits == [(1, 0), (1, 1), (1, 3)]
    am._process_sack(am.peer, 0, bits)   # same round: nothing resent twice
    assert len(am.rexmits) == 3
    assert am._rto_expired(am.peer, 4000.0)   # opens a new selective round
    am._process_sack(am.peer, 0, bits)
    assert am.rexmits[3:] == [(1, 0), (1, 1), (1, 3)]


def test_retransmission_skips_sacked_packets():
    am = FakeAm(AmConfig(ack_mode="sack", window=8))
    am.send(3)
    am.peer.sacked = {0}
    assert decode(am._rexmit_wire(am.peer)).seq == 1     # first unSACKed
    assert am._rexmit_wire(am.peer, 0) is None           # receiver has it
    assert am._rexmit_wire(am.peer, 9) is None           # long retired
    am.peer.sacked = {0, 1, 2}
    assert decode(am._rexmit_wire(am.peer)).seq == 0     # liveness fallback
    assert am.peer.retransmissions == 2
    assert [f.get("selective") for f in am.kinds("rexmit")] == [None, None]


def test_a_restarted_peer_abandons_in_flight_sends():
    am = FakeAm(AmConfig(recovery=True, adaptive_window=True, congestion="ecn"))
    seqs = am.send(3)
    am._rpc_pending[(1, seqs[1])] = "token"
    am.peer.pending_echoes, am.peer.ecn_round_end = 2, 3
    hello = encode(Packet(type=TYPE_HELLO, ack=0, epoch=1, peer_epoch=0))
    assert am._receive(7, hello) is None
    peer = am.peer
    assert not peer.unacked and peer.abandoned == 3 and am.abandoned_sends == 3
    assert am.user.endpoint.drops == {"peer_dead_drops": 3}
    assert [f["seq"] for f in am.kinds("abandon")] == seqs
    assert isinstance(am.rpc_failed[(1, seqs[1])], PeerUnavailableError)
    assert (peer.next_seq, peer.expected_seq, peer.remote_epoch) == (0, 0, 1)
    assert peer.pending_echoes == 0 and peer.ecn_round_end is None
    assert am.opened == [1]              # blocked senders get another look
    assert am.sent[-1] == (1, TYPE_HELLO_ACK)    # every HELLO is answered


def test_ack_starvation_backs_off_before_it_gives_the_verdict():
    am = FakeAm(AmConfig(recovery=True, adaptive_rto=True, adaptive_window=True,
                         dead_after_timeouts=2))
    am.send(2)
    assert am._rto_expired(am.peer, 4000.0) is True
    assert am._rto_expired(am.peer, 8000.0) is False     # declared dead
    assert (am.peer.backoff, am.peer.cwnd, am.peer.alive) == (2, 4.0, False)
    assert am.peer.abandoned == 2
    assert [k for k, _ in am.events if k in ("timeout", "peer_dead", "abandon")] == [
        "timeout", "timeout", "peer_dead", "abandon", "abandon"]
    with pytest.raises(PeerUnavailableError):
        am._gate(am.peer)


def test_epoch_fence_checks_both_halves():
    am = FakeAm(AmConfig(recovery=True, epoch=3))
    am.peer.remote_epoch = 5

    def request(epoch, peer_epoch):
        return encode(Packet(type=TYPE_REQUEST, handler=1, seq=0, args=(0,),
                             epoch=epoch, peer_epoch=peer_epoch))

    assert am._receive(7, request(4, 3)) is None     # from a dead incarnation
    assert am._receive(7, request(5, 2)) is None     # addressed to a dead one
    stale = am.kinds("stale_epoch")
    assert [f.get("echo") for f in stale] == [None, 1]
    assert am.user.endpoint.drops == {"stale_epoch_drops": 2}
    assert am.peer.expected_seq == 0
    arrival = am._receive(7, request(5, 3))          # current on both halves
    assert arrival is not None and arrival[0] is am.peer


def test_crash_fails_pending_rpcs_and_restart_says_hello():
    am = FakeAm(AmConfig(recovery=True))
    am.send(1)
    am._rpc_pending[(1, 0)] = "token"
    am.crash()
    assert isinstance(am.rpc_failed[(1, 0)], StaleEpochError)
    with pytest.raises(StaleEpochError):
        am._check_incarnation()
    assert am.restart() == 1
    fresh = am._peers_by_node[1]
    assert fresh is not am.peer and fresh.reconnecting and not fresh.unacked
    assert am.sent == [(1, TYPE_HELLO)]
    assert am._gate(fresh) == "hello"


def test_receive_delivers_in_order_and_acks_by_policy():
    am = FakeAm(AmConfig(ack_every=2))
    got = []
    am.register_handler(1, lambda ctx: got.append(ctx.args[0]))
    for seq in (0, 1):
        raw = encode(Packet(type=TYPE_REQUEST, handler=1, seq=seq, args=(seq,)))
        peer, packet = am._receive(7, raw)
        assert am._accept(peer, packet) is None
        am._note_delivery(peer)
    assert got == [0, 1]
    assert am.peer.ack_deadline == ACK_DELAY_US   # armed at t=0 ...
    assert am.sent == [(1, TYPE_ACK)]                        # ... then ack_every hit
    dup = encode(Packet(type=TYPE_REQUEST, handler=1, seq=0, args=(0,)))
    assert am._receive(7, dup) is None and am.peer.duplicates == 1
    am._rpc_pending[(1, 4)] = "token"
    reply = encode(Packet(type=TYPE_REPLY, seq=2, req_seq=4, args=(9,)))
    am._accept(*am._receive(7, reply))
    assert am.rpc_done[(1, 4)][0][0] == 9


def test_snapshot_keys_are_the_published_ones_on_every_driver():
    from repro.am.am import AmEndpoint
    from repro.live.am import LiveAm

    assert set(FakeAm().snapshot()[1]) == {
        "next_seq", "expected_seq", "unacked", "window", "cwnd",
        "remote_credit", "last_advertised", "retransmissions", "timeouts",
        "fast_retransmits", "duplicates", "credit_stalls", "rtt_samples",
        "sacked", "ooo_held", "ecn_marks", "ecn_echoes", "ecn_backoffs",
        "srtt_us", "epoch", "remote_epoch", "alive", "reconnecting",
        "abandoned"}
    assert AmEndpoint.snapshot is AmCore.snapshot is LiveAm.snapshot
