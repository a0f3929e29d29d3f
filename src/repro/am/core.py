"""Active Messages over U-Net: the protocol core, free of any I/O.

"Split-C is implemented over Active Messages, a low-cost RPC mechanism,
providing flow control and reliable transfer, which has been implemented
over U-Net" (Section 5).  :class:`AmCore` is that layer's one
implementation — per-peer state and every decision that needs neither a
clock source, a socket nor a simulator process:

* **handlers** — a received request invokes a registered handler with
  four word arguments and a data block; the handler may send a reply.
* **reliability** — go-back-N retransmission over per-peer sequence
  numbers with cumulative (piggybacked or delayed-explicit) acks.
  U-Net itself drops messages when receive resources are exhausted.
* **flow control** — a bounded per-peer window of unacknowledged
  requests; senders wait on a full window.
* **adaptation** (opt-in, see :class:`AmConfig`) — Jacobson/Karels RTO
  estimation with Karn's rule and jittered exponential backoff, AIMD
  window adaptation, and duplicate-ack fast retransmit.  All default
  off, so the classic fixed-RTO protocol the benchmarks were calibrated
  against is what you get out of the box.
* **receiver credit** (opt-in, ``AmConfig.credit_flow``) — every packet
  advertises the sender's remaining receive capacity (free receive-queue
  slots and donated buffers, fair-shared across peers); senders gate
  their window on the peer's latest advertisement minus their own
  unacked in-flight packets.  A receiver that falls behind thus stalls
  its senders instead of silently shedding their packets, which is the
  backpressure half of the overload-containment story (the other half,
  quarantine, lives in :mod:`repro.core.health`).
* **crash recovery** (opt-in, ``AmConfig.recovery``) — incarnation
  epochs fence a dead process's traffic, a HELLO handshake re-establishes
  each channel after :meth:`AmCore.restart`, and an ack-starvation
  detector declares silent peers dead, abandoning (never replaying)
  their in-flight sends under the at-most-once contract.
* **selective acknowledgment** (opt-in, ``AmConfig.ack_mode="sack"``) —
  every packet the receiver sends back carries a SACK bitmap over its
  bounded reorder buffer; the sender keeps a scoreboard and retransmits
  only the *holes* (Karn-safe: selective retransmissions are never RTT
  sampled), so one lost packet under bursty loss costs one retransmit
  instead of a serial chain of go-back-N timeouts.  Dispatch order is
  still sequence order — the reorder buffer never releases early.
* **ECN-style congestion signaling** (opt-in,
  ``AmConfig.congestion="ecn"``) — a congested queue marks packets
  (congestion experienced) instead of dropping them; the receiver
  echoes marks back and the sender halves its AIMD window at most once
  per round trip (RFC-3168 shape), backing off *before* loss.

Two drivers subclass the core and own only what their substrates
genuinely differ in: :class:`repro.am.am.AmEndpoint` (simulated time,
generator processes that block on events) and
:class:`repro.live.am.LiveAm` (wall clock, polled).  The core reaches
its driver through a short hook set, called as plain methods:

===================================  ====================================
``_now()``                           current time in microseconds
``_new_peer(node, channel)``         a :class:`PeerState` (sub)instance
``_send_now(peer, ptype)``           transmit an untracked control packet
                                     (ACK, HELLO-ACK) without blocking
``_retransmit_now(peer, seq=None)``  retransmit (see :meth:`_rexmit_wire`)
                                     without blocking
``_start_hello(peer)``               begin HELLO (re)transmission
``_credit_opened(peer)``             remote credit became positive
``_rpc_complete(key, token, reply)`` hand a reply to the rpc's issuer
``_rpc_fail(key, token, exc)``       fail the rpc towards its issuer
===================================  ====================================

plus four that only a *blocking* driver overrides (no-ops here):
``_window_opened``, ``_arm_delayed_ack``, ``_reconnected`` and
``_fail_waiters``.  The spec-critical predicates live in
:mod:`repro.am.spec` and are reached through the ``_credit_blocked`` /
``_acked_seqs`` / ``_epoch_stale`` / ``_reconnect_plan`` / ``_sack_plan``
/ ``_ecn_echo`` seams, which the conformance bug library patches *here*
— one injected bug breaks every driver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from ..core.errors import ConfigError, PeerUnavailableError, StaleEpochError
from .protocol import (
    CREDIT_SIZE,
    EPOCH_MOD,
    EPOCH_SIZE,
    HEADER_SIZE,
    SACK_BITMAP_BITS,
    SACK_SIZE,
    SEQ_MOD,
    TYPE_ACK,
    TYPE_HELLO,
    TYPE_HELLO_ACK,
    TYPE_REPLY,
    TYPE_REQUEST,
    Packet,
    decode,
    encode,
    seq_add,
    seq_lt,
)
from .spec import (
    ack_epoch_applies,
    credit_gate_blocks,
    cumulative_acked,
    ecn_backoff_allowed,
    effective_epoch,
    epoch_advances,
    epoch_is_stale,
    reconnect_plan,
    reorder_admit,
    sack_block,
    sack_retransmit_plan,
)

__all__ = ["AmConfig", "AmCore", "AmError", "PeerState", "RequestContext",
           "handshake_settled"]


class AmError(Exception):
    """Active Messages protocol/usage error."""


@dataclass
class AmConfig:
    """Tunables of the reliability/flow-control machinery."""

    #: maximum unacknowledged packets per peer (must be < SEQ_MOD/2)
    window: int = 16
    #: retransmit the window after this long without an acknowledgement
    retransmit_timeout_us: float = 4000.0
    #: send an explicit ACK if no reverse traffic carried one by then
    ack_delay_us: float = 60.0
    #: ... or after this many unacknowledged deliveries
    ack_every: int = 8
    #: per-message handler-dispatch CPU cost at the receiver
    dispatch_overhead_us: float = 1.0
    #: buffer out-of-order arrivals (up to one window) instead of
    #: dropping them: turns go-back-N into selective-repeat-style
    #: recovery.  Off by default (classic AM); essential for striped
    #: paths that reorder, e.g. Beowulf dual-NIC bonding.
    ooo_buffering: bool = False

    # -- adaptive reliability (all off by default: the fixed-RTO, ----------
    # -- static-window protocol above reproduces the paper's numbers) ------
    #: estimate the RTO per peer (Jacobson/Karels SRTT + RTTVAR, with
    #: Karn's rule: never sample a retransmitted packet's RTT)
    adaptive_rto: bool = False
    #: floor of the estimated RTO (guards against spurious retransmits
    #: when delayed acks dominate the RTT sample)
    rto_min_us: float = 250.0
    #: ceiling of the estimated/backed-off RTO
    rto_max_us: float = 60_000.0
    #: RTO multiplier per consecutive timeout (exponential backoff)
    backoff_factor: float = 2.0
    #: random extra fraction added to backed-off RTOs so that peers
    #: sharing a medium do not phase-lock their retransmissions
    backoff_jitter: float = 0.1
    #: AIMD window adaptation: halve the effective window on timeout,
    #: grow it additively (one packet per window's worth of clean acks)
    adaptive_window: bool = False
    #: AIMD never shrinks the effective window below this
    min_window: int = 1
    #: retransmit the window head after `dup_ack_threshold` duplicate
    #: cumulative acks instead of waiting out the RTO
    fast_retransmit: bool = False
    dup_ack_threshold: int = 3

    # -- receiver-credit backpressure (off by default: classic U-Net is ----
    # -- receiver-paced and drops; see the overload soak for the contrast) -
    #: gate the send window on the peer's advertised receive capacity, so
    #: an exhausted receiver turns sender overruns into stalls, not drops.
    #: Advertisements piggyback on every packet (two extra wire bytes) and
    #: are refreshed periodically when they change.
    credit_flow: bool = False
    #: period of the background credit refresh
    credit_update_us: float = 400.0

    # -- crash recovery (off by default: endpoints live forever and the ----
    # -- classic wire bytes are untouched) ---------------------------------
    #: stamp every packet with the incarnation-epoch pair, fence stale
    #: traffic, run the HELLO reconnect handshake after restart(), and
    #: declare ack-starved peers dead instead of retransmitting forever
    recovery: bool = False
    #: starting incarnation (restarts increment it modulo EPOCH_MOD)
    epoch: int = 0
    #: consecutive ack-starved retransmission timeouts before the peer
    #: is declared dead and its in-flight sends are abandoned
    dead_after_timeouts: int = 6
    #: HELLO retransmit period while a reconnect handshake is in flight
    hello_retry_us: float = 2000.0

    # -- loss-resilient transport (off by default: the classic wire -------
    # -- bytes and go-back-N recovery are untouched) -----------------------
    #: acknowledgment scheme: ``"gbn"`` (classic cumulative-only
    #: go-back-N) or ``"sack"`` (cumulative ack + bitmap over the
    #: receive horizon, receiver-side reorder buffer, sender scoreboard
    #: with selective retransmit of holes only)
    ack_mode: str = "gbn"
    #: SACK receive horizon: how far past the cumulative ack the
    #: receiver promises to buffer out-of-order arrivals.  Bounded by
    #: the 32-bit wire bitmap; the window may never exceed it.
    sack_horizon: int = 32
    #: congestion signal: ``"loss"`` (classic: timeouts shrink the AIMD
    #: window) or ``"ecn"`` (queues mark packets instead of dropping,
    #: receivers echo marks, senders back off before loss; requires
    #: ``adaptive_window``)
    congestion: str = "loss"

    @classmethod
    def adaptive(cls, **overrides) -> "AmConfig":
        """The full adaptive stack: estimated RTO + AIMD + fast retransmit."""
        overrides.setdefault("adaptive_rto", True)
        overrides.setdefault("adaptive_window", True)
        overrides.setdefault("fast_retransmit", True)
        return cls(**overrides)

    def __post_init__(self) -> None:
        # Everything is rejected here, at construction, with a typed
        # ConfigError (a UNetError *and* a ValueError) — a bad knob or
        # an incoherent mode combination must not surface as a hang or
        # an assertion deep in the send path.
        if not 0 < self.window < SEQ_MOD // 2:
            raise ConfigError("window must be positive and below half the sequence space",
                              knob="window")
        for knob in ("retransmit_timeout_us", "ack_delay_us", "dispatch_overhead_us"):
            value = getattr(self, knob)
            if not value > 0:
                raise ConfigError(f"{knob} must be positive, got {value!r}", knob=knob)
        if not 0 < self.rto_min_us <= self.rto_max_us:
            raise ConfigError("need 0 < rto_min_us <= rto_max_us", knob="rto_min_us")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1", knob="backoff_factor")
        if self.backoff_jitter < 0.0:
            raise ConfigError("backoff_jitter must be >= 0", knob="backoff_jitter")
        if not 0 < self.min_window <= self.window:
            raise ConfigError("need 0 < min_window <= window", knob="min_window")
        if self.dup_ack_threshold < 1:
            raise ConfigError("dup_ack_threshold must be >= 1", knob="dup_ack_threshold")
        if not self.credit_update_us > 0:
            raise ConfigError("credit_update_us must be positive", knob="credit_update_us")
        if not 0 <= self.epoch < EPOCH_MOD:
            raise ConfigError(f"epoch must be in [0, {EPOCH_MOD}), got {self.epoch!r}",
                              knob="epoch")
        if self.dead_after_timeouts < 1:
            raise ConfigError("dead_after_timeouts must be >= 1", knob="dead_after_timeouts")
        if not self.hello_retry_us > 0:
            raise ConfigError("hello_retry_us must be positive", knob="hello_retry_us")
        if self.ack_mode not in ("gbn", "sack"):
            raise ConfigError(f"ack_mode must be 'gbn' or 'sack', got {self.ack_mode!r}",
                              knob="ack_mode")
        if self.congestion not in ("loss", "ecn"):
            raise ConfigError(f"congestion must be 'loss' or 'ecn', got {self.congestion!r}",
                              knob="congestion")
        if not 1 <= self.sack_horizon <= SACK_BITMAP_BITS:
            raise ConfigError(
                f"sack_horizon must be in [1, {SACK_BITMAP_BITS}] (the wire bitmap "
                f"width), got {self.sack_horizon!r}", knob="sack_horizon")
        if self.ack_mode == "sack":
            if self.window > self.sack_horizon:
                raise ConfigError(
                    "window must not exceed sack_horizon: the receiver only "
                    "promises to buffer one horizon of reordering", knob="window")
            if self.fast_retransmit:
                raise ConfigError(
                    "fast_retransmit is the go-back-N dup-ack heuristic; the "
                    "SACK scoreboard subsumes it", knob="fast_retransmit")
            if self.ooo_buffering:
                raise ConfigError(
                    "ooo_buffering is the go-back-N reorder option; "
                    "ack_mode='sack' brings its own bounded reorder buffer",
                    knob="ooo_buffering")
            if self.recovery:
                raise ConfigError(
                    "recovery with ack_mode='sack' is not supported: the "
                    "reconnect contract is defined over a cumulative-ack "
                    "horizon only", knob="recovery")
        if self.congestion == "ecn":
            if not self.adaptive_window:
                raise ConfigError(
                    "congestion='ecn' requires adaptive_window: a mark echo "
                    "has no window to shrink otherwise", knob="congestion")
            if self.credit_flow:
                raise ConfigError(
                    "credit_flow and congestion='ecn' are two backpressure "
                    "signals fighting over one send window; pick one",
                    knob="credit_flow")


class PeerState:
    """Per-connection protocol state.  Drivers subclass it only to add
    the slots their blocking/polling mechanics need."""

    __slots__ = (
        "node", "channel", "next_seq", "unacked", "expected_seq",
        "ack_deadline", "deliveries_since_ack", "last_progress",
        "retransmissions", "duplicates", "ooo_held",
        # adaptive reliability
        "srtt", "rttvar", "rto_us", "backoff", "sent_at", "rexmit_seqs",
        "cwnd", "last_ack", "dup_acks", "fast_done_seq", "timeouts",
        "fast_retransmits", "rtt_samples",
        # selective acknowledgment
        "sacked", "sack_rexmitted",
        # ECN-style congestion signaling
        "pending_echoes", "ecn_round_end", "ecn_marks", "ecn_echoes",
        "ecn_backoffs",
        # receiver-credit backpressure
        "remote_credit", "credit_stalls", "last_advertised",
        # crash recovery
        "remote_epoch", "alive", "starved_timeouts", "reconnecting",
        "abandoned",
    )

    def __init__(self, node: int, channel: int, window: int, now: float) -> None:
        self.node = node
        self.channel = channel
        self.next_seq = 0
        #: seq -> Packet awaiting acknowledgement, in order
        self.unacked: Dict[int, Packet] = {}
        self.expected_seq = 0
        #: when the pending delayed ack is due (None = none pending);
        #: any transmission carries the ack and cancels it
        self.ack_deadline: Optional[float] = None
        self.deliveries_since_ack = 0
        self.last_progress = now
        self.retransmissions = 0
        self.duplicates = 0
        #: out-of-order packets held for in-order delivery (seq -> Packet)
        self.ooo_held: Dict[int, Packet] = {}
        #: smoothed RTT / variance estimates (Jacobson/Karels), unset
        #: until the first clean sample
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        #: current estimated RTO (meaningful once srtt is set)
        self.rto_us = 0.0
        #: consecutive-timeout count driving exponential backoff
        self.backoff = 0
        #: seq -> first-transmission time, for RTT sampling
        self.sent_at: Dict[int, float] = {}
        #: seqs that were retransmitted (Karn's rule: never sample them)
        self.rexmit_seqs: Set[int] = set()
        #: AIMD congestion window (starts wide open at the config window)
        self.cwnd = float(window)
        #: last cumulative ack seen, for duplicate-ack detection
        self.last_ack: Optional[int] = None
        self.dup_acks = 0
        #: head seq already fast-retransmitted (retransmit each head once)
        self.fast_done_seq: Optional[int] = None
        self.timeouts = 0
        self.fast_retransmits = 0
        self.rtt_samples = 0
        #: outstanding seqs a SACK block reported the receiver holds
        self.sacked: Set[int] = set()
        #: holes already selectively retransmitted this round (cleared
        #: on RTO so persistent loss gets another selective pass)
        self.sack_rexmitted: Set[int] = set()
        #: congestion marks accepted but not yet echoed to the peer
        self.pending_echoes = 0
        #: window edge recorded at the last ECN backoff; echoes are
        #: ignored until the cumulative ack reaches it (one per round)
        self.ecn_round_end: Optional[int] = None
        self.ecn_marks = 0
        self.ecn_echoes = 0
        self.ecn_backoffs = 0
        #: peer's latest receive-capacity advertisement (None = none yet,
        #: treated as unlimited so start-up cannot deadlock)
        self.remote_credit: Optional[int] = None
        #: times a sender stalled on exhausted remote credit
        self.credit_stalls = 0
        #: last credit value advertised *to* this peer
        self.last_advertised: Optional[int] = None
        #: the peer incarnation this endpoint believes it is talking to
        self.remote_epoch = 0
        #: False once the liveness detector declared the peer dead;
        #: any valid packet from the peer (usually its HELLO) revives it
        self.alive = True
        #: consecutive RTO firings without any cumulative-ack progress
        self.starved_timeouts = 0
        #: True between restart() and the peer's HELLO-ACK: new sends
        #: wait until the channel is re-established
        self.reconnecting = False
        #: sends abandoned under the at-most-once contract (peer died
        #: or returned as a new incarnation)
        self.abandoned = 0


class RequestContext:
    """Handed to request handlers; lets them reply to the requester."""

    __slots__ = ("am", "src_node", "args", "data", "_req_seq", "replied")

    def __init__(self, am: "AmCore", src_node: int, args, data: bytes, req_seq: int) -> None:
        self.am = am
        self.src_node = src_node
        self.args = args
        self.data = data
        self._req_seq = req_seq
        self.replied = False

    def reply(self, args=(), data: bytes = b""):
        """Send the reply for this request.  On the simulated endpoint
        this returns a process body to ``yield from`` (or return from the
        handler); on the live endpoint the reply is already sent."""
        self.replied = True
        return self.am._send_reply(self.src_node, self._req_seq, args, data)


#: request-handler signature: fn(ctx) -> None, or (simulated endpoint
#: only) a generator the dispatch loop runs to completion
Handler = Callable[[RequestContext], Optional[Generator]]


class AmCore:
    """The Active Messages state machine; see the module docstring.

    One AM endpoint serves one node; peers are added with
    :meth:`connect_peer` after U-Net channels have been created by the
    substrate's signaling/channel service.
    """

    def __init__(self, node_id: int, user, backend, config: Optional[AmConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.node = node_id
        self.user = user
        self._backend = backend
        self.config = config or AmConfig()
        #: deterministic per-endpoint stream for retransmission jitter,
        #: seeded by the first backed-off timeout that draws from it
        self._rng = rng
        self._peers_by_node: Dict[int, PeerState] = {}
        self._peers_by_channel: Dict[int, PeerState] = {}
        #: on-demand channel establishment: called with a node id the
        #: first time it is addressed; expected to set up the channel
        #: (signaling is off the critical path, zero simulated time) and
        #: ``connect_peer`` both ends.  Lets a cluster skip the O(N^2)
        #: eager full mesh.
        self.peer_resolver: Optional[Callable[[int], None]] = None
        self._handlers: Dict[int, Handler] = {}
        #: rpcs awaiting their reply: (peer node, request seq) -> the
        #: driver's completion token
        self._rpc_pending: Dict[Tuple[int, int], Any] = {}
        self.requests_sent = 0
        self.replies_sent = 0
        self.acks_sent = 0
        self.requests_delivered = 0
        #: optional observable-event hook ``observer(kind, fields)``.
        #: Kinds: grant, credit_stall, tx, rexmit, timeout, dispatch,
        #: reply, dup_rx, ecn_mark, ecn_echo, ecn_backoff, plus the
        #: recovery kinds reconnect, reconnected, stale_epoch, abandon,
        #: peer_dead, peer_alive, peer_restart.  Every ``fields`` dict
        #: carries ``node`` (this endpoint), ``peer`` and ``t`` (driver
        #: time); the conformance checker consumes these to diff
        #: substrates against the reference model without reaching into
        #: private state.
        self.observer: Optional[Callable[[str, Dict], None]] = None
        self._running = True
        #: this endpoint's incarnation (stamped into every packet when
        #: the recovery extension is on; restarts increment it)
        self.epoch = self.config.epoch
        self._crashed = False
        self.restarts = 0
        #: sends abandoned under the at-most-once contract, all peers
        self.abandoned_sends = 0
        #: optional HealthMonitor fed peer_dead/peer_alive verdicts by
        #: the liveness detector (see attach_health)
        self.health = None

    # ------------------------------------------------------------- set-up
    @property
    def max_data(self) -> int:
        """Largest data block one packet can carry on this substrate."""
        overhead = (HEADER_SIZE
                    + (CREDIT_SIZE if self.config.credit_flow else 0)
                    + (EPOCH_SIZE if self.config.recovery else 0)
                    + (SACK_SIZE if self.config.ack_mode == "sack" else 0))
        return self._backend.max_pdu - overhead

    def connect_peer(self, node_id: int, channel_id: int) -> None:
        if node_id in self._peers_by_node:
            raise AmError(f"peer {node_id} already connected")
        peer = self._new_peer(node_id, channel_id)
        self._peers_by_node[node_id] = peer
        self._peers_by_channel[channel_id] = peer

    def register_handler(self, handler_id: int, fn: Handler) -> None:
        if not 0 <= handler_id <= 0xFF:
            raise AmError("handler id must fit one byte")
        self._handlers[handler_id] = fn

    def shutdown(self) -> None:
        """Stop background activity so the run can drain."""
        self._running = False

    def attach_health(self, monitor) -> None:
        """Feed the liveness detector's peer_dead/peer_alive verdicts
        into a :class:`~repro.core.health.HealthMonitor`."""
        self.health = monitor
        monitor.watch(self.user.endpoint)

    def _peer(self, node: int) -> PeerState:
        peer = self._peers_by_node.get(node)
        if peer is None and self.peer_resolver is not None:
            self.peer_resolver(node)
            peer = self._peers_by_node.get(node)
        if peer is None:
            raise AmError(f"node {node} is not a connected peer of node {self.node}")
        return peer

    # -- hooks only a blocking driver needs (a polled one re-checks) -------
    def _window_opened(self, peer: PeerState) -> None:
        """Send slots may have freed up: wake window-blocked senders."""

    def _arm_delayed_ack(self, peer: PeerState) -> None:
        """``peer.ack_deadline`` was just set: arrange to act on it."""

    def _reconnected(self, peer: PeerState) -> None:
        """The HELLO handshake closed: release sends queued behind it."""

    def _fail_waiters(self, peer: PeerState, exc: Exception) -> None:
        """Every sender blocked on ``peer`` fails with ``exc``."""

    # ------------------------------------------------------ crash recovery
    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Abrupt death of this incarnation: all protocol state is lost.

        The driver keeps draining the U-Net endpoint — the NI does not
        stop delivering into a dead process's rings — but nothing is
        processed or acknowledged until :meth:`restart`.  Local waiters
        (blocked senders, pending RPCs) belong to the dead incarnation
        and fail with :class:`StaleEpochError`.
        """
        if not self.config.recovery:
            raise AmError("crash()/restart() require AmConfig.recovery")
        if self._crashed:
            return
        self._crashed = True
        for peer in self._peers_by_node.values():
            peer.unacked.clear()  # armed timers find nothing and exit
            peer.sent_at.clear()
            peer.rexmit_seqs.clear()
            peer.ooo_held.clear()
            self._fail_waiters(peer, StaleEpochError(
                f"node {self.node} epoch {self.epoch} crashed"))
        pending, self._rpc_pending = self._rpc_pending, {}
        for (dest, seq), token in pending.items():
            self._rpc_fail((dest, seq), token, StaleEpochError(
                f"rpc seq {seq} to node {dest} was issued by the dead "
                f"incarnation {self.epoch} of node {self.node}"))

    def restart(self) -> int:
        """Return as a new incarnation and re-establish every channel.

        Per-peer go-back-N state is rebuilt from scratch (a restarted
        process remembers nothing) and a HELLO handshake announces the
        new epoch on each channel; sends issued before the peer's
        HELLO-ACK arrives wait behind the handshake.  Returns the new
        epoch.
        """
        if not self.config.recovery:
            raise AmError("crash()/restart() require AmConfig.recovery")
        self.epoch = (self.epoch + 1) % EPOCH_MOD
        self.restarts += 1
        self._crashed = False
        if self.health is not None:
            # the restart is a local (syscall-level) event the host's
            # monitor is entitled to see: a quarantine latch earned by
            # the dead incarnation converts back into a live evaluation.
            # Without this the latch is unescapable — the shed endpoint
            # never receives the traffic that could prove it recovered.
            self.health.note_epoch_advance(self.user.endpoint)
        for node, old in list(self._peers_by_node.items()):
            fresh = self._new_peer(old.node, old.channel)
            fresh.reconnecting = True
            self._peers_by_node[node] = fresh
            self._peers_by_channel[old.channel] = fresh
            self._observe("reconnect", fresh, epoch=self.epoch)
            self._start_hello(fresh)
        return self.epoch

    def _check_incarnation(self) -> None:
        if self._crashed:
            raise StaleEpochError(
                f"node {self.node} epoch {self.epoch} has crashed; "
                f"restart() before sending")

    def _abandon(self, peer: PeerState, seqs, reason: str) -> None:
        """Give the listed in-flight sends their ``abandoned`` fate."""
        for seq in seqs:
            peer.unacked.pop(seq, None)
            peer.sent_at.pop(seq, None)
            peer.rexmit_seqs.discard(seq)
            peer.abandoned += 1
            self.abandoned_sends += 1
            self.user.endpoint.note_drop("peer_dead_drops")
            self._observe("abandon", peer, seq=seq, reason=reason)
            key = (peer.node, seq)
            token = self._rpc_pending.pop(key, None)
            if token is not None:
                self._rpc_fail(key, token, PeerUnavailableError(
                    f"send seq {seq} to node {peer.node} abandoned: {reason}",
                    peer=peer.node, seq=seq))

    def _declare_peer_dead(self, peer: PeerState, reason: str) -> None:
        if not peer.alive:
            return
        peer.alive = False
        self._observe("peer_dead", peer, reason=reason)
        self._abandon(peer, list(peer.unacked), reason)
        self._fail_waiters(peer, PeerUnavailableError(
            f"node {peer.node} declared dead: {reason}", peer=peer.node))
        if self.health is not None:
            self.health.report_peer_dead(self.user.endpoint, peer.node)

    def _mark_alive(self, peer: PeerState) -> None:
        peer.starved_timeouts = 0
        if not peer.alive:
            peer.alive = True
            self._observe("peer_alive", peer)
            if self.health is not None:
                self.health.report_peer_alive(self.user.endpoint, peer.node)

    def _peer_restarted(self, peer: PeerState, new_epoch: int,
                        horizon: int) -> None:
        """The peer came back as incarnation ``new_epoch``: apply the
        reconnect plan to our in-flight sends and rebuild both
        directions' go-back-N state for the fresh numbering."""
        completed, abandoned = self._reconnect_plan(peer, horizon, True)
        for seq in completed:
            peer.unacked.pop(seq, None)
            peer.sent_at.pop(seq, None)
            peer.rexmit_seqs.discard(seq)
        self._abandon(peer, abandoned,
                      f"peer restarted as epoch {new_epoch}")
        # anything still unacked is being replayed (bug injection only):
        # renumber new sends after it so tracking keys cannot collide
        remaining = list(peer.unacked)
        peer.next_seq = seq_add(remaining[-1], 1) if remaining else 0
        # receive side: the new incarnation numbers from zero
        peer.expected_seq = 0
        peer.ooo_held.clear()
        peer.ack_deadline = None
        peer.deliveries_since_ack = 0
        # sender-side estimator state tied to the dead conversation
        peer.last_ack = None
        peer.dup_acks = 0
        peer.fast_done_seq = None
        peer.backoff = 0
        peer.remote_credit = None
        peer.pending_echoes = 0
        peer.ecn_round_end = None
        peer.sacked.clear()
        peer.sack_rexmitted.clear()
        peer.remote_epoch = new_epoch
        # abandoning the old window freed send slots (and forgot the old
        # credit picture): wake blocked senders, or a window-full sender
        # at restart time would wait for an ack that can never ack
        # anything and hang for good
        self._window_opened(peer)
        self._credit_opened(peer)
        if self.health is not None:
            # a restart proves a fresh incarnation is talking: a
            # quarantine latch earned by the dead one must be
            # re-evaluated, not carried over (the watchdog re-latches
            # if the new process still misbehaves)
            self.health.note_epoch_advance(self.user.endpoint)
        self._observe("peer_restart", peer, epoch=new_epoch, horizon=horizon)

    # -- patchable spec seams (the conformance bug library targets these) --
    def _credit_blocked(self, peer: PeerState) -> bool:
        """Seam for the credit gate; healthy =
        :func:`repro.am.spec.credit_gate_blocks` (``<= 0`` stalls)."""
        return self.config.credit_flow and credit_gate_blocks(peer.remote_credit)

    def _acked_seqs(self, peer: PeerState, ack: int) -> List[int]:
        """Seam for the cumulative-ack horizon; healthy =
        :func:`repro.am.spec.cumulative_acked` (strictly before ``ack``)."""
        return cumulative_acked(peer.unacked, ack)

    def _epoch_stale(self, claimed: Optional[int], current: int) -> bool:
        """Seam for the epoch fence; healthy = :func:`epoch_is_stale`."""
        return epoch_is_stale(claimed, current)

    def _reconnect_plan(self, peer: PeerState, horizon: int,
                        restarted: bool):
        """Seam for the at-most-once reconnect split; healthy =
        :func:`reconnect_plan`.  Whatever lands in neither list stays in
        ``unacked`` and is *replayed* — which is exactly what the
        ``replay-horizon`` injected bug arranges."""
        return reconnect_plan(peer.unacked, horizon, restarted)

    def _sack_block(self, peer: PeerState) -> int:
        """The SACK bitmap this receiver advertises to ``peer``;
        healthy = :func:`repro.am.spec.sack_block` over the reorder
        buffer."""
        return sack_block(peer.expected_seq, peer.ooo_held,
                          self.config.sack_horizon)

    def _sack_plan(self, outstanding, ack: int, bits: int):
        """Seam for scoreboard interpretation of a SACK block; healthy =
        :func:`repro.am.spec.sack_retransmit_plan` (bit *i* acknowledges
        ``ack + 1 + i``).  The ``sack-bitmap-shift`` injected bug reads
        bit *i* as ``ack + i`` instead, silently marking the receiver's
        actual hole as delivered."""
        return sack_retransmit_plan(outstanding, ack, bits)

    def _ecn_echo(self, peer: PeerState) -> bool:
        """Seam for the congestion-mark echo; healthy: drain one pending
        echo onto this outbound packet.  The ``ecn-echo-drop`` injected
        bug swallows the echo, so senders never learn to back off."""
        if peer.pending_echoes <= 0:
            return False
        peer.pending_echoes -= 1
        peer.ecn_echoes += 1
        self._observe("ecn_echo", peer, pending=peer.pending_echoes)
        return True

    # ------------------------------------------------------- introspection
    def _observe(self, kind: str, peer: PeerState, **fields) -> None:
        if self.observer is not None:
            fields["node"] = self.node
            fields["peer"] = peer.node
            fields["t"] = self._now()
            self.observer(kind, fields)

    def snapshot(self) -> Dict[int, Dict]:
        """State-machine introspection: one dict per connected peer.

        Everything a checker needs to reason about the protocol state
        without touching ``PeerState`` internals directly.
        """
        out: Dict[int, Dict] = {}
        for node, p in self._peers_by_node.items():
            out[node] = {
                "next_seq": p.next_seq,
                "expected_seq": p.expected_seq,
                "unacked": len(p.unacked),
                "window": self._effective_window(p),
                "cwnd": p.cwnd,
                "remote_credit": p.remote_credit,
                "last_advertised": p.last_advertised,
                "retransmissions": p.retransmissions,
                "timeouts": p.timeouts,
                "fast_retransmits": p.fast_retransmits,
                "duplicates": p.duplicates,
                "credit_stalls": p.credit_stalls,
                "rtt_samples": p.rtt_samples,
                "sacked": len(p.sacked),
                "ooo_held": len(p.ooo_held),
                "ecn_marks": p.ecn_marks,
                "ecn_echoes": p.ecn_echoes,
                "ecn_backoffs": p.ecn_backoffs,
                "srtt_us": p.srtt,
                "epoch": self.epoch,
                "remote_epoch": p.remote_epoch,
                "alive": p.alive,
                "reconnecting": p.reconnecting,
                "abandoned": p.abandoned,
            }
        return out

    @property
    def credit_stalls(self) -> int:
        """Total sender stalls on exhausted remote credit, all peers."""
        return sum(p.credit_stalls for p in self._peers_by_node.values())

    # ------------------------------------------------------------- sending
    def _effective_window(self, peer: PeerState) -> int:
        """The flow-control window currently in force for ``peer``."""
        if not self.config.adaptive_window:
            return self.config.window
        return max(self.config.min_window, min(self.config.window, int(peer.cwnd)))

    def _gate(self, peer: PeerState) -> Optional[str]:
        """Admission of one new request: None = granted; otherwise what
        the sender must wait for — ``"hello"``, ``"window"`` or
        ``"credit"`` — by blocking (simulated) or retrying (polled).
        The driver books the credit stall: how often a stalled sender
        re-asks is its business, not the protocol's."""
        if self.config.recovery:
            if not peer.alive:
                raise PeerUnavailableError(
                    f"node {peer.node} is dead; send refused", peer=peer.node)
            if peer.reconnecting:
                # behind the HELLO handshake: the channel has no
                # established numbering to send on yet
                return "hello"
        if len(peer.unacked) >= self._effective_window(peer):
            return "window"
        if self._credit_blocked(peer):
            # the peer has no receive capacity for us: stall (do not
            # burn its service time with packets it must drop) until
            # an advertisement says the pressure is off
            return "credit"
        self._observe("grant", peer, unacked=len(peer.unacked),
                      window=self._effective_window(peer),
                      remote_credit=peer.remote_credit)
        return None

    def _note_credit_stall(self, peer: PeerState) -> None:
        peer.credit_stalls += 1
        self._observe("credit_stall", peer, remote_credit=peer.remote_credit)

    def _sequenced(self, peer: PeerState, ptype: int, handler: int, req_seq: int,
                   args, data: bytes) -> Packet:
        """The next packet of ``peer``'s reliable stream."""
        packet = Packet(type=ptype, handler=handler, seq=peer.next_seq,
                        req_seq=req_seq, args=tuple(args), data=data)
        peer.next_seq = seq_add(peer.next_seq, 1)
        if ptype == TYPE_REQUEST:
            self.requests_sent += 1
        else:
            self.replies_sent += 1
        return packet

    def _local_credit(self) -> int:
        """Receive capacity to advertise: what this endpoint could absorb
        right now (queue slots and donated buffers), fair-shared across
        peers so N senders cannot jointly overrun one advertisement."""
        endpoint = self.user.endpoint
        room = min(
            endpoint.recv_queue.capacity - len(endpoint.recv_queue),
            len(endpoint.free_queue),
        )
        return room // max(1, len(self._peers_by_node))

    def _credit_stale(self, peer: PeerState) -> bool:
        """Must the periodic refresh re-advertise to ``peer``?  That is
        what un-sticks a credit-stalled sender after the local
        application drains a backlog: consuming messages generates no
        reverse traffic of its own, so the refreshed advertisement must
        travel on an explicit ACK."""
        if peer.last_advertised is None:
            return False  # never talked to them; nothing to refresh
        return self._local_credit() != peer.last_advertised

    def _restamp(self, peer: PeerState, packet: Packet) -> None:
        """Stamp the piggybacked fields — on first transmission and
        afresh on every retransmission: the cumulative ack, epoch pair,
        credit advertisement, SACK block and congestion echo all
        describe *now*, not first-transmission time."""
        cfg = self.config
        packet.ack = peer.expected_seq
        if cfg.recovery:
            # the peer may have restarted since first transmission
            # (replay happens only under bug injection)
            packet.epoch = self.epoch
            packet.peer_epoch = peer.remote_epoch
        if cfg.credit_flow:
            # piggyback our current receive capacity on everything we send
            packet.credit = peer.last_advertised = self._local_credit()
        if cfg.ack_mode == "sack":
            # every packet reports the reorder buffer next to its ack
            packet.sack_bits = self._sack_block(peer)
        if cfg.congestion == "ecn":
            packet.ece = self._ecn_echo(peer)

    def _prepare(self, peer: PeerState, packet: Packet, track: bool) -> bytes:
        """Stamp ``packet`` for its first transmission, start tracking
        it for acknowledgement when ``track``, and return the wire bytes
        the driver hands to U-Net."""
        self._restamp(peer, packet)
        peer.ack_deadline = None  # this packet carries the ack
        peer.deliveries_since_ack = 0
        if track:
            peer.unacked[packet.seq] = packet
            peer.sent_at[packet.seq] = peer.last_progress = self._now()
            # observed pre-spend: remote_credit is what the gate saw
            self._observe("tx", peer, seq=packet.seq, ptype=packet.type,
                          unacked=len(peer.unacked), window=self._effective_window(peer),
                          remote_credit=peer.remote_credit)
            if self.config.credit_flow and peer.remote_credit is not None:
                # conservative spend between advertisements; the next
                # absolute advertisement overwrites any drift.  Replies
                # bypass the credit gate (deadlock avoidance) so this may
                # go negative.
                peer.remote_credit -= 1
        elif packet.type == TYPE_ACK:
            self.acks_sent += 1
        return encode(packet)

    # ------------------------------------------------------------ receiving
    def _receive(self, channel_id: int, raw: bytes) -> Optional[Tuple[PeerState, Packet]]:
        """Classify one arrived message: fence, then ack/SACK/ECN/credit
        processing, then the handshake and control types, then in-order /
        hold / duplicate.  Returns ``(peer, packet)`` when ``packet`` is
        the next in-order one — the driver then feeds it and every
        buffered successor to :meth:`_accept` and calls
        :meth:`_note_delivery` — and None when the message was absorbed
        here."""
        try:
            packet = decode(raw)
        except ValueError:
            return None  # malformed: reliability will retransmit
        peer = self._peers_by_channel.get(channel_id)
        if peer is None:
            return None
        cfg = self.config
        if cfg.recovery and not self._fence(peer, packet):
            return None  # fenced: a dead incarnation's traffic
        if ack_epoch_applies(packet.epoch, peer.remote_epoch):
            self._process_ack(peer, packet.ack)
            if cfg.ack_mode == "sack" and packet.sack_bits is not None:
                self._process_sack(peer, packet.ack, packet.sack_bits)
            if cfg.congestion == "ecn" and packet.ece:
                self._ecn_backoff(peer, packet.ack)
        if packet.credit is not None and cfg.credit_flow:
            self._process_credit(peer, packet.credit)
        if packet.type == TYPE_HELLO:
            # answer every HELLO (idempotent): the HELLO-ACK may be
            # lost and the retransmitted HELLO must be re-answered
            self._send_now(peer, TYPE_HELLO_ACK)
            return None
        if packet.type == TYPE_HELLO_ACK:
            if peer.reconnecting:
                peer.reconnecting = False
                self._observe("reconnected", peer, peer_epoch=peer.remote_epoch)
                self._reconnected(peer)
            return None
        if packet.type == TYPE_ACK:
            return None
        if packet.seq == peer.expected_seq:
            self._note_ce(peer, packet)
            return peer, packet
        if cfg.ack_mode == "sack":
            held = (packet.seq not in peer.ooo_held and reorder_admit(
                peer.expected_seq, packet.seq, cfg.sack_horizon) == "hold")
            if held:
                # buffer within the promised horizon; the SACK block on
                # the ack we send next reports it
                peer.ooo_held[packet.seq] = packet
                self._note_ce(peer, packet)
        else:
            held = (cfg.ooo_buffering and seq_lt(peer.expected_seq, packet.seq)
                    and (packet.seq - peer.expected_seq) % SEQ_MOD <= cfg.window * 2)
            if held:
                # hold the future packet; deliver once the hole fills
                peer.ooo_held.setdefault(packet.seq, packet)
        if not held:
            # go-back-N: duplicates and holes both trigger a re-ack
            peer.duplicates += 1
            self._observe("dup_rx", peer, seq=packet.seq, expected=peer.expected_seq)
        self._note_delivery(peer, out_of_order=True)
        return None

    def _fence(self, peer: PeerState, packet: Packet) -> bool:
        """Epoch fence + restart detection.  False = packet fenced.

        Both halves of the epoch field are checked through the
        ``_epoch_stale`` seam: the sender half against our memory of the
        peer, and (for everything but the handshake itself, which cannot
        know our epoch yet) the destination echo against our own epoch.
        """
        if self._epoch_stale(packet.epoch, peer.remote_epoch):
            self.user.endpoint.note_drop("stale_epoch_drops")
            self._observe("stale_epoch", peer, seq=packet.seq, ptype=packet.type,
                          epoch=effective_epoch(packet.epoch))
            return False
        if (packet.type not in (TYPE_HELLO, TYPE_HELLO_ACK)
                and self._epoch_stale(packet.peer_epoch, self.epoch)):
            self.user.endpoint.note_drop("stale_epoch_drops")
            self._observe("stale_epoch", peer, seq=packet.seq, ptype=packet.type,
                          epoch=effective_epoch(packet.peer_epoch), echo=1)
            return False
        if epoch_advances(packet.epoch, peer.remote_epoch):
            # the packet's ack field is the new incarnation's receive
            # horizon (its HELLO says so explicitly; data says it too)
            self._peer_restarted(peer, effective_epoch(packet.epoch), packet.ack)
        self._mark_alive(peer)
        return True

    def _accept(self, peer: PeerState, packet: Packet):
        """Consume the in-order ``packet``: dispatch a request to its
        handler, complete a reply's rpc.  Returns what the handler
        returned — on the simulated endpoint possibly a generator the
        driver must run to completion before accepting the next packet."""
        peer.expected_seq = seq_add(peer.expected_seq, 1)
        if packet.type == TYPE_REQUEST:
            self.requests_delivered += 1
            self._observe("dispatch", peer, seq=packet.seq, handler=packet.handler,
                          msg=packet.args[0])
            fn = self._handlers.get(packet.handler)
            if fn is not None:
                return fn(RequestContext(self, peer.node, packet.args, packet.data,
                                         packet.seq))
        elif packet.type == TYPE_REPLY:
            self._observe("reply", peer, seq=packet.seq, req_seq=packet.req_seq)
            key = (peer.node, packet.req_seq)
            token = self._rpc_pending.pop(key, None)
            if token is not None:
                self._rpc_complete(key, token, (packet.args, packet.data))
        return None

    def _process_ack(self, peer: PeerState, ack: int) -> None:
        cfg = self.config
        acked = self._acked_seqs(peer, ack)
        if not acked:
            # a repeated cumulative ack while data is outstanding means
            # the receiver is seeing a hole: candidate fast retransmit
            if cfg.fast_retransmit and peer.unacked:
                if peer.last_ack is None or peer.last_ack != ack:
                    peer.last_ack = ack
                    peer.dup_acks = 0
                else:
                    peer.dup_acks += 1
                    if peer.dup_acks == cfg.dup_ack_threshold:
                        self._fast_retransmit(peer)
            return
        peer.last_ack = ack
        peer.dup_acks = 0
        now = self._now()
        if cfg.adaptive_rto:
            # Karn's rule: sample only packets that were never retransmitted
            sample = None
            for seq in acked:
                sent = peer.sent_at.pop(seq, None)
                if sent is not None and seq not in peer.rexmit_seqs:
                    sample = now - sent
                peer.rexmit_seqs.discard(seq)
            if sample is not None:
                self._update_rto(peer, sample)
            peer.backoff = 0  # forward progress cancels exponential backoff
        else:
            for seq in acked:
                peer.sent_at.pop(seq, None)
                peer.rexmit_seqs.discard(seq)
        if cfg.adaptive_window:
            # additive increase: one extra packet per window of clean acks
            peer.cwnd = min(float(cfg.window),
                            peer.cwnd + len(acked) / max(peer.cwnd, 1.0))
        for seq in acked:
            del peer.unacked[seq]
            peer.sacked.discard(seq)
            peer.sack_rexmitted.discard(seq)
        peer.last_progress = now
        peer.starved_timeouts = 0  # forward progress: not a corpse
        self._window_opened(peer)

    def _process_sack(self, peer: PeerState, ack: int, bits: int) -> None:
        """Scoreboard update: record what the receiver holds, then
        selectively retransmit the holes below the highest SACKed
        sequence number — each hole once per round, without waiting for
        an RTO.  SACKed packets stay in ``unacked`` (only the cumulative
        ack retires them), which keeps the send window, and therefore
        the receiver's reorder buffer, bounded."""
        sacked, holes = self._sack_plan(peer.unacked, ack, bits)
        for seq in sacked:
            peer.sacked.add(seq)
        for seq in holes:
            if seq in peer.sack_rexmitted or seq in peer.sacked:
                continue
            peer.sack_rexmitted.add(seq)
            self._retransmit_now(peer, seq)

    def _note_ce(self, peer: PeerState, packet: Packet) -> None:
        """Account an accepted data packet's congestion mark: it will be
        echoed on the next outbound packets to the peer, one echo per
        mark (duplicates are never counted — their first copy was)."""
        if self.config.congestion != "ecn" or not packet.ce:
            return
        peer.ecn_marks += 1
        peer.pending_echoes += 1
        self._observe("ecn_mark", peer, seq=packet.seq)

    def _halve_window(self, peer: PeerState) -> None:
        """AIMD multiplicative decrease."""
        peer.cwnd = max(float(self.config.min_window), peer.cwnd / 2.0)

    def _ecn_backoff(self, peer: PeerState, ack: int) -> None:
        """A congestion echo arrived: halve the AIMD window, at most
        once per round trip (:func:`repro.am.spec.ecn_backoff_allowed`),
        backing off *before* the queue overflows into loss."""
        if not ecn_backoff_allowed(ack, peer.ecn_round_end):
            return
        peer.ecn_round_end = peer.next_seq
        peer.ecn_backoffs += 1
        self._halve_window(peer)
        self._observe("ecn_backoff", peer, cwnd=peer.cwnd)

    def _process_credit(self, peer: PeerState, advertised: int) -> None:
        """Absorb an absolute credit advertisement from ``peer``.

        Runs after :meth:`_process_ack`, so ``peer.unacked`` holds only
        packets the advertisement cannot have accounted for yet; charging
        them against it keeps the sender conservative between updates.
        """
        peer.remote_credit = advertised - len(peer.unacked)
        if peer.remote_credit > 0:
            self._credit_opened(peer)

    def _update_rto(self, peer: PeerState, rtt: float) -> None:
        """Jacobson/Karels: SRTT/RTTVAR EWMAs, RTO = SRTT + 4*RTTVAR."""
        cfg = self.config
        if peer.srtt is None:
            peer.srtt = rtt
            peer.rttvar = rtt / 2.0
        else:
            peer.rttvar = 0.75 * peer.rttvar + 0.25 * abs(peer.srtt - rtt)
            peer.srtt = 0.875 * peer.srtt + 0.125 * rtt
        peer.rtt_samples += 1
        peer.rto_us = min(max(peer.srtt + 4.0 * peer.rttvar, cfg.rto_min_us), cfg.rto_max_us)

    def _fast_retransmit(self, peer: PeerState) -> None:
        """Dup-ack threshold crossed: resend the window head right away."""
        head_seq = next(iter(peer.unacked), None)
        if head_seq is None or head_seq == peer.fast_done_seq:
            return
        peer.fast_done_seq = head_seq
        peer.fast_retransmits += 1
        if self.config.adaptive_window:
            self._halve_window(peer)
        self._retransmit_now(peer)

    def _note_delivery(self, peer: PeerState, out_of_order: bool = False) -> None:
        """Ack policy after a delivery (or an out-of-order arrival)."""
        cfg = self.config
        peer.deliveries_since_ack += 1
        if out_of_order and (cfg.fast_retransmit or cfg.ack_mode == "sack"):
            # ack holes immediately: for fast retransmit (RFC 5681
            # style) so the sender's duplicate-ack counter can cross its
            # threshold before the arrival stream dries up; for SACK so
            # the bitmap reporting the hole reaches the scoreboard while
            # selective retransmit can still beat the RTO
            self._send_now(peer, TYPE_ACK)
        elif peer.deliveries_since_ack >= cfg.ack_every:
            self._send_now(peer, TYPE_ACK)
        elif peer.ack_deadline is None:
            peer.ack_deadline = self._now() + cfg.ack_delay_us
            self._arm_delayed_ack(peer)

    # ---------------------------------------------------------- retransmit
    def _current_rto(self, peer: PeerState) -> float:
        """The retransmission timeout in force for ``peer`` right now."""
        cfg = self.config
        if not cfg.adaptive_rto:
            return cfg.retransmit_timeout_us
        # before the first RTT sample, fall back to the configured value
        rto = peer.rto_us if peer.srtt is not None else cfg.retransmit_timeout_us
        if peer.backoff:
            rto *= cfg.backoff_factor ** peer.backoff
            if cfg.backoff_jitter > 0.0:
                # jitter de-phases peers that share a medium
                if self._rng is None:
                    self._rng = random.Random(0x5EED ^ self.node)
                rto *= 1.0 + cfg.backoff_jitter * self._rng.random()
        return min(max(rto, cfg.rto_min_us), cfg.rto_max_us)

    def _rto_expired(self, peer: PeerState, rto: float) -> bool:
        """``peer`` made no progress for ``rto``: back off, shrink the
        window, and judge starvation — in that order on every driver.
        True = retransmit the head now; False = the peer was just
        declared dead and there is nothing left to retransmit."""
        cfg = self.config
        peer.timeouts += 1
        self._observe("timeout", peer, rto_us=rto)
        if cfg.adaptive_rto:
            peer.backoff += 1
        if cfg.adaptive_window:
            # multiplicative decrease: the medium is losing packets
            self._halve_window(peer)
        if cfg.recovery:
            peer.starved_timeouts += 1
            if peer.starved_timeouts >= cfg.dead_after_timeouts:
                self._declare_peer_dead(
                    peer, f"ack-starved for {peer.starved_timeouts} timeouts")
                return False
        # a timeout opens a new selective-retransmit round: the next
        # SACK block may re-trigger holes the last round's
        # retransmissions failed to fill
        peer.sack_rexmitted.clear()
        return True

    def _rexmit_wire(self, peer: PeerState, seq: Optional[int] = None) -> Optional[bytes]:
        """Account and re-stamp one retransmission; returns its wire
        bytes, or None when there is nothing (left) to resend.

        ``seq=None`` retransmits only the head of the window (as TCP
        does): resending the whole window both floods a congested medium
        and can phase-lock with periodic loss patterns; once the head is
        acked the rest follow.  Under SACK the "head" is the first
        *unSACKed* packet — resending something the receiver already
        holds buys nothing (when everything outstanding is SACKed, the
        plain head goes anyway: the cumulative ack reporting it may
        itself have been lost, and liveness beats elegance).  A given
        ``seq`` is the selective retransmit of one scoreboard hole.
        Either way the seq joins ``rexmit_seqs`` (Karn's rule: its
        eventual ack is never RTT sampled).
        """
        selective = seq is not None
        if selective:
            if seq not in peer.unacked or seq in peer.sacked:
                return None  # retired or reported delivered while we queued
        else:
            seq = next((s for s in peer.unacked if s not in peer.sacked), None)
            if seq is None:
                seq = next(iter(peer.unacked), None)
            if seq is None:
                return None
        packet = peer.unacked[seq]
        peer.retransmissions += 1
        if selective:
            self._observe("rexmit", peer, seq=seq, selective=1)
        else:
            self._observe("rexmit", peer, seq=seq)
        peer.rexmit_seqs.add(seq)
        peer.last_progress = self._now()
        self._restamp(peer, packet)
        return encode(packet)


def handshake_settled(sender: AmCore, receiver: AmCore) -> bool:
    """Whether a crash run between two endpoints has nothing left open:
    every send ``sender`` addressed to ``receiver`` has its fate (acked
    or abandoned) and neither side is mid-reconnect.  The one "is the
    run over" predicate of every crash harness, on any driver."""
    out = sender.snapshot().get(receiver.node, {})
    back = receiver.snapshot().get(sender.node, {})
    return not (out.get("unacked") or out.get("reconnecting")
                or back.get("reconnecting"))
