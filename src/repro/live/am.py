"""Active Messages over U-Net/OS: the wall-clock, polled driver.

:class:`LiveAm` runs the same protocol core as the simulated
:class:`~repro.am.am.AmEndpoint` (:mod:`repro.am.core`: one wire format,
one state machine, one observable-event vocabulary, one set of spec
seams for the conformance bug library) — which is what lets one
:class:`~repro.conformance.observe.ObservationProbe` check the same
online invariants against either.

What differs is purely mechanical: where the simulated endpoint blocks
generator processes on events, LiveAm is *polled*.  ``start_request``
returns ``None`` instead of blocking when the window, the credit gate or
a reconnect handshake refuses admission; :meth:`service` does one pass
of ingress dispatch, then scans the delayed-ack, retransmission, HELLO
and credit-refresh deadlines against the injected
:class:`~repro.core.clock.Clock`.  Handlers are plain calls, a packet
reaches U-Net through a bounded busy-retry, and an rpc completes by
appearing in ``rpc_results``.

A workload still blocks as it does on a simulator: it is a process on
a :class:`~repro.live.backend.LiveCluster`'s wall-clock runner, which
services the endpoints between passes and turns each polled call into a
wait (``yield from cluster.poll(partial(am.start_request, ...))``).
The blocking ``rpc(..., pump=)`` stays for the wall-time benchmarks,
which time one call at a time in their own pump loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..am.core import CREDIT_UPDATE_US, AmConfig, AmCore, AmError, PeerState, RequestContext
from ..am.protocol import TYPE_ACK, TYPE_HELLO, TYPE_REPLY, TYPE_REQUEST, Packet
from ..core.errors import EndpointError, PeerUnavailableError
from .backend import LiveUserEndpoint

__all__ = ["LiveAm", "LiveRequestContext"]

#: bounded busy-retry of a transport-backpressured send before giving up
_SEND_RETRIES = 400
_SEND_RETRY_SLEEP_US = 25.0
#: AM packets one :meth:`LiveAm.service` pass consumes at most
_SERVICE_BATCH = 64

#: live handlers get the core's context; ``reply`` sends synchronously
LiveRequestContext = RequestContext


class _LivePeer(PeerState):
    """Per-connection state plus what a polled sender must remember."""

    __slots__ = ("stalled", "next_hello_at")

    def __init__(self, node: int, channel: int, window: int, now: float) -> None:
        super().__init__(node, channel, window, now)
        #: in a credit-stall episode (count one stall per episode, not
        #: one per poll of a gated sender)
        self.stalled = False
        #: wall deadline of the next HELLO retransmit (reconnecting only)
        self.next_hello_at = now


class LiveAm(AmCore):
    """An Active Messages endpoint bound to one live U-Net endpoint."""

    def __init__(self, node_id: int, user: LiveUserEndpoint,
                 config: Optional[AmConfig] = None) -> None:
        super().__init__(node_id, user, config)
        self.clock = user.backend.clock
        #: the core's time hook, bound straight to the injected clock
        self._now = self.clock.now_us
        #: completed rpc replies keyed by (peer node, request seq)
        self.rpc_results: Dict[Tuple[int, int], Tuple[tuple, bytes]] = {}
        #: why an rpc's request was abandoned; polled out as
        #: PeerUnavailableError by rpc_result
        self._rpc_failed: Dict[Tuple[int, int], str] = {}
        now = self._now()
        self._next_credit_refresh = now + CREDIT_UPDATE_US

    # -------------------------------------------------------- driver hooks
    def _new_peer(self, node_id: int, channel_id: int) -> _LivePeer:
        return _LivePeer(node_id, channel_id, self.config.window, self._now())

    def _send_now(self, peer: _LivePeer, ptype: int) -> None:
        self._transmit(peer, Packet(type=ptype), track=False)

    def _retransmit_now(self, peer: _LivePeer, seq: Optional[int] = None) -> None:
        wire = self._rexmit_wire(peer, seq)
        if wire is not None:
            self._push_wire(peer, wire)

    def _start_hello(self, peer: _LivePeer) -> None:
        self._send_now(peer, TYPE_HELLO)
        peer.next_hello_at = self._now() + self.config.hello_retry_us

    def _credit_opened(self, peer: _LivePeer) -> None:
        peer.stalled = False

    def _rpc_complete(self, key, _token, reply) -> None:
        self.rpc_results[key] = reply

    def _rpc_fail(self, key, _token, exc: Exception) -> None:
        self._rpc_failed[key] = str(exc)

    # ------------------------------------------------------------- sending
    @property
    def idle(self) -> bool:
        """Nothing in flight: every peer fully acknowledged."""
        return all(not p.unacked for p in self._peers_by_node.values())

    def start_request(self, dest: int, handler: int, args=(),
                      data: bytes = b"") -> Optional[int]:
        """Try to admit and transmit one request.

        Returns the assigned sequence number, or None when the window,
        the credit gate or a reconnect handshake refuses admission — the
        caller services the world and retries (the polled analogue of
        blocking).
        """
        self._check_incarnation()
        peer = self._peer(dest)
        if len(data) > self.max_data:
            raise AmError(f"data block of {len(data)} bytes exceeds "
                          f"packet maximum {self.max_data}")
        why = self._gate(peer)
        if why is not None:
            if why == "credit" and not peer.stalled:
                peer.stalled = True
                self._note_credit_stall(peer)
            return None
        peer.stalled = False
        packet = self._sequenced(peer, TYPE_REQUEST, handler, 0, args, data)
        self._transmit(peer, packet, track=True)
        return packet.seq

    def start_rpc(self, dest: int, handler: int, args=(),
                  data: bytes = b"") -> Optional[int]:
        """Like :meth:`start_request`, but registers for the reply.

        Poll :meth:`rpc_result` with the returned seq for completion.
        """
        seq = self.start_request(dest, handler, args=args, data=data)
        if seq is not None:
            self._rpc_pending[(dest, seq)] = True
        return seq

    def rpc_result(self, dest: int, seq: int) -> Optional[Tuple[tuple, bytes]]:
        """The reply for request ``seq``, consumed, or None if pending.

        Raises :class:`PeerUnavailableError` when the request was
        abandoned (peer declared dead or restarted, or this endpoint
        crashed) — the polled analogue of the simulated endpoint failing
        the rpc waiter.
        """
        reason = self._rpc_failed.pop((dest, seq), None)
        if reason is not None:
            raise PeerUnavailableError(reason, peer=dest, seq=seq)
        return self.rpc_results.pop((dest, seq), None)

    def rpc(self, dest: int, handler: int, args=(), data: bytes = b"",
            pump: Optional[Callable[[], None]] = None,
            limit_us: float = 5_000_000.0) -> Tuple[tuple, bytes]:
        """Blocking convenience: request + wait for the matching reply."""
        deadline = self._now() + limit_us
        seq = self._poll(
            lambda: self.start_rpc(dest, handler, args=args, data=data),
            pump, deadline,
            "rpc to node %d not admitted within %.0fus", dest, limit_us)
        return self._poll(
            lambda: self.rpc_result(dest, seq), pump, deadline,
            "rpc %d to node %d got no reply within %.0fus", seq, dest, limit_us)

    def _poll(self, attempt: Callable[[], Any], pump: Optional[Callable[[], None]],
              deadline: float, timed_out: str, *details):
        """Retry ``attempt``, servicing the world in between, until it
        returns something; :class:`AmError` once ``deadline`` passes."""
        while True:
            result = attempt()
            if result is not None:
                return result
            if self._now() >= deadline:
                raise AmError(timed_out % details)
            if pump is not None:
                pump()
            else:
                self.user.backend.service()
                self.service()

    def _send_reply(self, dest: int, req_seq: int, args, data: bytes) -> None:
        # replies bypass the request window (deadlock avoidance) but are
        # still sequenced, tracked, and retransmitted
        peer = self._peer(dest)
        self._transmit(peer, self._sequenced(peer, TYPE_REPLY, 0, req_seq, args, data),
                       track=True)

    def _transmit(self, peer: _LivePeer, packet: Packet, track: bool) -> None:
        self._push_wire(peer, self._prepare(peer, packet, track))

    def _push_wire(self, peer: _LivePeer, wire: bytes) -> None:
        """Hand one encoded packet to U-Net, riding out backpressure.

        A full send queue here means the transport is refusing datagrams
        (peer's kernel buffer full); kicking retries the syscall.  The
        retry budget is the live stand-in for the simulated endpoint's
        wait on send-queue space.
        """
        backend = self.user.backend
        if backend.closed:
            return  # teardown race: an armed timer fired after close()
        for attempt in range(_SEND_RETRIES):
            try:
                # batched backends defer the doorbell: the packet rides
                # the next service pass's sendmmsg flush with its peers
                self.user.send(peer.channel, wire, kick=not backend.defer_kick)
                return
            except EndpointError:
                backend.kick(self.user.endpoint)
                self.clock.sleep_us(_SEND_RETRY_SLEEP_US)
        raise AmError(
            f"node {self.node}: transport backpressure did not clear after "
            f"{_SEND_RETRIES} retries sending to node {peer.node}")

    # ------------------------------------------------------------ receiving
    def service(self) -> int:
        """One polling pass: dispatch ingress, then run the timers.

        Returns the number of AM packets consumed.  Call this (plus the
        backend's ``service``) from the application's doorbell loop.
        """
        if self.user.backend.closed:
            return 0  # teardown: never touch a closed transport
        consumed = 0
        for _ in range(_SERVICE_BATCH):
            message = self.user.poll()
            if message is None:
                break
            consumed += 1
            if self._crashed:
                continue  # the process is gone: drain and discard
            # charge the configured per-message receiver cost for real: a
            # "slow receiver" conformance case must be slow on the wall
            # clock too, or the credit machinery it exists to exercise
            # never engages
            if self.config.dispatch_overhead_us > 1.0:
                self.clock.sleep_us(self.config.dispatch_overhead_us)
            arrival = self._receive(message.channel_id, message.data)
            if arrival is not None:
                peer, packet = arrival
                # deliver it, then any buffered successors it unblocked
                while packet is not None:
                    self._accept(peer, packet)
                    packet = peer.ooo_held.pop(peer.expected_seq, None)
                self._note_delivery(peer)
        self._run_timers()
        return consumed

    def _run_timers(self) -> None:
        """Scan every deadline a simulated endpoint would have a process
        sleeping on."""
        if not self._running or self._crashed:
            return
        now = self._now()
        cfg = self.config
        for peer in self._peers_by_node.values():
            if cfg.recovery and peer.reconnecting and now >= peer.next_hello_at:
                self._start_hello(peer)
            if cfg.recovery and not peer.alive:
                continue  # no acks, no retransmits toward a corpse
            if peer.ack_deadline is not None and now >= peer.ack_deadline:
                self._send_now(peer, TYPE_ACK)
            if peer.unacked:
                rto = self._current_rto(peer)
                if now - peer.last_progress >= rto and self._rto_expired(peer, rto):
                    self._retransmit_now(peer)
        if cfg.credit_flow and now >= self._next_credit_refresh:
            self._next_credit_refresh = now + CREDIT_UPDATE_US
            for peer in self._peers_by_node.values():
                if self._credit_stale(peer):
                    self._send_now(peer, TYPE_ACK)
