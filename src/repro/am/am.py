"""Active Messages over simulated U-Net: the generator-process driver.

:class:`AmEndpoint` runs the protocol core (:mod:`repro.am.core`, where
the protocol itself is described) in simulated time.  It owns only what
simulation needs: time is ``sim.now``; a sender *blocks* on an event
until the window, the credit gate or the HELLO handshake admits it;
``tx_lock`` serializes sequence assignment with the hand-off to U-Net;
the dispatch loop, retransmission timer, delayed ack, HELLO retry and
credit refresh are simulator processes; handlers may be
generators; an rpc completes through an :class:`~repro.sim.Event`.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..core.api import UserEndpoint
from ..sim import Event, Resource, Simulator
from .core import (ACK_DELAY_US, CREDIT_UPDATE_US, AmConfig, AmCore, AmError, PeerState,
                   RequestContext)
from .protocol import TYPE_ACK, TYPE_HELLO, TYPE_REPLY, TYPE_REQUEST, Packet

__all__ = ["AmConfig", "AmEndpoint", "RequestContext", "AmError"]


class _SimPeer(PeerState):
    """Per-connection state plus the events blocked senders wait on."""

    __slots__ = ("tx_lock", "timer_running", "window_waiters", "credit_waiters",
                 "hello_waiters")

    def __init__(self, node: int, channel: int, window: int, sim: Simulator) -> None:
        super().__init__(node, channel, window, sim.now)
        #: serializes seq assignment + hand-off to U-Net so that packets
        #: from concurrent senders cannot overtake each other (compose
        #: times differ with size; reordering would trip go-back-N)
        self.tx_lock = Resource(sim, capacity=1, name=f"am.peer{node}.tx")
        self.timer_running = False
        self.window_waiters: List[Event] = []
        self.credit_waiters: List[Event] = []
        #: sends queued between restart() and the peer's HELLO-ACK
        self.hello_waiters: List[Event] = []


class AmEndpoint(AmCore):
    """An Active Messages endpoint bound to one simulated U-Net endpoint."""

    def __init__(self, node_id: int, user_endpoint: UserEndpoint,
                 config: Optional[AmConfig] = None) -> None:
        super().__init__(node_id, user_endpoint, config)
        self.sim: Simulator = user_endpoint.sim
        self.sim.process(self._dispatch_loop(), name=f"am{node_id}.dispatch")
        if self.config.credit_flow:
            self.sim.process(self._credit_refresh_loop(), name=f"am{node_id}.credit")

    # -------------------------------------------------------- driver hooks
    def _now(self) -> float:
        return self.sim.now

    def _new_peer(self, node_id: int, channel_id: int) -> _SimPeer:
        return _SimPeer(node_id, channel_id, self.config.window, self.sim)

    def _send_now(self, peer: _SimPeer, ptype: int) -> None:
        self.sim.process(self._transmit(peer, Packet(type=ptype), track=False),
                         name=f"am{self.node}.ctl")

    def _retransmit_now(self, peer: _SimPeer, seq: Optional[int] = None) -> None:
        self.sim.process(self._retransmit(peer, seq), name=f"am{self.node}.rexmit")

    def _start_hello(self, peer: _SimPeer) -> None:
        self.sim.process(self._hello_loop(peer), name=f"am{self.node}.hello")

    def _window_opened(self, peer: _SimPeer) -> None:
        while peer.window_waiters and len(peer.unacked) < self._effective_window(peer):
            peer.window_waiters.pop(0).succeed()

    def _credit_opened(self, peer: _SimPeer) -> None:
        waiters, peer.credit_waiters = peer.credit_waiters, []
        for event in waiters:
            event.succeed()

    def _reconnected(self, peer: _SimPeer) -> None:
        waiters, peer.hello_waiters = peer.hello_waiters, []
        for event in waiters:
            event.succeed()

    def _fail_waiters(self, peer: _SimPeer, exc: Exception) -> None:
        for event in (peer.window_waiters + peer.credit_waiters
                      + peer.hello_waiters):
            event.fail(exc)
        peer.window_waiters = []
        peer.credit_waiters = []
        peer.hello_waiters = []

    def _arm_delayed_ack(self, peer: _SimPeer) -> None:
        self.sim.process(self._delayed_ack(peer), name=f"am{self.node}.dack")

    def _rpc_complete(self, key, done: Event, reply) -> None:
        done.succeed(reply)

    def _rpc_fail(self, key, done: Event, exc: Exception) -> None:
        done.fail(exc)

    # ------------------------------------------------------------- sending
    def request(self, dest: int, handler: int, args=(), data: bytes = b"") -> Generator:
        """Process: send a request (reliable, flow controlled)."""
        return self._issue(dest, handler, args, data)

    def rpc(self, dest: int, handler: int, args=(), data: bytes = b"") -> Generator:
        """Process: request + wait for the matching reply.

        Returns ``(args, data)`` from the reply.  Must not be called from
        inside a handler (the dispatch loop would deadlock).
        """
        done = self.sim.event(name=f"am{self.node}.rpc")
        yield from self._issue(dest, handler, args, data, done)
        return (yield done)

    def _issue(self, dest: int, handler: int, args, data: bytes,
               done: Optional[Event] = None) -> Generator:
        self._check_incarnation()
        peer = self._peer(dest)
        if len(data) > self.max_data:
            raise AmError(f"data block of {len(data)} bytes exceeds packet maximum {self.max_data}")
        yield from self._acquire_window(peer)
        yield peer.tx_lock.acquire()
        try:
            packet = self._sequenced(peer, TYPE_REQUEST, handler, 0, args, data)
            if done is not None:
                # register the waiter before transmitting: the reply can race us
                self._rpc_pending[(dest, packet.seq)] = done
            yield from self._transmit(peer, packet, track=True)
        finally:
            peer.tx_lock.release()
        return packet.seq

    def _send_reply(self, dest: int, req_seq: int, args, data: bytes) -> Generator:
        peer = self._peer(dest)
        # replies bypass the request window (deadlock avoidance) but are
        # still sequenced and retransmitted, so they take the tx lock
        yield peer.tx_lock.acquire()
        try:
            packet = self._sequenced(peer, TYPE_REPLY, 0, req_seq, args, data)
            yield from self._transmit(peer, packet, track=True)
        finally:
            peer.tx_lock.release()

    def _transmit(self, peer: _SimPeer, packet: Packet, track: bool) -> Generator:
        wire = self._prepare(peer, packet, track)
        if track and not peer.timer_running:
            peer.timer_running = True
            self.sim.process(self._retransmit_timer(peer), name=f"am{self.node}.rto")
        yield from self.user.send(peer.channel, wire)

    def _acquire_window(self, peer: _SimPeer) -> Generator:
        """Block until the core's gate admits one new request."""
        while True:
            why = self._gate(peer)
            if why is None:
                return
            if why == "credit":
                self._note_credit_stall(peer)
            event = self.sim.event(name=f"am{self.node}.{why}")
            getattr(peer, why + "_waiters").append(event)
            yield event

    # ------------------------------------------------------------ receiving
    def _dispatch_loop(self) -> Generator:
        while self._running:
            message = yield from self.user.recv()
            if self._crashed:
                continue  # a dead process neither dispatches nor acks
            yield self.config.dispatch_overhead_us
            if self._crashed:
                continue
            arrival = self._receive(message.channel_id, message.data)
            if arrival is None:
                continue
            peer, packet = arrival
            # deliver it, then any buffered successors it unblocked
            while packet is not None:
                handled = self._accept(peer, packet)
                if handled is not None:
                    yield from handled
                packet = peer.ooo_held.pop(peer.expected_seq, None)
            self._note_delivery(peer)

    def _delayed_ack(self, peer: _SimPeer) -> Generator:
        yield ACK_DELAY_US
        if peer.ack_deadline is not None and self._running:
            yield from self._transmit(peer, Packet(type=TYPE_ACK), track=False)

    # ---------------------------------------------------- background loops
    def _hello_loop(self, peer: _SimPeer) -> Generator:
        """Retransmit HELLO until the peer's HELLO-ACK closes the loop."""
        my_epoch = self.epoch
        while (self._running and not self._crashed and peer.reconnecting
               and self.epoch == my_epoch
               and self._peers_by_node.get(peer.node) is peer):
            yield from self._transmit(peer, Packet(type=TYPE_HELLO), track=False)
            yield self.config.hello_retry_us

    def _credit_refresh_loop(self) -> Generator:
        """Re-advertise when capacity changed and no traffic carried it."""
        while self._running:
            yield CREDIT_UPDATE_US
            if not self._running:
                break
            for peer in list(self._peers_by_node.values()):
                if self._credit_stale(peer):
                    yield from self._transmit(peer, Packet(type=TYPE_ACK), track=False)

    def _retransmit_timer(self, peer: _SimPeer) -> Generator:
        while peer.unacked and self._running:
            timeout = self._current_rto(peer)
            yield timeout / 2
            if not peer.unacked or not self._running:
                break
            if self._crashed or not peer.alive:
                break  # a corpse neither sends nor is worth sending to
            if self._peers_by_node.get(peer.node) is not peer:
                break  # superseded by a restart's fresh peer state
            if self.sim.now - peer.last_progress >= timeout:
                if not self._rto_expired(peer, timeout):
                    break
                yield from self._retransmit(peer)
        peer.timer_running = False

    def _retransmit(self, peer: _SimPeer, seq: Optional[int] = None) -> Generator:
        # the pick happens under the lock: what is outstanding (and
        # SACKed) may change while this process queues behind a sender
        yield peer.tx_lock.acquire()
        try:
            wire = self._rexmit_wire(peer, seq)
            if wire is not None:
                yield from self.user.send(peer.channel, wire)
        finally:
            peer.tx_lock.release()
