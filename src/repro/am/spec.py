"""The AM reliability spec, as executable predicates.

The Active Messages state machine (:mod:`repro.am.core`) runs under two
drivers — the simulated :class:`~repro.am.am.AmEndpoint` (generator
processes) and the wall-clock :class:`~repro.live.am.LiveAm`
(synchronous polling).  The decisions the differential checker cares
most about are exactly the ones that have historically gone off by one,
so they live here as plain functions of their inputs, and the core
reaches each through a named seam method:

* the **credit gate**: a sender with zero known remote credit must
  stall (``<= 0``, not ``< 0`` — the classic injected bug);
* the **cumulative-ack horizon**: an ack of ``n`` acknowledges every
  sequence number strictly before ``n`` (``seq_lt``, not ``seq_leq`` —
  the other classic);
* the **epoch fence**: a packet stamped with an incarnation epoch
  strictly older than the receiver's memory of that peer must be
  dropped (``stale_epoch``), or a restarted peer's fresh sequence
  numbers alias the dead incarnation's and dispatch duplicates;
* the **epoch ack gate**: only an ack from the *current* known remote
  incarnation may move the go-back-N window — an old incarnation's ack
  says nothing about what the new incarnation has seen;
* the **reconnect plan**: when a peer returns with a new epoch, every
  in-flight send not already covered by the peer's advertised receive
  horizon is *abandoned*, never replayed — replaying a message that may
  have been dispatched just before the crash would violate the
  at-most-once contract;
* the **reorder admission rule**: in SACK mode a receiver holds an
  out-of-order packet only within its bounded horizon and never
  dispatches it early — dispatch order is always sequence order;
* the **SACK block**: bit *i* acknowledges ``ack + 1 + i`` — never
  ``ack`` itself, which the receiver by definition does not have (the
  ``sack-bitmap-shift`` injected bug is exactly that off-by-one);
* the **selective-retransmit plan**: a sender retransmits only the
  *holes* below the highest SACKed sequence number, leaving everything
  the receiver already holds alone;
* the **ECN round gate**: a sender halves its window at most once per
  round trip of congestion echoes — once on the first echo, then not
  again until the cumulative ack passes the window edge recorded at
  that backoff (RFC-3168 shape).

Keeping them out of the state machine means a fix lands on every
substrate at once, the reference model (``conformance/model.py``) can
use the SACK/ECN ones without importing any endpoint code, and the
conformance bug library can replace one seam on the core knowing the
healthy behavior is these functions, verbatim.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from .protocol import SACK_BITMAP_BITS, SEQ_MOD, epoch_newer, seq_add, seq_lt, seq_leq

__all__ = [
    "credit_gate_blocks",
    "cumulative_acked",
    "effective_epoch",
    "epoch_is_stale",
    "epoch_advances",
    "ack_epoch_applies",
    "reconnect_plan",
    "reorder_admit",
    "sack_block",
    "sack_claimed",
    "sack_retransmit_plan",
    "ecn_backoff_allowed",
]


def credit_gate_blocks(remote_credit: Optional[int]) -> bool:
    """Must a sender stall on this known remote credit?

    ``None`` means the peer has never advertised — treated as unlimited
    so start-up cannot deadlock.  Zero (or the negative values that
    conservative spending between advertisements can reach) blocks.
    """
    return remote_credit is not None and remote_credit <= 0


def cumulative_acked(outstanding: Iterable[int], ack: int) -> List[int]:
    """The sequence numbers ``ack`` acknowledges, in iteration order.

    A cumulative ack names the *next expected* sequence number: it
    covers everything strictly before it in the circular space and
    never the packet the receiver is still waiting for.
    """
    return [seq for seq in outstanding if seq_lt(seq, ack)]


def effective_epoch(epoch: Optional[int]) -> int:
    """The incarnation a packet claims.  An absent epoch word (classic
    framing, recovery off) means the first incarnation, epoch 0, so the
    two framings interoperate."""
    return 0 if epoch is None else epoch


def epoch_is_stale(packet_epoch: Optional[int], known_remote_epoch: int) -> bool:
    """Must the receiver fence this packet as ``stale_epoch``?

    True when the packet's claimed incarnation is strictly older than
    the current one.  Applied twice per packet: to the sender half of
    the epoch field against the receiver's memory of the peer (traffic
    *from* a dead incarnation), and to the destination echo against the
    receiver's own epoch (traffic *addressed to* a dead incarnation —
    the only thing separating a surviving peer's pre-crash in-flight
    packets from post-reconnect ones, since the survivor's own epoch
    never changed).  Equal epochs pass (normal traffic); newer epochs
    pass too — they are the restarted peer announcing itself, handled
    by :func:`epoch_advances`.
    """
    return epoch_newer(known_remote_epoch, effective_epoch(packet_epoch))


def epoch_advances(packet_epoch: Optional[int], known_remote_epoch: int) -> bool:
    """Does this packet reveal that the peer restarted?

    True when the packet's incarnation is strictly newer than the
    receiver's memory.  The receiver must then discard per-peer
    go-back-N state (expected seq, out-of-order buffer, outstanding
    acks) before processing anything from the new incarnation.
    """
    return epoch_newer(effective_epoch(packet_epoch), known_remote_epoch)


def ack_epoch_applies(packet_epoch: Optional[int], known_remote_epoch: int) -> bool:
    """May this packet's cumulative ack move the go-back-N window?

    Only an ack from the *current* known remote incarnation counts: a
    stale incarnation's ack describes a receive horizon that no longer
    exists, and a newer incarnation's ack field describes *its* fresh
    numbering, not the window the sender kept for the old one.
    """
    return effective_epoch(packet_epoch) == known_remote_epoch


def reconnect_plan(outstanding: Iterable[int],
                   peer_horizon: int,
                   peer_restarted: bool) -> Tuple[List[int], List[int]]:
    """Split in-flight sends into ``(completed, abandoned)`` at reconnect.

    ``peer_horizon`` is the receive horizon the peer advertised in its
    HELLO/HELLO-ACK (the next sequence number it will accept).  When the
    peer did *not* restart, everything the horizon covers was delivered
    and the rest stays in flight — nothing is abandoned.  When the peer
    *did* restart, its new incarnation has no memory of the old
    numbering: nothing can be confirmed, and every outstanding send is
    abandoned rather than replayed, because a message dispatched moments
    before the crash would be dispatched twice.  This is the at-most-once
    contract; the ``replay-horizon`` injected bug violates exactly it.
    """
    if peer_restarted:
        return [], list(outstanding)
    return cumulative_acked(outstanding, peer_horizon), []


def reorder_admit(expected: int, seq: int, horizon: int) -> str:
    """Classify an arriving sequence number for a SACK-mode receiver.

    Returns ``"deliver"`` (the in-order packet — dispatch it and drain
    the reorder buffer behind it), ``"hold"`` (a future packet within
    the bounded horizon — buffer it, never dispatch early), or
    ``"reject"`` (a duplicate of something already delivered, or a
    packet beyond the horizon the receiver promised to buffer).  The
    window-never-exceeds-horizon config rule makes "beyond the horizon"
    unreachable for a conforming sender, but a receiver must not trust
    the sender for its own memory bound.
    """
    if seq == expected:
        return "deliver"
    distance = (seq - expected) % SEQ_MOD
    if 1 <= distance <= min(horizon, SACK_BITMAP_BITS):
        return "hold"
    return "reject"


def sack_block(expected: int, held: Iterable[int], horizon: int) -> int:
    """Build the SACK bitmap a receiver advertises.

    Bit *i* acknowledges ``expected + 1 + i``.  Bit 0 therefore refers
    to the sequence number *after* the cumulative ack — ``expected``
    itself is by definition the hole the receiver is waiting for and
    can never be SACKed.  Held entries outside the horizon (impossible
    for a conforming reorder buffer) are silently omitted.
    """
    bits = 0
    limit = min(horizon, SACK_BITMAP_BITS)
    for seq in held:
        distance = (seq - expected) % SEQ_MOD
        if 1 <= distance <= limit:
            bits |= 1 << (distance - 1)
    return bits


def sack_claimed(ack: int, bits: int) -> List[int]:
    """The sequence numbers a SACK block claims the receiver holds."""
    return [seq_add(ack, 1 + i) for i in range(SACK_BITMAP_BITS) if (bits >> i) & 1]


def sack_retransmit_plan(outstanding: Iterable[int], ack: int,
                         bits: int) -> Tuple[List[int], List[int]]:
    """Split outstanding sends into ``(sacked, holes)`` per a SACK block.

    ``sacked`` is every outstanding sequence number the block claims the
    receiver already holds; ``holes`` is every outstanding sequence
    number below the highest claimed one that the block does *not*
    cover — the packets selective retransmit should resend now, without
    waiting for an RTO.  The cumulative ``ack`` itself, when still
    outstanding, is the first hole.  An empty block plans nothing.
    """
    claimed = set(sack_claimed(ack, bits))
    if not claimed:
        return [], []
    highest = max(claimed, key=lambda s: (s - ack) % SEQ_MOD)
    sacked: List[int] = []
    holes: List[int] = []
    for seq in outstanding:
        if seq in claimed:
            sacked.append(seq)
        elif seq_lt(seq, highest):
            holes.append(seq)
    return sacked, holes


def ecn_backoff_allowed(ack: int, round_end: Optional[int]) -> bool:
    """May a congestion echo shrink the window now?

    A sender reacts to at most one congestion signal per round trip:
    after a backoff it records the window edge (its next sequence
    number) as ``round_end`` and ignores further echoes until the
    cumulative ack reaches it — every echo before that describes the
    same congested round the sender already reacted to.
    """
    return round_end is None or seq_leq(round_end, ack)
