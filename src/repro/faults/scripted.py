"""Deterministic, content-addressed fault schedules.

The random :class:`~repro.faults.perturb.LinkPerturbation` stages key
their draws on PDU *arrival order*, which is not comparable across
substrates: the ATM path carries cells, the FE path frames, and ack
timing shifts every index.  A conformance run needs the *same* fault to
hit the *same* Active Messages packet on every substrate, so the stages
here address packets by wire content instead — the decoded AM sequence
number plus an *occurrence* index counting how many times that sequence
number has crossed this link (0 = first transmission, 1 = first
retransmission, ...).

What a stage knows of the wire format is the backend's ``wire`` record.
The AM header always fits in the first unit of a PDU (26 bytes against
a 48-byte cell payload), so a stage decides a whole PDU's fate from its
first unit, without reassembly, and applies it to every unit of that
PDU.  Pure ACKs are never targeted — their seq field is meaningless and
dropping them cannot change AM-observable semantics (cumulative acks
are re-sent constantly) — so a schedule can never cut off the
protocol's recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..am.protocol import TYPE_REPLY, TYPE_REQUEST, mark_ce, peek_type_seq
from .perturb import Emit, LinkPerturbation

__all__ = ["ScheduledFault", "OccurrenceTracker", "ScriptedStage"]

#: emit the duplicate copy this long after the original, far enough
#: apart that a multi-cell duplicate cannot interleave with its original
DUP_DELAY_US = 60.0

_ACTIONS = ("drop", "dup", "delay", "mark")


@dataclass(frozen=True)
class ScheduledFault:
    """One deterministic fault: what happens to one packet transmission.

    ``direction`` is interpreted by the harness ("fwd" = request path,
    "rev" = reply/ack path); the stage itself only sees the events for
    its own link.  ``seq`` is the AM sequence number, ``occurrence``
    which transmission of that seq is hit (0-based).
    """

    direction: str
    seq: int
    occurrence: int
    action: str
    delay_us: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("fwd", "rev"):
            raise ValueError(f"direction must be 'fwd' or 'rev', got {self.direction!r}")
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}, got {self.action!r}")
        if self.seq < 0 or self.occurrence < 0:
            raise ValueError("seq and occurrence must be non-negative")
        if self.action == "delay" and not self.delay_us > 0.0:
            raise ValueError("delay action needs delay_us > 0")

    def to_dict(self) -> dict:
        return {"direction": self.direction, "seq": self.seq,
                "occurrence": self.occurrence, "action": self.action,
                "delay_us": self.delay_us}

    @classmethod
    def from_dict(cls, d: dict) -> "ScheduledFault":
        return cls(direction=d["direction"], seq=int(d["seq"]),
                   occurrence=int(d["occurrence"]), action=d["action"],
                   delay_us=float(d.get("delay_us", 0.0)))


class OccurrenceTracker(LinkPerturbation):
    """Content addressing, shared by :class:`ScriptedStage` and the
    lifecycle stage of :mod:`repro.faults.crash`.

    ``events`` are records with ``seq`` and ``occurrence`` fields.
    Only data-bearing packets (REQUEST/REPLY) are tracked, so the seq-0
    carried by HELLO/ACK traffic can never address an event.  A PDU's
    event is decided on its first unit and holds for every unit up to
    its last, per ``wire.pdu`` key — as firmware reassembly scopes a PDU.
    """

    stream_name = None  # content-addressed: no randomness drawn
    COUNTERS = ("fired_count", "tracked")

    def __init__(self, events: Sequence, wire) -> None:
        self._events: Dict[Tuple[int, int], object] = {
            (e.seq, e.occurrence): e for e in events
        }
        self.wire = wire
        super().__init__()

    def reset(self) -> None:
        self.seen: Dict[int, int] = {}
        #: events that actually hit a packet, in hit order
        self.fired: List = []
        #: key -> the event decided on an unfinished PDU's first unit
        self._open: Dict[object, object] = {}

    @property
    def fired_count(self) -> int:
        return len(self.fired)

    @property
    def tracked(self) -> int:
        """Distinct sequence numbers seen crossing this link."""
        return len(self.seen)

    def _hit(self, unit) -> Tuple[object, bool]:
        """``(event, first)``: the event addressed to the PDU ``unit``
        belongs to, if any, and whether ``unit`` is that PDU's first.

        Counts the occurrence for every tracked (data-bearing) packet it
        sees, whether or not an event matches.
        """
        key, last = self.wire.pdu(unit)
        if key in self._open:
            return (self._open.pop(key) if last else self._open[key]), False
        event = None
        peeked = peek_type_seq(self.wire.head(unit))
        if peeked is not None and peeked[0] in (TYPE_REQUEST, TYPE_REPLY):
            seq = peeked[1]
            occurrence = self.seen.get(seq, 0)
            self.seen[seq] = occurrence + 1
            event = self._events.get((seq, occurrence))
            if event is not None:
                self.fired.append(event)
        if not last:
            self._open[key] = event
        return event, True


class ScriptedStage(OccurrenceTracker):
    """Applies the scheduled fault addressed to each PDU to all its units.

    Content addressing is identical on every substrate — same (seq,
    occurrence) keys, same fired log — which is what makes one schedule
    substrate-invariant.  A ``mark`` holds the PDU's units and sends
    them on through ``wire.rewrite`` at the last one's arrival: flipping
    a header bit in one cell would break the AAL5 CRC-32 in the last
    cell's trailer, so the PDU is re-framed as a conforming switch
    does.  AM-observable delivery is gated on PDU completion anyway, so
    timing is unchanged.
    """

    def reset(self) -> None:
        super().reset()
        self._held: Dict[object, List] = {}

    def process(self, unit, now: float, emit: Emit) -> None:
        event, _first = self._hit(unit)
        if event is None:
            emit(unit, 0.0)
        elif event.action == "delay":
            emit(unit, event.delay_us)
        elif event.action == "dup":
            emit(unit, 0.0)
            emit(unit, event.delay_us or DUP_DELAY_US)
        elif event.action == "mark":
            key, last = self.wire.pdu(unit)
            self._held.setdefault(key, []).append(unit)
            if last:
                for out in self.wire.rewrite(self._held.pop(key), mark_ce):
                    emit(out, 0.0)
        # a "drop" emits nothing
