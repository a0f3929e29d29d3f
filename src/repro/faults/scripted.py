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

The AM header always fits in the first cell of a segmented AAL5 PDU
(26 bytes against a 48-byte cell payload), so the cell stage can decide
a whole PDU's fate from its first cell, without reassembly, and apply
it to every cell of that PDU.  Pure ACKs are never targeted — their seq
field is meaningless and dropping them cannot change AM-observable
semantics (cumulative acks are re-sent constantly) — so a schedule can
never cut off the protocol's recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..am.protocol import TYPE_REPLY, TYPE_REQUEST, mark_ce, peek_type_seq
from .perturb import Emit, LinkPerturbation

__all__ = ["ScheduledFault", "FrameScriptedStage", "CellScriptedStage",
           "DatagramScriptedStage", "scripted_stage_factory"]

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


class _ScriptedStage(LinkPerturbation):
    """Shared machinery: occurrence tracking and the fired log."""

    stream_name = "scripted"  # unused: scripted stages draw no randomness

    def __init__(self, events: Sequence[ScheduledFault]) -> None:
        super().__init__()
        self._events: Dict[Tuple[int, int], ScheduledFault] = {
            (e.seq, e.occurrence): e for e in events
        }
        self.seen: Dict[int, int] = {}
        #: faults that actually hit a packet, in hit order
        self.fired: List[ScheduledFault] = []

    def attach(self, ctx) -> None:  # no RNG stream wanted
        self.ctx = ctx
        self.reset()

    def reset(self) -> None:
        self.seen = {}
        self.fired = []

    def _decide(self, raw: bytes) -> Optional[ScheduledFault]:
        """The scheduled fault for this wire message, if any.

        Counts the occurrence for every tracked (data-bearing) packet it
        sees, whether or not an event matches.
        """
        peeked = peek_type_seq(raw)
        if peeked is None:
            return None
        ptype, seq = peeked
        if ptype not in (TYPE_REQUEST, TYPE_REPLY):
            return None
        occurrence = self.seen.get(seq, 0)
        self.seen[seq] = occurrence + 1
        event = self._events.get((seq, occurrence))
        if event is not None:
            self.fired.append(event)
        return event

    def _apply(self, event: Optional[ScheduledFault], pdu, emit: Emit,
               delay_offset: float = 0.0) -> None:
        if event is None:
            emit(pdu, delay_offset)
        elif event.action == "drop":
            return
        elif event.action == "delay":
            emit(pdu, delay_offset + event.delay_us)
        elif event.action == "dup":
            emit(pdu, delay_offset)
            emit(pdu, delay_offset + (event.delay_us or DUP_DELAY_US))
        elif event.action == "mark":
            emit(self._mark(pdu), delay_offset)

    def _mark(self, pdu):
        """Set the ECN CE bit on this substrate's PDU (congested switch)."""
        raise NotImplementedError(f"{type(self).__name__} cannot mark PDUs")

    def counters(self) -> dict:
        return {"fired": len(self.fired), "tracked": len(self.seen)}


class FrameScriptedStage(_ScriptedStage):
    """Scripted faults on Ethernet frames (one AM packet per frame)."""

    def process(self, frame, now: float, emit: Emit) -> None:
        self._apply(self._decide(frame.payload), frame, emit)

    def _mark(self, frame):
        # rebuild with the CE flag set in the AM header; the frame stays
        # CRC-clean (corrupted=False) — congestion marking is done by
        # conforming switch hardware, not line noise
        from ..ethernet.frames import EthernetFrame

        return EthernetFrame(
            dst_mac=frame.dst_mac,
            src_mac=frame.src_mac,
            dst_port=frame.dst_port,
            src_port=frame.src_port,
            payload=mark_ce(frame.payload),
            corrupted=frame.corrupted,
        )


class CellScriptedStage(_ScriptedStage):
    """Scripted faults on ATM cells, decided per AAL5 PDU.

    The fate of a PDU is decided on its first cell (where the AM header
    lives) and applied to every cell until the ``last`` marker, tracked
    per VCI exactly as firmware reassembly is.

    A ``mark`` fault cannot touch a single cell: flipping a header bit
    mid-PDU breaks the real AAL5 CRC-32 in the last cell's trailer, and
    the receiver would discard the whole PDU as line damage.  So the
    stage does what a conforming ATM switch does — it holds the PDU's
    cells, reassembles, sets CE in the AM header, and re-segments (which
    recomputes the trailer CRC) before forwarding.  All cells go out at
    the last cell's arrival time; since AM-observable delivery is gated
    on PDU completion anyway, timing is unchanged.
    """

    def __init__(self, events: Sequence[ScheduledFault]) -> None:
        super().__init__(events)
        self._pending: Dict[int, Optional[ScheduledFault]] = {}
        self._held: Dict[int, List] = {}

    def reset(self) -> None:
        super().reset()
        self._pending = {}
        self._held = {}

    def process(self, cell, now: float, emit: Emit) -> None:
        if cell.vci in self._pending:
            event = self._pending[cell.vci]
        else:
            event = self._decide(bytes(cell.payload))
            if not cell.last:
                self._pending[cell.vci] = event
        if event is not None and event.action == "mark":
            self._held.setdefault(cell.vci, []).append(cell)
            if not cell.last:
                return
            self._pending.pop(cell.vci, None)
            for out in self._mark_pdu(self._held.pop(cell.vci)):
                emit(out, 0.0)
            return
        if cell.last:
            self._pending.pop(cell.vci, None)
        self._apply(event, cell, emit)

    @staticmethod
    def _mark_pdu(cells):
        from ..atm.cells import Aal5Error, aal5_reassemble, aal5_segment

        try:
            payload = aal5_reassemble(list(cells))
            return aal5_segment(mark_ce(payload), cells[0].vci)
        except (Aal5Error, ValueError):
            # already damaged in flight — forward untouched, the
            # receiver's CRC check owns this PDU's fate
            return cells


class DatagramScriptedStage(_ScriptedStage):
    """Scripted faults on live U-Net/OS datagrams (ingress framing layer).

    A live datagram is the U-Net/OS frame header followed by one whole
    AM packet, so the decision peeks past the header; the fault applies
    to the raw datagram (bytes), which is what the live backend's
    ingress hook carries.  Content addressing is identical to the other
    substrates — same (seq, occurrence) keys, same fired log — which is
    what makes one schedule substrate-invariant across all three.
    """

    def __init__(self, events: Sequence[ScheduledFault], header_size: int = 0) -> None:
        super().__init__(events)
        self._header_size = header_size

    def process(self, raw: bytes, now: float, emit: Emit) -> None:
        self._apply(self._decide(raw[self._header_size:]), raw, emit)

    def _mark(self, raw: bytes) -> bytes:
        return raw[:self._header_size] + mark_ce(raw[self._header_size:])


_STAGES = {"cell": CellScriptedStage, "frame": FrameScriptedStage}


def scripted_stage_factory(backend, events: Sequence[ScheduledFault]) -> _ScriptedStage:
    """The right scripted stage for ``backend``'s wire unit."""
    if backend.wire_unit == "datagram":
        return DatagramScriptedStage(events, header_size=backend.frame_header_size)
    return _STAGES[backend.wire_unit](events)
