"""Observation probe: AM-level observable traces from a live run.

The probe subscribes to each NI's event stream (``backend.trace``, a
:class:`~repro.sim.trace.TraceRecorder`: the AM endpoint's transitions,
the endpoints' and the demux table's drops, the NI's own steps) and
condenses one run into an :class:`ObservedTrace` — the exact shape the
differential checker diffs against the reference model.

It also checks *online protocol invariants* that hold on every
conforming implementation regardless of timing:

* **window gate** — no tracked request in flight beyond the effective
  window;
* **credit gate** — a window grant never happens while the known remote
  credit is exhausted (``<= 0``);
* **dispatch continuity** — requests dispatch with consecutive sequence
  numbers (FIFO); a receiver restart legitimately resets the numbering,
  so the continuity baseline resets on its ``reconnect`` event;
* **exactly-once dispatch** — no message id ever reaches a handler
  twice, whatever crashes and reconnects happened in between (the
  at-most-once delivery contract, checked at the dispatch event where a
  replay would break it);
* **congestion echo** — a receiver that noted a CE mark must echo it
  back to the sender on some outbound packet before the run ends
  (checked at finish: marks observed with zero echoes is a violation).

These catch semantic bugs (e.g. an off-by-one in the credit gate)
deterministically, at the precise event where the state machine breaks
its contract.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..am.protocol import TYPE_REQUEST

__all__ = ["ObservedTrace", "ObservationProbe"]


@dataclass
class ObservedTrace:
    """One substrate run, reduced to its AM-observable behavior."""

    substrate: str
    completed: bool = False
    dispatched: List[int] = field(default_factory=list)
    replies: List[int] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    rexmit: int = 0
    timeouts: int = 0
    dup_rx: int = 0
    credit_stalls: int = 0
    ecn_marks: int = 0
    ecn_echoes: int = 0
    ecn_backoffs: int = 0
    drop_classes: Dict[str, int] = field(default_factory=dict)
    fired: List = field(default_factory=list)
    completion_time_us: float = 0.0
    snapshots: Dict[str, dict] = field(default_factory=dict)
    #: request ids whose sends the requester abandoned at reconnect
    abandoned: List[int] = field(default_factory=list)
    #: lifecycle faults that fired on the wire, in hit order
    lifecycle_fired: List = field(default_factory=list)
    #: last observable events before the end of the run (context only)
    event_tail: List[tuple] = field(default_factory=list)
    #: last substrate service steps (context only; needs a trace feed)
    substrate_tail: List[str] = field(default_factory=list)

    def fired_keys(self, occurrence: int = 0) -> List[Tuple[str, int, int, str]]:
        return sorted((f.direction, f.seq, f.occurrence, f.action)
                      for f in self.fired if f.occurrence == occurrence)

    def lifecycle_keys(self) -> List[Tuple[str, int, int]]:
        return sorted((e.kind, e.seq, e.occurrence)
                      for e in self.lifecycle_fired)


class ObservationProbe:
    """Collects observable events from one differential run."""

    def __init__(self, substrate: str, requester_node: int = 0, tail: int = 48,
                 config_window: Optional[int] = None) -> None:
        self.substrate = substrate
        self.requester_node = requester_node
        #: the *configured* window bound — checked instead of the
        #: effective window the events report, so a bug in the window
        #: computation itself cannot hide from its own invariant
        self.config_window = config_window
        self.violations: List[str] = []
        self.dispatched: List[int] = []
        self.replies: List[int] = []
        self.abandoned: List[int] = []
        self.drop_classes: Dict[str, int] = {}
        self.events: Deque[tuple] = deque(maxlen=tail)
        self.substrate_steps: Deque[str] = deque(maxlen=tail)
        self._last_dispatch_seq: Optional[int] = None
        self._dispatched_ids: set = set()
        self._ecn_marks = 0
        self._ecn_echoes = 0

    def attach(self, backend) -> None:
        """Watch everything on ``backend``'s host."""
        backend.trace.subscribe(self._on_record)

    # -------------------------------------------------------------- events
    def _violate(self, message: str) -> None:
        if message not in self.violations:
            self.violations.append(message)

    def _on_am(self, kind: str, fields: dict) -> None:
        self.events.append((kind, fields))
        node = fields["node"]
        if kind == "grant":
            credit = fields["remote_credit"]
            bound = self.config_window if self.config_window is not None else fields["window"]
            if credit is not None and credit <= 0:
                self._violate(
                    f"invariant:credit-gate: node {node} granted a send at "
                    f"t={fields['t']:.1f}us while remote credit was {credit}"
                )
            if fields["unacked"] >= bound:
                self._violate(
                    f"invariant:window-gate: node {node} granted a send with "
                    f"{fields['unacked']} unacked against window {bound}"
                )
        elif kind == "tx":
            bound = self.config_window if self.config_window is not None else fields["window"]
            if fields["ptype"] == TYPE_REQUEST and fields["unacked"] > bound:
                self._violate(
                    f"invariant:window: node {node} has {fields['unacked']} unacked "
                    f"requests in flight, window is {bound}"
                )
        elif kind == "dispatch" and node != self.requester_node:
            seq = fields["seq"]
            if self._last_dispatch_seq is not None and seq != self._last_dispatch_seq + 1:
                self._violate(
                    f"invariant:dispatch-continuity: node {node} dispatched seq {seq} "
                    f"after seq {self._last_dispatch_seq}"
                )
            self._last_dispatch_seq = seq
            msg = fields["msg"]
            if msg in self._dispatched_ids:
                self._violate(
                    f"invariant:exactly-once: node {node} dispatched message "
                    f"id {msg} twice (seq {seq}) — a send was replayed "
                    f"across an incarnation boundary"
                )
            self._dispatched_ids.add(msg)
            self.dispatched.append(msg)
        elif kind == "reply" and node == self.requester_node:
            self.replies.append(fields["req_seq"])
        elif kind == "reconnect" and node != self.requester_node:
            # the receiver restarted: its fresh incarnation numbers from
            # zero, so the continuity baseline resets with it
            self._last_dispatch_seq = None
        elif kind == "ecn_mark":
            self._ecn_marks += 1
        elif kind == "ecn_echo":
            self._ecn_echoes += 1
        elif kind == "abandon" and node == self.requester_node:
            # forward seq == message id while the requester itself never
            # restarts (its numbering only resets on *its* restart,
            # which conformance cases never schedule)
            self.abandoned.append(fields["seq"])

    def _on_record(self, record) -> None:
        category, kind = record.category, record.step
        if category == "am":
            self._on_am(kind, dict(record.info, t=record.start))
        elif category == "drop":
            self.drop_classes[kind] = self.drop_classes.get(kind, 0) + 1
            self.events.append(("drop", {"class": kind, **record.info, "t": record.start}))
        else:
            self.substrate_steps.append(f"{record.start:10.1f}us {category}: {kind}")

    # -------------------------------------------------------------- result
    def finish(self, completed: bool, completion_time_us: float,
               fired, snapshots: Dict[str, dict],
               lifecycle_fired=()) -> ObservedTrace:
        if self._ecn_marks and not self._ecn_echoes:
            # RFC-3168 shape: a receiver that noted congestion MUST echo
            # it — a mark swallowed silently leaves the sender blind
            # (the ecn-echo-drop injected bug is exactly this)
            self._violate(
                f"invariant:ecn-echo: {self._ecn_marks} congestion marks "
                f"were noted but no echo was ever sent back")
        return ObservedTrace(
            substrate=self.substrate,
            completed=completed,
            dispatched=list(self.dispatched),
            replies=list(self.replies),
            violations=list(self.violations),
            drop_classes=dict(self.drop_classes),
            fired=list(fired),
            completion_time_us=completion_time_us,
            snapshots=snapshots,
            abandoned=list(self.abandoned),
            lifecycle_fired=list(lifecycle_fired),
            event_tail=list(self.events),
            substrate_tail=list(self.substrate_steps),
        )
