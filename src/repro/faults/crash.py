"""Content-addressed endpoint lifecycle faults: crash and restart.

The crash-recovery subsystem (incarnation epochs, the HELLO reconnect
handshake — :mod:`repro.am.am` / :mod:`repro.live.am`) needs an
adversary that kills and revives endpoints at *comparable* points on
every substrate.  Wall-time triggers are useless for that: the ATM,
Fast Ethernet and live paths reach "request 7 is crossing the wire" at
wildly different clock readings.  So lifecycle faults are addressed the
same way :mod:`repro.faults.scripted` addresses drops — by decoded AM
``(seq, occurrence)`` on the victim's *ingress* link — and a conformance
case can say "the receiver dies the moment the first copy of seq 3
arrives, and comes back when the sender's third retransmission of seq 3
shows up" and mean the same thing on all three substrates.

The stages here are pure observers: every PDU passes through unchanged
(a crash does not perturb the wire; the victim's silence does the
damage).  When the addressed transmission crosses, the stage calls a
``fire(fault, now)`` callback; :class:`EndpointLifecycle` is the
standard callback, mapping ``crash`` / ``restart`` onto whatever the
harness provides — ``AmEndpoint.crash``/``restart``, ``LiveAm``'s
twins, or a real ``SIGKILL`` + respawn of a live peer process
(:mod:`repro.live.peer`).  Because the stage sits at the framing layer,
*below* the AM endpoint, occurrence counting keeps running while the
victim is dead — which is exactly what lets a ``RestartFault`` trigger
on the surviving sender's Nth retransmission into the void.

The addressed transmission itself is the first one the dead incarnation
never processes: the stage fires before delivery, the PDU then arrives
at an endpoint that is already gone.  Deterministic on every substrate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from .perturb import Emit
from .scripted import OccurrenceTracker

__all__ = ["LifecycleFault", "CrashFault", "RestartFault",
           "EndpointLifecycle", "LifecycleStage"]

_KINDS = ("crash", "restart")


@dataclass(frozen=True)
class LifecycleFault:
    """One lifecycle event, addressed like a :class:`ScheduledFault`.

    ``direction`` names the link whose ingress the trigger watches
    ("fwd" = request path, so the victim is the receiver; "rev" =
    reply/ack path, victim is the original sender) — interpreted by the
    harness, exactly as scripted faults do it.  ``seq``/``occurrence``
    address the triggering transmission: occurrence 0 is the first copy
    of that sequence number to cross the link, 1 the first
    retransmission, and so on.
    """

    kind: str
    direction: str
    seq: int
    occurrence: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.direction not in ("fwd", "rev"):
            raise ValueError(
                f"direction must be 'fwd' or 'rev', got {self.direction!r}")
        if self.seq < 0 or self.occurrence < 0:
            raise ValueError("seq and occurrence must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LifecycleFault":
        return cls(kind=d["kind"], direction=d["direction"],
                   seq=int(d["seq"]), occurrence=int(d["occurrence"]))


def CrashFault(direction: str, seq: int, occurrence: int = 0) -> LifecycleFault:
    """The victim dies when transmission ``(seq, occurrence)`` arrives."""
    return LifecycleFault("crash", direction, seq, occurrence)


def RestartFault(direction: str, seq: int, occurrence: int) -> LifecycleFault:
    """The victim comes back (epoch+1, HELLO) at ``(seq, occurrence)``.

    Meaningful occurrences are retransmissions (>= 1): a restart is
    triggered by the surviving sender still knocking on the door.
    """
    return LifecycleFault("restart", direction, seq, occurrence)


class EndpointLifecycle:
    """The standard ``fire`` callback: maps faults onto a victim.

    ``crash`` and ``restart`` are zero-argument callables — bound
    methods of a simulated :class:`~repro.am.am.AmEndpoint`, a
    :class:`~repro.live.am.LiveAm`, or a subprocess harness that sends
    ``SIGKILL`` and respawns.
    """

    def __init__(self, crash: Optional[Callable[[], object]] = None,
                 restart: Optional[Callable[[], object]] = None) -> None:
        self._crash = crash
        self._restart = restart

    def fire(self, fault: LifecycleFault, now: float) -> None:
        action = self._crash if fault.kind == "crash" else self._restart
        if action is not None:
            action()


class LifecycleStage(OccurrenceTracker):
    """The scripted stage's occurrence tracking, firing a callback on the
    first unit of the addressed PDU (where its AM header rides).

    It never perturbs a PDU, but it is a pipeline stage like any other,
    so it rides the same pipelines on every substrate — after any
    scripted stage, because a dropped transmission never reaches the
    victim and so must not fire a trigger either.
    """

    def __init__(self, events: Sequence[LifecycleFault], wire,
                 fire: Callable[[LifecycleFault, float], None]) -> None:
        super().__init__(events, wire)
        if len(self._events) != len(events):
            raise ValueError("lifecycle faults must have distinct "
                             "(seq, occurrence) addresses per link")
        self._fire = fire

    def process(self, unit, now: float, emit: Emit) -> None:
        event, first = self._hit(unit)
        if first and event is not None:
            self._fire(event, now)
        emit(unit, 0.0)
