"""Greedy shrinker: minimize a failing case to its smallest reproducer.

Given a :class:`~repro.conformance.checker.CaseReport` with
divergences, the shrinker repeatedly proposes smaller candidate cases
and keeps any candidate that still produces a divergence of the *same
kind* (so it never trades the bug under investigation for an unrelated
one).  Passes, applied to fixpoint:

1. drop scheduled faults one at a time (most schedules are bystanders);
2. drop endpoint lifecycle events (a divergence that survives without
   the crash schedule was never a crash bug);
3. shrink the receiver's capacity (reproduces capacity bugs with less
   traffic, unlocking further workload deletion);
4. truncate the workload tail (the bug usually manifests early);
5. delete individual messages (renumbering fault and lifecycle seqs
   past the gap);
6. simplify messages (RPC -> plain request, shrink payload size).

Candidates are accepted only when they strictly decrease a
lexicographic measure (event count, receiver capacity, workload
complexity), which both guarantees termination and lets same-size
simplifications through.

The result is emitted as a replayable JSON artifact
(:data:`REPRODUCER`) that ``python -m repro conformance --replay
<file>`` re-runs bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

from ..artifact import Artifact
from .checker import SUBSTRATES, CaseReport, run_case
from .schedule import ConformanceCase, Message

__all__ = ["REPRODUCER", "ShrinkResult", "shrink_case", "load_artifact",
           "load_artifact_meta"]

#: stop exploring after this many candidate executions (each candidate
#: is a full differential run; keep the budget bounded)
DEFAULT_BUDGET = 160


@dataclass
class ShrinkResult:
    """The minimized case plus the trail that led to it."""

    case: ConformanceCase
    report: CaseReport
    original_size: int
    attempts: int = 0
    accepted: int = 0
    trail: List[str] = field(default_factory=list)

    @property
    def kinds(self) -> List[str]:
        return sorted({d.kind for d in self.report.divergences})

    def to_payload(self) -> dict:
        """The :data:`REPRODUCER` document for this result."""
        return {
            "format": REPRODUCER.format,
            "case": self.case.to_dict(),
            "bug": self.report.bug,
            #: the exact substrate set the divergence was observed against —
            #: replay must run these, or fail loudly, never silently verify
            #: on whatever subset happens to be available
            "substrates": list(self.report.substrates),
            "divergence_kinds": self.kinds,
            "divergences": [str(d) for d in self.report.divergences],
            "original_size": self.original_size,
            "shrunk_size": self.case.size,
            "attempts": self.attempts,
            "trail": self.trail,
        }


def _divergence_kinds(report: CaseReport) -> set:
    return {d.kind for d in report.divergences}


def _measure(case: ConformanceCase) -> tuple:
    """Strictly-decreasing shrink order: event count first, then receiver
    capacity, then workload complexity.  Every component is a bounded
    non-negative integer, so acceptance-only-on-decrease terminates."""
    return (case.size,
            case.recv_queue_depth + case.rx_buffers,
            sum(m.size for m in case.messages)
            + sum(1 for m in case.messages if m.rpc))


def _drop_message(case: ConformanceCase, index: int) -> ConformanceCase:
    """Delete message ``index``, renumbering fwd fault seqs past the gap.

    Forward seq == message id, so faults aimed beyond the deleted
    message slide down by one; a fault aimed *at* it goes with it.
    Lifecycle events are forward-addressed and renumber the same way.
    Reverse faults are conservatively kept only while still in range.
    """
    messages = case.messages[:index] + case.messages[index + 1:]
    n_replies = sum(1 for m in messages if m.rpc)
    faults = []
    for f in case.faults:
        if f.direction == "fwd":
            if f.seq == index:
                continue
            faults.append(replace(f, seq=f.seq - 1) if f.seq > index else f)
        else:
            if f.seq < n_replies:
                faults.append(f)
    lifecycle = []
    for e in case.lifecycle:
        if e.seq == index:
            continue
        lifecycle.append(replace(e, seq=e.seq - 1) if e.seq > index else e)
    return replace(case, messages=messages, faults=faults,
                   lifecycle=lifecycle)


def _candidates(case: ConformanceCase):
    """Yield (description, candidate) pairs, most aggressive first."""
    # 1. remove whole faults
    for i in range(len(case.faults)):
        faults = case.faults[:i] + case.faults[i + 1:]
        yield (f"remove fault {case.faults[i]}",
               replace(case, faults=faults))
    # 1b. remove lifecycle events (a bare crash or bare restart is
    #     still a valid, meaningful schedule; candidates that change
    #     the divergence kind are rejected like any other)
    for i in range(len(case.lifecycle)):
        lifecycle = case.lifecycle[:i] + case.lifecycle[i + 1:]
        yield (f"remove lifecycle {case.lifecycle[i]}",
               replace(case, lifecycle=lifecycle))
    # 2. shrink the receiver (often lets later passes delete messages:
    #    a tighter receiver reproduces capacity bugs with less traffic)
    # halving before the -1 step: each acceptance restarts the pass, so
    # a timid candidate first would walk wide receivers down one slot
    # per round and eat the whole budget before later passes run
    for depth in sorted({case.recv_queue_depth // 2, case.recv_queue_depth - 1}):
        if 1 <= depth < case.recv_queue_depth:
            yield (f"shrink receive queue depth {case.recv_queue_depth} -> {depth}",
                   replace(case, recv_queue_depth=depth))
    for buffers in sorted({case.rx_buffers // 2, case.rx_buffers - 1}):
        if 1 <= buffers < case.rx_buffers:
            yield (f"shrink receive buffers {case.rx_buffers} -> {buffers}",
                   replace(case, rx_buffers=buffers))
    # 3. truncate the workload tail (halving first, then one by one)
    n = len(case.messages)
    seen = set()
    for keep in (n // 2, n - 1):
        if 0 < keep < n and keep not in seen:
            seen.add(keep)
            trimmed = replace(case, messages=case.messages[:keep])
            n_replies = sum(1 for m in trimmed.messages if m.rpc)
            trimmed.faults = [f for f in trimmed.faults
                              if (f.direction == "fwd" and f.seq < keep)
                              or (f.direction == "rev" and f.seq < n_replies)]
            trimmed.lifecycle = [e for e in trimmed.lifecycle if e.seq < keep]
            yield f"truncate workload to {keep} messages", trimmed
    # 4. delete single messages
    for i in range(len(case.messages)):
        if len(case.messages) > 1:
            yield f"delete message {i}", _drop_message(case, i)
    # 5. simplify messages in place
    for i, m in enumerate(case.messages):
        if m.rpc:
            simpler = replace(case, messages=case.messages[:i]
                              + [Message(size=m.size, rpc=False)]
                              + case.messages[i + 1:])
            n_replies = sum(1 for msg in simpler.messages if msg.rpc)
            simpler.faults = [f for f in simpler.faults
                              if f.direction == "fwd" or f.seq < n_replies]
            yield f"demote rpc {i} to a plain request", simpler
        if m.size > 0:
            smaller = 0 if m.size <= 12 else m.size // 2
            yield (f"shrink message {i} payload {m.size}B -> {smaller}B",
                   replace(case, messages=case.messages[:i]
                           + [Message(size=smaller, rpc=m.rpc)]
                           + case.messages[i + 1:]))


def shrink_case(report: CaseReport,
                substrates: Sequence[str] = SUBSTRATES,
                budget: int = DEFAULT_BUDGET,
                progress: Optional[Callable[[str], None]] = None) -> ShrinkResult:
    """Greedily minimize ``report.case`` while preserving a divergence
    of the same kind (any overlap with the original kinds counts)."""
    target_kinds = _divergence_kinds(report)
    if not target_kinds:
        raise ValueError("nothing to shrink: the report has no divergences")
    result = ShrinkResult(case=report.case, report=report,
                          original_size=report.case.size)

    improved = True
    while improved and result.attempts < budget:
        improved = False
        for description, candidate in _candidates(result.case):
            if result.attempts >= budget:
                break
            if _measure(candidate) >= _measure(result.case):
                continue
            result.attempts += 1
            candidate_report = run_case(candidate, substrates=substrates,
                                        bug=report.bug)
            if _divergence_kinds(candidate_report) & target_kinds:
                result.case = candidate
                result.report = candidate_report
                result.accepted += 1
                result.trail.append(description)
                if progress is not None:
                    progress(f"shrunk to size {candidate.size}: {description}")
                improved = True
                break  # restart candidate generation from the smaller case
    return result


# ---------------------------------------------------------------- artifacts
#: a replayable reproducer for ``repro conformance --replay``
REPRODUCER = Artifact(
    format="repro-conformance-case/1",
    schema={
        "case": dict,
        "bug": (str, None),
        "substrates": [str],
        "divergence_kinds": [str],
        "divergences": [str],
        "original_size": int,
        "shrunk_size": int,
        "attempts": int,
        "trail": [str],
    },
)


def load_artifact(path: str) -> ConformanceCase:
    """Load the case out of a reproducer artifact (or a bare case dict)."""
    return load_artifact_meta(path)["case"]


def load_artifact_meta(path: str) -> dict:
    """The replay contract recorded in an artifact: ``case`` plus the
    ``substrates`` the divergence was observed against and the injected
    ``bug``, if any.  Bare case dicts (no envelope) yield empty meta so
    old artifacts keep replaying on the caller's defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if "case" not in payload:
        return {"case": ConformanceCase.from_dict(payload),
                "substrates": None, "bug": None}
    return {"case": ConformanceCase.from_dict(payload["case"]),
            "substrates": payload.get("substrates"),
            "bug": payload.get("bug")}
