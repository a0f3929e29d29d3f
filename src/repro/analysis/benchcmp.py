"""Benchmark snapshot comparison: catch regressions before they land.

``python -m repro bench --compare BASELINE.json CANDIDATE.json`` diffs
two BENCH snapshots and exits nonzero when any *headline* metric
regressed by more than the threshold (15% by default).  Which metrics
are headlines is the artifact's own business: the comparison looks the
snapshot's ``format`` up among the declared artifacts
(:func:`repro.suite.artifacts`) and asks that
:class:`~repro.artifact.Artifact` — this module knows no format.  A file
that is not JSON, or whose ``format`` no artifact declares headlines
for, is a usage error: one line naming the file and the known formats,
exit 2.

Direction matters: latency regresses *up*, goodput regresses *down*.
Improvements of any size and regressions inside the threshold are
reported but never fail the comparison — wall-clock numbers wobble,
and the threshold is the contract for how much wobble CI tolerates.
A simulated snapshot is deterministic, so any drift there is a real
behaviour change; CI gates those with ``diff``, and this comparison,
run first, is the human-readable explanation of what moved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Tuple

from ..artifact import Headline

__all__ = [
    "DEFAULT_THRESHOLD",
    "MetricDelta",
    "SnapshotError",
    "headline_metrics",
    "compare_bench",
    "compare_bench_files",
    "render_compare",
]

#: a headline metric may drift this fraction in the bad direction
#: before the comparison fails
DEFAULT_THRESHOLD = 0.15


@dataclass
class MetricDelta:
    """One headline metric, baseline vs candidate."""

    name: str
    #: ``"higher"`` or ``"lower"`` — which direction is better
    better: str
    baseline: float
    candidate: float

    @property
    def change_frac(self) -> float:
        """Signed relative change, positive = moved in the bad direction."""
        if self.baseline == 0.0:
            return 0.0 if self.candidate == 0.0 else float("inf")
        drift = (self.candidate - self.baseline) / abs(self.baseline)
        return (drift if self.better == "lower" else -drift) + 0.0  # no -0.0

    def regressed(self, threshold: float = DEFAULT_THRESHOLD) -> bool:
        return self.change_frac > threshold


class SnapshotError(ValueError):
    """A file given to ``bench --compare`` is not a snapshot it can compare."""


def _comparable() -> dict:
    """``format`` -> headline extractor, for every artifact declaring one."""
    from ..suite import artifacts

    return {a.format: a.headlines for a in artifacts() if a.headlines}


def headline_metrics(payload: dict) -> List[Headline]:
    """``(name, better-direction, value)`` triples for one snapshot."""
    comparable = _comparable()
    fmt = payload.get("format")
    if fmt not in comparable:
        raise ValueError(f"no headline metrics defined for format {fmt!r}; "
                         f"known: {sorted(comparable)}")
    return comparable[fmt](payload)


def compare_bench(baseline: dict, candidate: dict,
                  threshold: float = DEFAULT_THRESHOLD,
                  ) -> Tuple[List[MetricDelta], List[str]]:
    """Diff two snapshots; returns (all deltas, fatal problems).

    Problems cover format mismatches and headline metrics present on
    one side only — a silently vanished metric must not read as "no
    regression"."""
    problems: List[str] = []
    if baseline.get("format") != candidate.get("format"):
        problems.append(f"format mismatch: baseline {baseline.get('format')!r} "
                        f"vs candidate {candidate.get('format')!r}")
        return [], problems
    base = {name: (better, value)
            for name, better, value in headline_metrics(baseline)}
    cand = {name: (better, value)
            for name, better, value in headline_metrics(candidate)}
    deltas: List[MetricDelta] = []
    for name, (better, value) in base.items():
        if name not in cand:
            problems.append(f"{name}: present in baseline, missing in candidate")
            continue
        deltas.append(MetricDelta(name=name, better=better,
                                  baseline=value, candidate=cand[name][1]))
    for name in cand:
        if name not in base:
            problems.append(f"{name}: new in candidate, absent in baseline")
    problems.extend(f"{d.name}: regressed {d.change_frac * 100.0:+.1f}% "
                    f"({d.baseline:.2f} -> {d.candidate:.2f}, "
                    f"{d.better} is better, threshold {threshold * 100.0:.0f}%)"
                    for d in deltas if d.regressed(threshold))
    return deltas, problems


def _load_snapshot(path: str) -> dict:
    """The snapshot at ``path``; a one-line :class:`SnapshotError` naming
    the file when it cannot be read, is not JSON, or carries a ``format``
    no artifact declares headlines for."""
    known = sorted(_comparable())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        raise SnapshotError(f"{path}: not a readable JSON snapshot ({exc}); "
                            f"known formats: {known}") from None
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt not in known:
        raise SnapshotError(f"{path}: unknown snapshot format {fmt!r}; "
                            f"known formats: {known}")
    return payload


def compare_bench_files(baseline_path: str, candidate_path: str,
                        threshold: float = DEFAULT_THRESHOLD,
                        ) -> Tuple[List[MetricDelta], List[str]]:
    """File-level entry point used by ``bench --compare``."""
    return compare_bench(_load_snapshot(baseline_path),
                         _load_snapshot(candidate_path), threshold=threshold)


def render_compare(deltas: List[MetricDelta], problems: List[str],
                   threshold: float = DEFAULT_THRESHOLD) -> str:
    """Terminal report: every headline metric, worst drift first."""
    from .report import format_table

    rows = []
    for d in sorted(deltas, key=lambda d: -d.change_frac):
        drift = d.change_frac
        verdict = ("REGRESSED" if d.regressed(threshold)
                   else "ok" if drift <= 0.0 else "drift")
        rows.append([d.name, f"{d.baseline:.2f}", f"{d.candidate:.2f}",
                     "inf" if drift == float("inf") else f"{drift * 100.0:+.1f}%",
                     verdict])
    lines = [format_table(
        ("metric", "baseline", "candidate", "bad-drift", "verdict"),
        rows,
        title=f"Benchmark comparison (threshold {threshold * 100.0:.0f}%)")]
    for problem in problems:
        lines.append(f"  !! {problem}")
    if not problems:
        lines.append(f"  no headline metric regressed beyond "
                     f"{threshold * 100.0:.0f}%")
    return "\n".join(lines)
