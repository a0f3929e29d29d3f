"""Ablation: adaptive reliability vs the fixed-RTO baseline under chaos.

The paper's design point is a lean substrate with reliability above it
(Section 3.1: U-Net has "no retransmission or flow control"); this
ablation quantifies what the Active Messages layer gains from replacing
the original fixed 4 ms retransmit timer and static window with
estimated RTOs (Jacobson/Karels + Karn), AIMD window adaptation, and
duplicate-ack fast retransmit, across the chaos soak scenarios.
"""

import pytest

from repro.analysis import format_table
from repro.faults import SCENARIOS, wins
from repro.faults.soak import SUITE

SOAK_SCENARIOS = ("bursty", "reorder", "flap", "combined")


@pytest.fixture(scope="module")
def results():
    return [r for name in SOAK_SCENARIOS for r in SUITE.grid(SCENARIOS[name])]


def test_reliability_ablation_table(results, emit):
    rows = []
    by_key = {(r.scenario, r.mode): r for r in results}
    for name in SOAK_SCENARIOS:
        fixed = by_key[(name, "fixed")]
        adaptive = by_key[(name, "adaptive")]
        rows.append([
            name,
            fixed.completion_time_us / 1000.0,
            adaptive.completion_time_us / 1000.0,
            fixed.completion_time_us / adaptive.completion_time_us,
            fixed.retransmissions,
            adaptive.retransmissions,
        ])
    emit(format_table(
        ("scenario", "fixed_ms", "adaptive_ms", "speedup", "fixed_rexmit", "adaptive_rexmit"),
        rows,
        title="Ablation - adaptive reliability vs fixed 4 ms RTO under chaos",
    ))


def test_invariants_hold_in_every_mode(results):
    for r in results:
        assert r.ok, f"{r.scenario} [{r.mode}]: {r.violations}"


def test_adaptive_wins_each_scenario(results):
    by_key = {(r.scenario, r.mode): r for r in results}
    for name in SOAK_SCENARIOS:
        won = wins(by_key[(name, "fixed")], by_key[(name, "adaptive")])
        assert won, f"adaptive stack improved no robustness metric under {name}"


def test_adaptive_recovers_much_faster_overall(results):
    fixed_total = sum(r.completion_time_us for r in results if r.mode == "fixed")
    adaptive_total = sum(r.completion_time_us for r in results if r.mode == "adaptive")
    assert adaptive_total < 0.5 * fixed_total
