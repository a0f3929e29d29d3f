"""Ablation: adaptive reliability vs the fixed-RTO baseline under chaos.

The paper's design point is a lean substrate with reliability above it
(Section 3.1: U-Net has "no retransmission or flow control"); this
ablation quantifies what the Active Messages layer gains from replacing
the original fixed 4 ms retransmit timer and static window with
estimated RTOs (Jacobson/Karels + Karn), AIMD window adaptation, and
duplicate-ack fast retransmit, across the chaos soak scenarios.

One seed is one draw of the fault pattern, so the claim is also
measured over seeds 1-10: per scenario, the seeds on which the adaptive
stack improved some robustness metric (reported, not asserted) and the
minimum and median fixed/adaptive completion-time ratio (the median
must exceed 1).
"""

import statistics

import pytest

from repro.analysis import format_table
from repro.faults import SCENARIOS, wins
from repro.faults.soak import SUITE

SOAK_SCENARIOS = ("bursty", "reorder", "flap", "combined")
SEEDS = range(1, 11)


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
            fixed.elapsed_us / 1000.0,
            adaptive.elapsed_us / 1000.0,
            fixed.elapsed_us / adaptive.elapsed_us,
            fixed.rexmit,
            adaptive.rexmit,
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
    fixed_total = sum(r.elapsed_us for r in results if r.mode == "fixed")
    adaptive_total = sum(r.elapsed_us for r in results if r.mode == "adaptive")
    assert adaptive_total < 0.5 * fixed_total


@pytest.fixture(scope="module")
def seed_band():
    """scenario -> one (fixed, adaptive) pair per seed."""
    band = {}
    for name in SOAK_SCENARIOS:
        runs = [{r.mode: r for r in SUITE.grid(SCENARIOS[name], seed=seed)}
                for seed in SEEDS]
        band[name] = [(by_mode["fixed"], by_mode["adaptive"]) for by_mode in runs]
    return band


def test_adaptive_speedup_over_seeds(seed_band, emit):
    rows = []
    for name in SOAK_SCENARIOS:
        pairs = seed_band[name]
        ratios = [fixed.elapsed_us / adaptive.elapsed_us for fixed, adaptive in pairs]
        won = sum(1 for fixed, adaptive in pairs if wins(fixed, adaptive))
        rows.append([name, f"{won}/{len(pairs)}", min(ratios), statistics.median(ratios)])
    emit(format_table(
        ("scenario", "seeds_won", "min_speedup", "median_speedup"),
        rows,
        title=f"Ablation - adaptive vs fixed over seeds {SEEDS[0]}-{SEEDS[-1]}",
    ))
    for name, _won, _low, median in rows:
        assert median > 1.0, f"adaptive is not faster in the median under {name}"
