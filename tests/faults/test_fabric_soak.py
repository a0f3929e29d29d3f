"""The fabric fault-tolerance soak: scenarios, artifact, compare gate."""

import json

import pytest

from repro.analysis.benchcmp import compare_bench, headline_metrics
from repro.faults import (
    FABRIC_ARTIFACT,
    FABRIC_SCENARIOS,
    FabricScenario,
    run_fabric_scenario,
)
from repro.faults.fabric import SpineFailure
from repro.faults.fabricsoak import fabric_payload

SEED = 1234


@pytest.fixture(scope="module")
def small_spine_kill():
    scenario = FabricScenario(
        "mini-spine", "small spine-kill for the unit layer",
        fabric="atm-clos", leaves=2, spines=2, hosts_per_leaf=2,
        rounds=3, stages=lambda: [SpineFailure(spine=0, at_us=40.0)])
    return run_fabric_scenario(scenario, seed=SEED)


def test_spine_kill_completes_exactly_with_reroutes(small_spine_kill):
    r = small_spine_kill
    assert r.ok, r.violations
    assert r.rounds_completed == 3
    assert r.reroutes >= 1          # VCs moved off the dead spine
    assert r.heals == 0 and r.epoch == 0  # transparent: no heal needed
    assert r.aborts == 0
    assert r.fault_final_us > 0.0
    assert r.recovery_us > 0.0


def test_node_crash_scenario_heals_and_measures_recovery():
    r = run_fabric_scenario(FABRIC_SCENARIOS["node-crash"], seed=SEED)
    assert r.ok, r.violations
    assert r.heals == 1
    assert r.epoch >= 1
    assert r.recovery_us > 0.0
    # the healed-round latency is part of the recovery story
    assert r.post_recovery_mean_us > 0.0


def test_fabric_soak_is_deterministic(small_spine_kill):
    again = run_fabric_scenario(
        FabricScenario(
            "mini-spine", "small spine-kill for the unit layer",
            fabric="atm-clos", leaves=2, spines=2, hosts_per_leaf=2,
            rounds=3, stages=lambda: [SpineFailure(spine=0, at_us=40.0)]),
        seed=SEED)
    assert again.to_row() == small_spine_kill.to_row()


def test_unknown_fabric_is_rejected():
    with pytest.raises(ValueError):
        run_fabric_scenario(FabricScenario(
            "bad", "bad", fabric="token-ring", leaves=2, spines=2,
            hosts_per_leaf=2))


def test_artifact_roundtrip_and_schema_drift(tmp_path, small_spine_kill):
    path = tmp_path / "BENCH_fabric.json"
    payload = fabric_payload([small_spine_kill], seed=SEED)
    FABRIC_ARTIFACT.write(str(path), payload)
    assert json.loads(path.read_text()) == payload
    row = payload["scenarios"][0]["row"]
    assert row["violations"] == 0
    # drift in either direction is rejected
    missing = json.loads(json.dumps(payload))
    del missing["scenarios"][0]["row"]["recovery_us"]
    assert any("recovery_us" in e for e in FABRIC_ARTIFACT.validate(missing))
    extra = json.loads(json.dumps(payload))
    extra["scenarios"][0]["row"]["surprise"] = 1
    assert any("unexpected" in e for e in FABRIC_ARTIFACT.validate(extra))
    wrong = json.loads(json.dumps(payload))
    wrong["format"] = "repro-bench-live/1"
    assert FABRIC_ARTIFACT.validate(wrong)


def test_bench_compare_gates_recovery_regressions(small_spine_kill):
    payload = fabric_payload([small_spine_kill], seed=SEED)
    metrics = dict((name, (better, value))
                   for name, better, value in headline_metrics(payload))
    assert metrics["mini-spine.recovery_us"][0] == "lower"
    assert "mini-spine.post_recovery_mean_us" in metrics
    same = json.loads(json.dumps(payload))
    deltas, problems = compare_bench(payload, same, threshold=0.01)
    assert problems == []
    worse = json.loads(json.dumps(payload))
    worse["scenarios"][0]["row"]["recovery_us"] *= 1.5
    _, problems = compare_bench(payload, worse, threshold=0.01)
    assert any("recovery_us" in p and "regressed" in p for p in problems)
