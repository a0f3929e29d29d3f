"""The kill/restart soak suite, reduced to test size (simulated runs)."""

import dataclasses
import json

import pytest

from repro.faults.crashsoak import (
    CRASH_ARTIFACT,
    CRASH_SCENARIOS,
    crash_payload,
    render_crash_table,
    run_crash_scenario,
)


def _reduced(name, **overrides):
    base = dict(messages=16, crashes=2)
    base.update(overrides)
    return dataclasses.replace(CRASH_SCENARIOS[name], **base)


def test_registry_names_match_scenarios():
    assert set(CRASH_SCENARIOS) == {"atm-kill", "fe-kill", "live-kill", "sigkill"}
    for name, scenario in CRASH_SCENARIOS.items():
        assert scenario.name == name
        targets = scenario.crash_targets()
        assert len(targets) == scenario.crashes
        assert all(0 < t < scenario.messages for t in targets)
        assert targets == sorted(targets)


@pytest.mark.parametrize("name", ["atm-kill", "fe-kill"])
def test_sim_kill_scenario_contract(name):
    result = run_crash_scenario(_reduced(name))
    assert result.ok, result.violations
    assert result.sent == 16
    assert result.duplicated == 0          # at-most-once, always
    assert result.restarts == 2
    assert len(result.recovery_times_us) == 2
    assert all(t > 0 for t in result.recovery_times_us)
    # every message has a fate; ambiguous (delivered AND abandoned
    # counts both ways) is legal, unaccounted is not
    assert result.delivered + result.abandoned >= result.sent


def test_seed_reproducibility():
    scenario = _reduced("fe-kill")
    a = run_crash_scenario(scenario)
    b = run_crash_scenario(scenario)
    assert a.to_dict() == b.to_dict()


def test_crash_report_artifact_round_trip(tmp_path):
    result = run_crash_scenario(_reduced("fe-kill", messages=12, crashes=1))
    path = tmp_path / "crash-soak.json"
    CRASH_ARTIFACT.write(str(path), crash_payload([result]))
    payload = json.loads(path.read_text())
    assert payload["format"] == "repro-crash-soak/1"
    assert payload["ok"] == result.ok
    [entry] = payload["results"]
    assert entry["scenario"] == "fe-kill"
    assert entry["fates"] == {"sent": result.sent,
                              "delivered": result.delivered,
                              "duplicated": result.duplicated,
                              "abandoned": result.abandoned}
    assert entry["restarts"] == 1
    assert entry["mean_recovery_us"] == result.mean_recovery_us
    # the suite-wide recovery snapshot pools every restart's sample
    rec = payload["recovery"]
    assert rec["restarts"] == len(result.recovery_times_us) == 1
    assert rec["min_us"] <= rec["mean_us"] <= rec["max_us"]
    assert rec["mean_us"] == result.mean_recovery_us


def test_render_crash_table():
    result = run_crash_scenario(_reduced("atm-kill", messages=12, crashes=1))
    table = render_crash_table([result])
    assert "atm-kill" in table
    assert "atm" in table
    assert "recovery(ms)" in table
    assert "recovery mean" in table


@pytest.mark.parametrize("name", ["atm-kill", "fe-kill"])
def test_kills_arm_on_stream_progress_not_dispatches(name):
    """Every kill abandons up to a window of admitted sends that are
    never dispatched, so a trigger counting dispatches cannot reach a
    late target on a short stream (any ``--messages`` <= 28 spun to the
    time limit); counting fated messages (dispatched or abandoned) can."""
    result = run_crash_scenario(
        dataclasses.replace(CRASH_SCENARIOS[name], messages=24))
    assert result.ok, result.violations
    assert result.restarts == 3
