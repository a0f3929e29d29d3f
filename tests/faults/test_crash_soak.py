"""The kill/restart soak suite, reduced to test size (simulated runs)."""

import dataclasses
import json
import re

import pytest

from repro.faults.crashsoak import (
    CRASH_ARTIFACT,
    CRASH_SCENARIOS,
    SUITE,
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


def test_crash_table_rows_line_up_with_the_header():
    """The name columns are as wide as the widest name: ``sigkill-udp``
    (11) and ``live-batched`` (12) used to push their rows one or two
    columns right of a 10-wide substrate header."""
    result = run_crash_scenario(_reduced("atm-kill", messages=12, crashes=1))
    rows = [dataclasses.replace(result, substrate=substrate, scenario=scenario)
            for scenario, substrate in (("atm-kill", "atm"), ("sigkill", "sigkill-udp"),
                                        ("live-kill", "live-batched"))]
    header, _rule, *lines = render_crash_table(rows).splitlines()[:5]
    spans = [m.span() for m in re.finditer(r"\S+", header)]
    for line in lines:
        fields = [m.span() for m in re.finditer(r"\S+", line)]
        assert len(fields) == len(spans), line
        # scenario and substrate are left-aligned, the numbers right-aligned
        assert [f[0] for f in fields[:2]] == [s[0] for s in spans[:2]], (header, line)
        assert [f[1] for f in fields[2:]] == [s[1] for s in spans[2:]], (header, line)


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


@pytest.mark.parametrize("name", ["live-kill", "sigkill"])
def test_wall_clock_scenarios_skip_without_a_transport(name, monkeypatch):
    """A host with no live transport skips both wall-clock scenarios,
    with one progress line each, instead of dying in the rig."""
    monkeypatch.setattr("repro.live.transport.transport_available", lambda kind: False)
    lines = []
    assert SUITE.grid(CRASH_SCENARIOS[name], progress=lines.append) == []
    assert lines == [f"{name}...", f"{name}: skipped (no live transport on this machine)"]
