"""Multi-tenant churn soak: invariants, SLO artifact, committed baseline.

One deterministic reduced-scale run (the ``churn-bench`` scenario the
committed ``BENCH_multitenant.json`` is generated from) is shared by the
invariant tests; the live smoke runs a shrunk schedule on real sockets
and skips cleanly where the OS offers no datagram transport.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.faults.multitenant import (
    MIN_GOLD_BE_RATIO,
    MIN_GOODPUT_RATIO,
    MULTITENANT_ARTIFACT,
    MULTITENANT_SCENARIOS,
    multitenant_payload,
    render_multitenant_table,
    run_multitenant,
)

_REPO_ROOT = Path(__file__).resolve().parents[2]


def _validate_run(run):
    """Schema-check one run through the artifact (a document of runs)."""
    return MULTITENANT_ARTIFACT.validate(
        {"format": MULTITENANT_ARTIFACT.format, "runs": [run]})


@pytest.fixture(scope="module")
def bench():
    return run_multitenant(MULTITENANT_SCENARIOS["churn-bench"], seed=7)


# ------------------------------------------------------------- invariants


def test_churn_bench_satisfies_every_invariant(bench):
    assert bench.completed
    assert bench.violations == []
    assert bench.ok
    assert bench.substrate == "ethernet"
    assert bench.admitted + bench.rejected == bench.tenants == 60


def test_fates_partition_the_population(bench):
    assert sum(bench.fates.values()) == bench.tenants
    assert bench.fates["healthy"] > 0
    assert bench.fates["misbehaved"] > 0
    assert bench.fates["crashed"] > 0
    assert bench.fates["rejected"] == bench.rejected > 0


def test_rejections_only_hit_the_preemptable_class(bench):
    rejected = [row for row in bench.tenant_rows if row["fate"] == "rejected"]
    assert rejected
    assert all(row["qos"] == "best_effort" for row in rejected)
    for host in bench.hosts:
        assert set(host["rejected_by_class"]) <= {"best_effort"}


def test_gold_outruns_best_effort_and_aggregate_holds(bench):
    gold = bench.classes["gold"]["per_tenant_goodput_mbps"]
    be = bench.classes["best_effort"]["per_tenant_goodput_mbps"]
    assert gold >= MIN_GOLD_BE_RATIO * be
    assert bench.aggregate["goodput_ratio"] >= MIN_GOODPUT_RATIO


def test_churn_produces_and_recovers_quarantines(bench):
    assert bench.cluster["coordinated_quarantines"] > 0
    assert bench.cluster["coordinated_releases"] > 0
    # a crashed-then-recovered tenant delivered again and spent time shed
    crashed = [row for row in bench.tenant_rows if row["fate"] == "crashed"]
    assert crashed
    assert all(row["quarantine_us"] >= 0.0 for row in bench.tenant_rows)
    # healthy tenants never paid another tenant's containment
    healthy = [row for row in bench.tenant_rows if row["fate"] == "healthy"]
    assert all(row["quarantine_drops"] == 0 for row in healthy
               if row["qos"] == "gold")


def test_render_table_mentions_every_class(bench):
    table = render_multitenant_table([bench])
    for token in ("churn-bench", "gold", "silver", "best_effort", "ok"):
        assert token in table


def test_recovery_snapshot_covers_every_crashed_tenant(bench):
    rec = bench.recovery
    assert rec["crashed"] == bench.fates["crashed"] > 0
    # the "delivered nothing after restart" invariant means every
    # crashed tenant produced a stall -> first-delivery sample
    assert rec["recovered"] == rec["crashed"]
    assert 0.0 < rec["min_us"] <= rec["mean_us"] <= rec["max_us"]
    assert "recovery" in render_multitenant_table([bench])


# --------------------------------------------------------------- artifact


def test_artifact_round_trip(bench, tmp_path):
    path = tmp_path / "soak.json"
    payload = multitenant_payload([bench])
    MULTITENANT_ARTIFACT.write(str(path), payload)
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["format"] == MULTITENANT_ARTIFACT.format
    assert len(on_disk["runs"]) == 1
    assert MULTITENANT_ARTIFACT.validate(on_disk) == []


def test_validation_catches_schema_drift(bench):
    run = bench.to_payload()
    assert _validate_run(run) == []

    missing = json.loads(json.dumps(run))
    del missing["aggregate"]["goodput_ratio"]
    assert any("goodput_ratio" in e for e in _validate_run(missing))

    wrong_type = json.loads(json.dumps(run))
    wrong_type["tenants"] = "sixty"
    assert any("tenants" in e for e in _validate_run(wrong_type))

    boolean = json.loads(json.dumps(run))
    boolean["duration_us"] = True  # bools are not numbers
    assert any("duration_us" in e for e in _validate_run(boolean))

    unexpected = json.loads(json.dumps(run))
    unexpected["aggregate"]["surprise"] = 1
    assert any("surprise" in e for e in _validate_run(unexpected))

    stale = json.loads(json.dumps(run))
    stale["format"] = "repro-multitenant-soak/0"
    assert any("format" in e for e in _validate_run(stale))


def test_writer_refuses_invalid_payloads(bench, tmp_path):
    broken = dataclasses.replace(bench, seed="not-a-seed")
    with pytest.raises(ValueError):
        MULTITENANT_ARTIFACT.write(str(tmp_path / "bad.json"),
                                   multitenant_payload([broken]))
    assert not (tmp_path / "bad.json").exists()


def test_committed_baseline_artifact_validates():
    path = _REPO_ROOT / "BENCH_multitenant.json"
    assert path.exists(), "BENCH_multitenant.json must be committed at the repo root"
    payload = json.loads(path.read_text())
    assert MULTITENANT_ARTIFACT.validate(payload) == []
    assert payload["runs"], "baseline artifact must contain at least one run"
    for run in payload["runs"]:
        assert run["violations"] == []


# ------------------------------------------------------------- live smoke


def test_live_churn_smoke():
    from repro.live import available_transport_kinds

    if not available_transport_kinds():
        pytest.skip("no live datagram transport available on this machine")
    scenario = dataclasses.replace(
        MULTITENANT_SCENARIOS["churn-live"], name="churn-live-smoke",
        tenants=16, periods=5, crash_downtime_periods=2)
    result = run_multitenant(scenario, seed=7)
    assert result.completed
    assert result.violations == []
    assert result.admitted + result.rejected == 16
    assert _validate_run(result.to_payload()) == []
    # the wall-clock runner's engine events are not simulated ones
    assert result.sim_events == 0


def test_a_send_that_never_succeeds_is_a_termination_violation(monkeypatch):
    """The termination verdict comes from the run: a pacer stuck on a
    send at the end leaves its tenants short of their schedule."""
    from repro.core.api import UserEndpoint

    def never_succeeds(self, channel_id, payload, kick=True):
        yield self.sim.event()  # nothing ever triggers it

    monkeypatch.setattr(UserEndpoint, "send", never_succeeds)
    scenario = dataclasses.replace(
        MULTITENANT_SCENARIOS["churn-bench"], name="stuck-send", tenants=10,
        periods=2, misbehave_frac=0.0, crash_frac=0.0)
    result = run_multitenant(scenario, seed=7)
    assert not result.completed and not result.ok
    assert result.violations[0].startswith(
        f"termination: {result.admitted} admitted tenant(s) sent fewer than 16 ")
