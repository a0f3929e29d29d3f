"""Crash schedules through the differential checker: clean sweeps agree,
the epoch-fence and replay-horizon bugs are caught, and a failing crash
schedule shrinks to a replayable artifact."""

import json

import pytest

from repro.conformance import (
    ConformanceCase,
    generate_case,
    load_artifact,
    render_report,
    run_case,
    REPRODUCER,
    shrink_case,
)

# seed 1's crash lands mid-stream (crash seq > 0).  A crash on the very
# first send is the one schedule where replaying the head is
# observationally safe (it was provably never dispatched), so the
# replay-horizon detection tests must avoid seed 0.
MIDSTREAM_SEED = 1


# ------------------------------------------------------------ clean sweeps
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_crash_cases_are_divergence_free(seed):
    report = run_case(generate_case(seed, "crash"))
    assert report.ok, render_report(report)


def test_crash_case_shape_and_round_trip():
    case = generate_case(MIDSTREAM_SEED, "crash")
    assert case.has_crash
    assert len(case.lifecycle) == 2  # one crash, one restart
    kinds = [e.kind for e in case.lifecycle]
    assert kinds == ["crash", "restart"]
    assert all(not m.rpc for m in case.messages)
    assert case.am_config(receiver=False).recovery
    restored = ConformanceCase.from_dict(case.to_dict())
    assert restored.to_dict() == case.to_dict()
    assert restored.lifecycle == case.lifecycle


def test_healthy_crash_run_fences_stale_traffic():
    """The restart is triggered by a retransmission stamped with the dead
    incarnation's epoch: every healthy crash run shows the fence working."""
    report = run_case(generate_case(MIDSTREAM_SEED, "crash"))
    assert report.ok, render_report(report)
    for name, trace in report.traces.items():
        assert trace.drop_classes.get("stale_epoch_drops", 0) >= 1, name


# ----------------------------------------------------------- bug detection
def test_epoch_fence_bug_is_caught():
    report = run_case(generate_case(MIDSTREAM_SEED, "crash"),
                      bug="epoch-fence")
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    assert "stale-fence" in kinds, render_report(report)


def test_replay_horizon_bug_is_caught():
    report = run_case(generate_case(MIDSTREAM_SEED, "crash"),
                      bug="replay-horizon")
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    # replaying the dead incarnation's numbering into the fresh one makes
    # no ack progress: the run cannot terminate cleanly
    assert "termination" in kinds, render_report(report)


def test_crash_bugs_are_clean_on_crash_free_configs():
    # the epoch machinery is inert without a crash schedule: the bug
    # patches must not perturb a plain fixed-config run
    for bug in ("epoch-fence", "replay-horizon"):
        report = run_case(generate_case(0, "fixed"), bug=bug)
        assert report.ok, render_report(report)


# ----------------------------------------------------- shrinking + replay
def test_shrinker_minimizes_a_crash_schedule(tmp_path):
    case = generate_case(MIDSTREAM_SEED, "crash")
    report = run_case(case, bug="epoch-fence")
    assert not report.ok
    result = shrink_case(report, budget=80)
    assert "stale-fence" in result.kinds
    assert result.case.size < result.original_size
    assert result.case.size <= 4, result.trail
    # the crash schedule IS the trigger: shrinking must not delete it
    assert any(e.kind == "crash" for e in result.case.lifecycle)

    path = tmp_path / "crash-repro.json"
    REPRODUCER.write(str(path), result.to_payload())
    payload = json.loads(path.read_text())
    assert payload["format"] == "repro-conformance-case/1"
    assert "stale-fence" in payload["divergence_kinds"]

    replayed = load_artifact(str(path))
    assert replayed.to_dict() == result.case.to_dict()
    re_report = run_case(replayed, bug="epoch-fence")
    assert "stale-fence" in {d.kind for d in re_report.divergences}
    assert run_case(replayed).ok  # conformant once the bug is removed
