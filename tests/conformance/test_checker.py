"""The differential checker end to end: clean runs agree, bugs are
caught, failing schedules shrink to replayable artifacts."""

import json

import pytest

from repro.conformance import (
    BUGS,
    ConformanceCase,
    Message,
    generate_case,
    load_artifact_meta,
    run_case,
    render_report,
    run_substrate,
    REPRODUCER,
    shrink_case,
)
from repro.faults.scripted import ScheduledFault

# ------------------------------------------------------------- clean sweeps
@pytest.mark.parametrize("config", ["fixed", "adaptive", "credit"])
def test_seed_zero_is_divergence_free(config):
    report = run_case(generate_case(0, config))
    assert report.ok, render_report(report)


def test_faulty_schedule_still_conforms():
    # a schedule with every action type, both directions
    case = ConformanceCase(
        seed=5, config_name="fixed",
        messages=[Message(40), Message(64, rpc=True), Message(0), Message(200)],
        faults=[ScheduledFault("fwd", 0, 0, "drop"),
                ScheduledFault("fwd", 2, 0, "dup"),
                ScheduledFault("fwd", 3, 0, "delay", delay_us=250.0),
                ScheduledFault("rev", 0, 0, "drop")])
    report = run_case(case)
    assert report.ok, render_report(report)
    for trace in report.traces.values():
        assert trace.rexmit >= 2  # both drops forced recovery
        assert trace.fired_keys(0) == report.ref.fired_keys(0)


def test_substrate_run_is_reproducible():
    case = generate_case(4, "adaptive")
    a = run_substrate(case, "ethernet")
    b = run_substrate(case, "ethernet")
    assert a.dispatched == b.dispatched
    assert a.rexmit == b.rexmit
    assert a.completion_time_us == b.completion_time_us


# ------------------------------------------------------------ bug detection
def test_credit_gate_bug_is_caught():
    case = generate_case(2, "credit")
    report = run_case(case, bug="credit-gate")
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    assert "invariant:credit-gate" in kinds, render_report(report)
    # both substrates catch it: the invariant is substrate-independent
    assert {d.substrate for d in report.divergences} >= {"atm", "ethernet"}


def test_ack_horizon_bug_is_caught():
    case = ConformanceCase(
        seed=99, config_name="fixed",
        messages=[Message(40)] * 3,
        faults=[ScheduledFault("fwd", 1, 0, "drop")],
        time_limit_us=2_000_000.0)
    report = run_case(case, bug="ack-horizon")
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    assert "dispatch-order" in kinds or "termination" in kinds, render_report(report)


def test_bugs_do_not_leak_out_of_the_context():
    from repro.am import AmEndpoint
    from repro.conformance.checker import inject_bug

    original = AmEndpoint._credit_blocked
    with inject_bug("credit-gate"):
        assert AmEndpoint._credit_blocked is not original
    assert AmEndpoint._credit_blocked is original
    with pytest.raises(ValueError):
        with inject_bug("nonesuch"):
            pass  # pragma: no cover


def test_clean_run_passes_with_no_bug_installed():
    # the bug-detection case from above must be conformant un-bugged
    case = ConformanceCase(
        seed=99, config_name="fixed",
        messages=[Message(40)] * 3,
        faults=[ScheduledFault("fwd", 1, 0, "drop")],
        time_limit_us=2_000_000.0)
    report = run_case(case)
    assert report.ok, render_report(report)


# ------------------------------------------------------- shrinking + replay
def test_shrinker_minimizes_the_credit_bug_to_a_tiny_case(tmp_path):
    case = generate_case(2, "credit")
    report = run_case(case, bug="credit-gate")
    assert not report.ok
    result = shrink_case(report, budget=120)
    assert result.case.size <= 5, result.trail
    assert "invariant:credit-gate" in result.kinds
    assert result.case.size < result.original_size

    path = tmp_path / "repro.json"
    REPRODUCER.write(str(path), result.to_payload())
    payload = json.loads(path.read_text())
    assert payload["format"] == "repro-conformance-case/1"
    assert payload["shrunk_size"] == result.case.size

    # the artifact replays to the same divergence kind
    replayed = load_artifact_meta(str(path))["case"]
    assert replayed.to_dict() == result.case.to_dict()
    re_report = run_case(replayed, bug="credit-gate")
    assert "invariant:credit-gate" in {d.kind for d in re_report.divergences}
    # ... and is conformant once the bug is fixed (removed)
    assert run_case(replayed).ok


def test_shrinker_refuses_a_passing_report():
    report = run_case(generate_case(0, "fixed"))
    with pytest.raises(ValueError):
        shrink_case(report)


def test_render_report_includes_divergence_context():
    case = generate_case(2, "credit")
    report = run_case(case, bug="credit-gate")
    text = render_report(report)
    assert "credit-gate" in text
    assert "verdict:" in text
    assert "last observable events" in text


# --------------------------------------------------------------- registry
def test_every_registered_bug_names_its_configs():
    for name, spec in BUGS.items():
        assert spec["description"]
        assert spec["patches"]
        assert spec["configs"]
