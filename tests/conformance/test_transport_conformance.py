"""Differential conformance of the loss-resilient transport.

The ``sack`` and ``ecn`` presets must run divergence-free across both
simulated substrates (the live substrate has its own suite), and the
two injected transport bugs — the sender-side SACK bitmap off-by-one
and the swallowed congestion echo — must be caught by the sweep and
shrink to replayable artifacts.
"""

import json

import pytest

from repro.conformance import (
    BUGS,
    generate_case,
    load_artifact_meta,
    render_report,
    run_case,
    run_reference,
    REPRODUCER,
    shrink_case,
)

SEEDS = (0, 1, 2, 3)


# ------------------------------------------------------------ clean sweeps
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config", ["sack", "ecn"])
def test_transport_presets_are_divergence_free(seed, config):
    report = run_case(generate_case(seed, config))
    assert report.ok, render_report(report)


def test_ecn_preset_generates_marks_and_the_model_predicts_echoes():
    """At least one seed must actually exercise the mark machinery, or
    the zero-divergence sweep proves nothing about ECN."""
    marked = 0
    for seed in SEEDS:
        case = generate_case(seed, "ecn")
        assert all(f.direction == "fwd" for f in case.faults)
        ref = run_reference(case)
        if ref.ecn_marks:
            marked += 1
            assert ref.ecn_echoes >= 1
            assert ref.ecn_backoffs >= 1
    assert marked >= 2, "the ecn preset generates too few mark faults"


def test_sack_preset_exercises_selective_retransmit():
    """Across the seed set, at least one case must produce holes that
    the reference model repairs selectively (rexmit > 0 with fewer
    retransmissions than a window replay would cost)."""
    exercised = 0
    for seed in SEEDS:
        case = generate_case(seed, "sack")
        ref = run_reference(case)
        if any(f.action == "drop" and f.direction == "fwd"
               for f in case.faults) and ref.rexmit:
            exercised += 1
    assert exercised >= 1


# --------------------------------------------------------------- bug hunts
def _hunt(bug, config, seeds=range(6)):
    for seed in seeds:
        report = run_case(generate_case(seed, config), bug=bug)
        if not report.ok:
            return report
    return None


def test_sack_bitmap_shift_bug_is_caught():
    assert "sack-bitmap-shift" in BUGS
    report = _hunt("sack-bitmap-shift", "sack")
    assert report is not None, "the sweep missed the SACK bitmap bug"
    kinds = {d.kind for d in report.divergences}
    # reading bit i as ack+i starves the true hole of retransmission:
    # the stream wedges (termination) or the scoreboard state diverges
    assert kinds & {"termination", "rexmit", "dispatched"}, kinds


def test_ecn_echo_drop_bug_is_caught():
    assert "ecn-echo-drop" in BUGS
    report = _hunt("ecn-echo-drop", "ecn")
    assert report is not None, "the sweep missed the swallowed-echo bug"
    kinds = {d.kind for d in report.divergences}
    assert kinds & {"ecn-echo", "ecn-backoff", "invariant"}, kinds
    # the online invariant names the contract explicitly
    all_text = "\n".join(str(d) for d in report.divergences)
    assert "ecn" in all_text


def test_transport_bugs_shrink_to_replayable_artifacts(tmp_path):
    # tight budgets: the test pins *replayability* of the artifact, not
    # how far the minimizer gets
    for bug, config, budget in (("sack-bitmap-shift", "sack", 12),
                                ("ecn-echo-drop", "ecn", 45)):
        report = _hunt(bug, config)
        assert report is not None
        result = shrink_case(report, budget=budget)
        assert result.case.size <= report.case.size
        assert result.report.divergences
        path = tmp_path / f"{bug}.json"
        REPRODUCER.write(str(path), result.to_payload())
        meta = load_artifact_meta(str(path))
        assert meta["bug"] == bug
        # the artifact replays: same bug, same substrates, diverges again
        replay = run_case(meta["case"], substrates=tuple(meta["substrates"]),
                          bug=meta["bug"])
        assert not replay.ok
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-conformance-case/1"
        assert payload["divergence_kinds"]


def test_clean_transport_runs_have_no_false_positives():
    """The new diff rules must not fire on conforming runs: replaying
    the shrunk-case *schedules* without the bug stays green."""
    for config in ("sack", "ecn"):
        for seed in range(6):
            report = run_case(generate_case(seed, config))
            assert report.ok, f"{config} seed {seed}:\n{render_report(report)}"
