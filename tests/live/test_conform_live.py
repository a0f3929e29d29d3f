"""Conformance on the live substrate: same workload, same faults, real time."""

import json

import pytest

from repro.conformance import BUGS, generate_case, inject_bug, load_artifact_meta, run_case
from repro.core.substrates import (
    SubstrateUnavailable,
    available_substrates,
    ensure_available,
    get_substrate,
    register_substrate,
    substrate_names,
)
from repro.faults.scripted import DatagramScriptedStage, ScheduledFault
from repro.live import FRAME_HEADER_SIZE, run_live_case

from .conftest import require

pytestmark = require("unix")


def test_live_case_matches_the_simulated_substrates():
    case = generate_case(0, "fixed", n_messages=4)
    report = run_case(case, substrates=("atm", "ethernet", "live-unix"))
    assert report.ok, "\n".join(str(d) for d in report.divergences)
    assert set(report.substrates) == {"atm", "ethernet", "live-unix"}


def test_live_trace_has_the_semantic_observables():
    case = generate_case(1, "fixed", n_messages=3)
    trace = run_live_case(case, "unix")
    assert trace.completed
    assert len(trace.dispatched) == 3
    assert not trace.violations


def test_scripted_fault_schedule_fires_on_the_live_wire():
    """A content-addressed drop must hit the live framing layer and be
    recovered by go-back-N: the fired log shows the hit, the snapshot
    the retransmission."""
    case = generate_case(3, "fixed", n_messages=4)
    case.faults = [ScheduledFault(direction="fwd", seq=1, occurrence=0,
                                  action="drop")]
    trace = run_live_case(case, "unix")
    assert trace.completed
    assert [f.action for f in trace.fired] == ["drop"]
    assert trace.rexmit >= 1
    assert len(trace.dispatched) == 4  # the drop was recovered, in order
    assert list(trace.dispatched) == sorted(trace.dispatched)


def test_injected_credit_gate_bug_is_caught_on_live():
    """The acceptance bar: the classic off-by-one in the credit gate
    must not survive a wall-clock execution (seed 2 engages the credit
    machinery deterministically enough to catch it)."""
    case = generate_case(2, "credit")
    report = run_case(case, substrates=("live-unix",), bug="credit-gate")
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    assert "credit-gate" in kinds or "invariant" in kinds or kinds


def test_the_one_bug_registry_reaches_the_live_driver():
    """Bugs patch the protocol core's seams, so the live driver sees
    every registered AM bug without a patch table of its own."""
    from repro.am import AmEndpoint
    from repro.live import LiveAm

    for name, entry in BUGS.items():
        for seam, broken in entry["patches"].items():
            assert seam not in vars(LiveAm) and seam not in vars(AmEndpoint), (
                f"a driver overrides seam {seam}: bug {name} cannot reach it")
            original = getattr(LiveAm, seam)
            with inject_bug(name):
                assert getattr(LiveAm, seam) is broken
                assert getattr(AmEndpoint, seam) is broken
            assert getattr(LiveAm, seam) is original
    with pytest.raises(ValueError):
        with inject_bug("no-such-bug"):
            pass


def test_datagram_stage_peeks_past_the_frame_header():
    from repro.am.protocol import Packet, TYPE_REQUEST, encode

    wire = bytes(FRAME_HEADER_SIZE) + encode(
        Packet(type=TYPE_REQUEST, handler=1, seq=0, ack=0))
    stage = DatagramScriptedStage(
        [ScheduledFault(direction="fwd", seq=0, occurrence=0, action="drop")],
        header_size=FRAME_HEADER_SIZE)
    out = []
    stage.process(wire, 0.0, lambda pdu, delay=0.0: out.append(pdu))
    assert out == [] and len(stage.fired) == 1
    # second transmission of seq 0 (occurrence 1) passes through
    stage.process(wire, 0.0, lambda pdu, delay=0.0: out.append(pdu))
    assert out == [wire]


# ------------------------------------------------------------ the registry
def test_substrate_registry_knows_the_live_substrates():
    names = substrate_names()
    for name in ("atm", "ethernet", "live", "live-unix", "live-udp"):
        assert name in names
    assert get_substrate("live-unix").relaxed_timing
    assert not get_substrate("atm").relaxed_timing
    assert "live-unix" in available_substrates()
    ensure_available("live-unix")  # must not raise here


def test_unavailable_substrate_fails_loudly():
    register_substrate("test-offline", lambda case, bug=None: None,
                       available=lambda: False,
                       description="a substrate this machine cannot run")
    try:
        with pytest.raises(SubstrateUnavailable):
            ensure_available("test-offline")
        with pytest.raises(ValueError):
            get_substrate("never-registered")
    finally:
        from repro.core import substrates as _mod

        _mod._REGISTRY.pop("test-offline", None)


def test_replay_artifacts_record_their_substrate_set(tmp_path):
    """The loud-replay fix: artifacts carry the substrates the
    divergence was observed against; bare case dicts stay replayable."""
    case = generate_case(0, "fixed", n_messages=3)
    envelope = {
        "format": "repro-conformance-case/1",
        "case": case.to_dict(),
        "substrates": ["atm", "live-unix"],
        "bug": "credit-gate",
    }
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(envelope))
    meta = load_artifact_meta(str(path))
    assert meta["substrates"] == ["atm", "live-unix"]
    assert meta["bug"] == "credit-gate"
    assert meta["case"].size == case.size

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(case.to_dict()))
    meta = load_artifact_meta(str(bare))
    assert meta["substrates"] is None and meta["bug"] is None


def test_shrunk_artifacts_embed_the_substrate_set(tmp_path):
    """The reproducer must persist report.substrates end to end."""
    from repro.conformance import REPRODUCER
    from repro.conformance.shrink import ShrinkResult

    case = generate_case(4, "fixed", n_messages=3)
    report = run_case(case, substrates=("atm", "ethernet"))
    result = ShrinkResult(case=case, report=report, original_size=case.size)
    path = tmp_path / "shrunk.json"
    REPRODUCER.write(str(path), result.to_payload())
    payload = json.loads(path.read_text())
    assert payload["substrates"] == ["atm", "ethernet"]
