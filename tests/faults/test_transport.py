"""The transport ablation suite: gbn vs sack vs ecn, pinned.

The headline claim of the loss-resilient transport — SACK goodput
strictly better than go-back-N under Gilbert-Elliott bursty loss — is
pinned here as a hard ratio (>= 1.5x; the observed margin is far
larger), alongside the ECN incast claims: the marking queue produces
marks only the ecn endpoints act on, backoffs happen, and ECN suffers
fewer bottleneck drops than the loss-feedback baselines.  The suite's
JSON artifact is schema-validated and byte-deterministic, which is
what lets CI regenerate and diff ``BENCH_transport.json``.
"""

import json

import pytest

from repro.faults.stream import run_stream
from repro.faults.transport import (
    TRANSPORT_ARTIFACT,
    TRANSPORT_MODES,
    TRANSPORT_SCENARIOS,
    render_transport_table,
    transport_payload,
    transport_row,
)

SEED = 0xC0FFEE


def _run(name, mode):
    return run_stream(TRANSPORT_SCENARIOS[name], mode, TRANSPORT_MODES[mode](), SEED)


@pytest.fixture(scope="module")
def ge_results():
    return {mode: _run("ge-bursty", mode) for mode in ("gbn", "sack")}


@pytest.fixture(scope="module")
def incast_results():
    return {mode: _run("incast-bottleneck", mode)
            for mode in TRANSPORT_MODES}


def test_all_modes_keep_the_delivery_invariants(ge_results, incast_results):
    for r in list(ge_results.values()) + list(incast_results.values()):
        assert r.ok, (r.scenario, r.mode, r.violations)
        assert r.delivered == r.messages


def test_sack_goodput_beats_gbn_under_bursty_loss(ge_results):
    """The acceptance bar: >= 1.5x.  The observed ratio is an order of
    magnitude — a burst opens a run of holes and go-back-N replays the
    entire outstanding window per hole generation."""
    gbn, sack = ge_results["gbn"], ge_results["sack"]
    assert sack.goodput_mbps >= 1.5 * gbn.goodput_mbps, (
        f"sack {sack.goodput_mbps:.2f} Mb/s vs gbn {gbn.goodput_mbps:.2f}")
    # the mechanism, not just the outcome: fewer retransmissions and no
    # spurious redeliveries at the receiver
    assert sack.rexmit < gbn.rexmit


def test_worst_stall_names_the_recovery_cost(ge_results):
    """The recovery-time snapshot: go-back-N's worst delivery gap under
    bursty loss dwarfs SACK's, because each burst stalls the whole
    window instead of just the holes."""
    gbn, sack = ge_results["gbn"], ge_results["sack"]
    assert 0.0 < sack.worst_stall_us < gbn.worst_stall_us
    assert gbn.worst_stall_us >= 2.0 * sack.worst_stall_us
    assert gbn.worst_stall_us <= gbn.elapsed_us
    assert "stall_ms" in render_transport_table([gbn, sack])
    assert sack.dup_rx < gbn.dup_rx


def test_ecn_backs_off_and_outlives_loss_feedback_on_incast(incast_results):
    gbn = incast_results["gbn"]
    sack = incast_results["sack"]
    ecn = incast_results["ecn"]
    # the queue marked for everyone; only the ecn endpoints noticed
    assert gbn.queue_marked > 0 and sack.queue_marked > 0
    assert gbn.ecn_echoes == 0 and gbn.ecn_backoffs == 0
    assert sack.ecn_echoes == 0 and sack.ecn_backoffs == 0
    assert ecn.ecn_marks > 0
    assert ecn.ecn_echoes > 0
    assert ecn.ecn_backoffs > 0
    # backing off before loss: fewer bottleneck tail-drops and fewer
    # retransmissions than either loss-feedback mode
    assert ecn.queue_dropped < gbn.queue_dropped
    assert ecn.queue_dropped < sack.queue_dropped
    assert ecn.rexmit < sack.rexmit < gbn.rexmit
    # and it does not pay for the signal with goodput
    assert ecn.goodput_mbps > gbn.goodput_mbps


def test_suite_is_deterministic_and_schema_valid(ge_results):
    again = _run("ge-bursty", "sack")
    assert transport_row(again) == transport_row(ge_results["sack"])
    results = list(ge_results.values()) + [_run("ge-bursty", "ecn")]
    payload = transport_payload(results, SEED)
    assert TRANSPORT_ARTIFACT.validate(payload) == []
    assert payload["format"] == TRANSPORT_ARTIFACT.format


def test_partial_mode_set_is_refused():
    with pytest.raises(ValueError, match="missing modes"):
        transport_payload([_run("reorder", "sack")], SEED)


def test_schema_rejects_shape_drift():
    row = {k: 0 for k in ("completed", "delivered", "messages", "elapsed_ms",
                          "goodput_mbps", "worst_stall_us", "rexmit",
                          "timeouts", "dup_rx",
                          "ecn_marks", "ecn_echoes", "ecn_backoffs",
                          "queue_marked", "queue_dropped", "violations")}
    row["completed"] = True
    good = {"format": TRANSPORT_ARTIFACT.format, "seed": 1, "scenarios": [{
        "scenario": "x", "description": "y", "senders": 1,
        "messages_per_sender": 2, "payload_bytes": 3,
        "modes": {"gbn": dict(row), "sack": dict(row), "ecn": dict(row)}}]}
    assert TRANSPORT_ARTIFACT.validate(good) == []
    bad = json.loads(json.dumps(good))
    del bad["scenarios"][0]["modes"]["sack"]["goodput_mbps"]
    assert any("goodput_mbps" in e for e in TRANSPORT_ARTIFACT.validate(bad))
    extra = json.loads(json.dumps(good))
    extra["scenarios"][0]["modes"]["gbn"]["surprise"] = 1
    assert any("unexpected" in e for e in TRANSPORT_ARTIFACT.validate(extra))
    wrong = json.loads(json.dumps(good))
    wrong["format"] = "repro-bench-live/1"
    assert TRANSPORT_ARTIFACT.validate(wrong)


def test_write_refuses_an_incomplete_report(tmp_path, ge_results):
    with pytest.raises(ValueError):
        TRANSPORT_ARTIFACT.write(
            str(tmp_path / "t.json"),
            transport_payload([ge_results["gbn"]], SEED))


def test_committed_snapshot_matches_schema_and_seed():
    """``BENCH_transport.json`` is a committed artifact; it must parse,
    validate, and carry the default seed CI regenerates with."""
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    snapshot = root / "BENCH_transport.json"
    assert snapshot.is_file(), "BENCH_transport.json is missing from the repo"
    payload = json.loads(snapshot.read_text())
    assert TRANSPORT_ARTIFACT.validate(payload) == []
    assert payload["seed"] == SEED
    names = {s["scenario"] for s in payload["scenarios"]}
    assert names == set(TRANSPORT_SCENARIOS)


def test_render_names_every_run(ge_results):
    table = render_transport_table(list(ge_results.values()))
    assert "ge-bursty" in table and "gbn" in table and "sack" in table
    assert "sack/gbn goodput ratio" in table
