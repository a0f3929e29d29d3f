"""``bench --compare``: headline-metric regression gating."""

import json

import pytest

from repro.analysis.benchcmp import (
    DEFAULT_THRESHOLD,
    compare_bench,
    compare_bench_files,
    headline_metrics,
    render_compare,
)
from repro.cli import main


def _live_payload(p50=100.0, goodput=50.0, incast=40.0):
    return {
        "format": "repro-bench-live/2",
        "transport": "unix",
        "doorbell_mode": "busy-poll",
        "elapsed_s": 1.0,
        "round_trip": [{"size": 40, "samples": 10, "min_us": 1.0,
                        "mean_us": p50, "p50_us": p50, "p95_us": p50 * 2,
                        "p99_us": p50 * 3, "syscalls_per_message": 4.0}],
        "bandwidth": [{"size": 1024, "messages": 10, "delivered": 10,
                       "elapsed_us": 100.0, "goodput_mbps": goodput,
                       "rexmit": 0, "syscalls_per_message": 2.0}],
        "incast": {"senders": 4, "messages_per_sender": 10, "size": 512,
                   "delivered": 40, "elapsed_us": 100.0,
                   "goodput_mbps": incast, "credit_stalls": 0, "rexmit": 0,
                   "recv_queue_drops": 0, "no_buffer_drops": 0,
                   "syscalls_per_message": 2.0},
        "burst": {"messages": 100, "size": 256, "speedup": 4.0,
                  "batch_path": "sendmmsg",
                  "baseline": {"msgs_per_sec": 1e5, "elapsed_us": 1000.0,
                               "syscalls_per_message": 2.0},
                  "batched": {"msgs_per_sec": 4e5, "elapsed_us": 250.0,
                              "syscalls_per_message": 0.05}},
    }


def _transport_payload(gbn=5.0, sack=20.0, ecn=25.0):
    row = {"completed": True, "delivered": 80, "messages": 80,
           "elapsed_ms": 10.0, "rexmit": 1, "timeouts": 0, "dup_rx": 0,
           "ecn_marks": 0, "ecn_echoes": 0, "ecn_backoffs": 0,
           "queue_marked": 0, "queue_dropped": 0, "violations": 0}
    modes = {}
    for mode, goodput in (("gbn", gbn), ("sack", sack), ("ecn", ecn)):
        modes[mode] = dict(row, goodput_mbps=goodput)
    return {"format": "repro-bench-transport/1", "seed": 1, "scenarios": [
        {"scenario": "ge-bursty", "description": "d", "senders": 1,
         "messages_per_sender": 80, "payload_bytes": 400, "modes": modes}]}


def test_headline_metrics_are_format_dispatched():
    live = {name for name, _b, _v in headline_metrics(_live_payload())}
    assert live == {"rtt[40B].p50_us", "bandwidth[1024B].goodput_mbps",
                    "incast.goodput_mbps", "burst.batched.msgs_per_sec",
                    "burst.batched.syscalls_per_message", "burst.speedup"}
    transport = {name for name, _b, _v in headline_metrics(_transport_payload())}
    assert transport == {"ge-bursty[gbn].goodput_mbps",
                         "ge-bursty[sack].goodput_mbps",
                         "ge-bursty[ecn].goodput_mbps"}
    with pytest.raises(ValueError, match="headline"):
        headline_metrics({"format": "mystery/1"})


def test_identical_snapshots_pass():
    deltas, problems = compare_bench(_live_payload(), _live_payload())
    assert problems == []
    assert all(d.change_frac == 0.0 for d in deltas)


def test_direction_awareness():
    base = _live_payload()
    # latency regresses UP, goodput regresses DOWN
    worse = _live_payload(p50=130.0, goodput=30.0, incast=40.0)
    _deltas, problems = compare_bench(base, worse)
    assert any("p50" in p for p in problems)
    assert any("bandwidth" in p for p in problems)
    assert not any("incast" in p for p in problems)
    # improvements of any size never fail
    better = _live_payload(p50=10.0, goodput=500.0, incast=400.0)
    _deltas, problems = compare_bench(base, better)
    assert problems == []


def test_threshold_is_the_contract():
    base = _transport_payload()
    drift = _transport_payload(sack=20.0 * 0.90)  # -10%: inside 15%
    _d, problems = compare_bench(base, drift)
    assert problems == []
    regressed = _transport_payload(sack=20.0 * 0.80)  # -20%: outside
    _d, problems = compare_bench(base, regressed)
    assert len(problems) == 1 and "ge-bursty[sack]" in problems[0]
    # a tighter threshold catches the 10% drift too
    _d, problems = compare_bench(base, drift, threshold=0.05)
    assert len(problems) == 1


def test_vanished_and_new_metrics_are_fatal():
    base = _transport_payload()
    cand = json.loads(json.dumps(base))
    cand["scenarios"][0]["scenario"] = "renamed"
    _d, problems = compare_bench(base, cand)
    assert any("missing in candidate" in p for p in problems)
    assert any("new in candidate" in p for p in problems)


def test_format_mismatch_is_fatal():
    _d, problems = compare_bench(_live_payload(), _transport_payload())
    assert problems and "format mismatch" in problems[0]


def test_zero_baseline_only_regresses_when_candidate_moves():
    base = _transport_payload(gbn=0.0)
    same = _transport_payload(gbn=0.0)
    _d, problems = compare_bench(base, same)
    assert problems == []


def test_render_marks_verdicts():
    base = _transport_payload()
    cand = _transport_payload(sack=10.0, ecn=26.0)
    deltas, problems = compare_bench(base, cand)
    out = render_compare(deltas, problems)
    assert "REGRESSED" in out
    assert "ge-bursty[sack].goodput_mbps" in out


# ------------------------------------------------------------------- CLI
def test_cli_compare_exit_codes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(_transport_payload()))
    b.write_text(json.dumps(_transport_payload()))
    assert main(["bench", "--compare", str(a), str(b)]) == 0
    b.write_text(json.dumps(_transport_payload(sack=1.0)))
    assert main(["bench", "--compare", str(a), str(b)]) == 1
    # a looser threshold lets the same drift through
    assert main(["bench", "--compare", str(a), str(b),
                 "--threshold", "0.99"]) == 0


def test_cli_compare_runs_without_live_transports(tmp_path, capsys):
    """--compare must work before the --live gate: diffing committed
    snapshots cannot require sockets."""
    a = tmp_path / "a.json"
    a.write_text(json.dumps(_transport_payload()))
    assert main(["bench", "--compare", str(a), str(a)]) == 0
    out = capsys.readouterr().out
    assert "Benchmark comparison" in out
    assert f"{DEFAULT_THRESHOLD * 100:.0f}%" in out


@pytest.mark.parametrize("content, complaint", [
    (json.dumps({"format": "mystery/1", "points": []}), "unknown snapshot format 'mystery/1'"),
    (json.dumps({"points": []}), "unknown snapshot format None"),
    (json.dumps([1, 2, 3]), "unknown snapshot format None"),
    ("BENCH: not json at all", "not a readable JSON snapshot"),
    (None, "not a readable JSON snapshot"),  # no such file
])
@pytest.mark.parametrize("bad_side", ("baseline", "candidate"))
def test_cli_compare_refuses_a_file_it_cannot_compare_in_one_line(
        content, complaint, bad_side, tmp_path, capsys):
    """A file that is not a known snapshot is a usage error: exit 2 and
    one line naming the file and the known formats, never a traceback
    (``ValueError`` / ``JSONDecodeError`` / ``AttributeError`` before)."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_transport_payload()))
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    pair = [str(bad), str(good)] if bad_side == "baseline" else [str(good), str(bad)]
    assert main(["bench", "--compare"] + pair) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"{bad}: ") and complaint in line
    assert "repro-bench-transport/1" in line and "repro-bench-live/2" in line
