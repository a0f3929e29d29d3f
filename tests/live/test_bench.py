"""Benchmark rig: the payload it emits is schema-valid and sane."""

import json

import pytest

from repro.live import run_bench
from repro.analysis.stats import percentile
from repro.live.bench import ARTIFACT

from .conftest import require

pytestmark = require("unix")


def test_percentile_is_nearest_rank():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert percentile(samples, 50) == 20.0
    assert percentile(samples, 99) == 40.0
    assert percentile([5.0], 50) == 5.0
    # ranks are ceil(q/100 * n), not rounded: q/100 * n exactly on an
    # integer names that sample, never the next one up
    assert percentile([float(i) for i in range(1, 11)], 50) == 5.0
    assert percentile([float(i) for i in range(1, 101)], 99) == 99.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.fixture(scope="module")
def payload():
    return run_bench("unix", rtt_samples=4, bw_messages=10,
                     incast_senders=2, incast_messages=8,
                     rtt_sizes=(0, 64, 1498), bw_sizes=(64, 1498))


def test_bench_payload_is_schema_valid(payload):
    assert ARTIFACT.validate(payload) == []
    assert payload["format"] == ARTIFACT.format
    assert payload["transport"] == "unix"


def test_bench_rows_are_sane(payload):
    for row in payload["round_trip"]:
        assert row["min_us"] <= row["p50_us"] <= row["p95_us"] <= row["p99_us"]
        assert row["syscalls_per_message"] > 0
    for row in payload["bandwidth"]:
        assert row["delivered"] == row["messages"]
        assert row["goodput_mbps"] > 0
    incast = payload["incast"]
    assert incast["delivered"] == incast["senders"] * incast["messages_per_sender"]
    assert incast["goodput_mbps"] > 0


def test_write_bench_round_trips_and_refuses_invalid(tmp_path, payload):
    path = tmp_path / "BENCH_live.json"
    ARTIFACT.write(str(path), payload)
    assert ARTIFACT.validate(json.loads(path.read_text())) == []

    broken = dict(payload)
    del broken["incast"]
    errors = ARTIFACT.validate(broken)
    assert any("incast" in e for e in errors)
    with pytest.raises(ValueError):
        ARTIFACT.write(str(path), broken)


def test_validator_rejects_wrong_types(payload):
    bad = json.loads(json.dumps(payload))
    bad["round_trip"][0]["p50_us"] = "fast"
    assert any("p50_us" in e for e in ARTIFACT.validate(bad))
    bad = json.loads(json.dumps(payload))
    bad["format"] = "something-else/9"
    assert any("format" in e for e in ARTIFACT.validate(bad))
    bad = json.loads(json.dumps(payload))
    bad["bandwidth"] = []
    assert any("bandwidth" in e for e in ARTIFACT.validate(bad))
