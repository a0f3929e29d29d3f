"""The collective-latency sweep: schema, feasibility map, CI headlines."""

import numpy as np
import pytest

from repro.analysis.benchcmp import compare_bench, headline_metrics
from repro.collectives.bench import (
    ARTIFACT,
    point_support,
    run_collectives_bench,
)


@pytest.fixture(scope="module")
def payload():
    # one small grid point per substrate; keeps the suite fast while
    # exercising the full measurement path
    return run_collectives_bench(node_counts=(5,), barrier_iters=4,
                                 reduce_iters=3)


def test_sweep_measures_every_feasible_cell(payload):
    keys = {(p["substrate"], p["mode"], p["nodes"], p["op"])
            for p in payload["points"]}
    for substrate in ("atm-clos", "fe-clos"):
        for mode in ("host", "nic"):
            for op in ("barrier", "reduce"):
                assert (substrate, mode, 5, op) in keys
    assert payload["skipped"] == []
    assert all(p["mean_us"] > 0.0 for p in payload["points"])


def test_sweep_payload_validates_and_has_headlines(payload):
    assert ARTIFACT.validate(payload) == []
    metrics = headline_metrics(payload)
    names = [name for name, _, _ in metrics]
    assert "barrier[atm-clos,nic,n5].mean_us" in names
    assert "speedup[fe-clos,n5].barrier" in names
    directions = dict((name, better) for name, better, _ in metrics)
    assert directions["barrier[atm-clos,host,n5].mean_us"] == "lower"
    assert directions["speedup[atm-clos,n5].reduce"] == "higher"
    # events/sec is wall-clock noise and must never gate CI
    assert not any("events" in name for name in names)


def test_sweep_is_deterministic_in_simulated_time(payload):
    again = run_collectives_bench(node_counts=(5,), barrier_iters=4,
                                  reduce_iters=3)
    first = {(p["substrate"], p["mode"], p["nodes"], p["op"]): p["mean_us"]
             for p in payload["points"]}
    second = {(p["substrate"], p["mode"], p["nodes"], p["op"]): p["mean_us"]
              for p in again["points"]}
    assert first == second
    deltas, problems = compare_bench(payload, again, threshold=0.0)
    assert problems == []
    assert all(delta.change_frac == 0.0 for delta in deltas)


def test_engine_snapshot_records_exact_event_counts_only(payload):
    assert len(payload["engine"]) == 4
    for entry in payload["engine"]:
        assert entry["sim_events"] > 0
    # no wall-clock number may enter the artifact: it is gated by diff
    assert "elapsed_s" not in payload
    assert not {"wall_s", "events_per_sec"} & set(payload["engine"][0])
    again = run_collectives_bench(node_counts=(5,), barrier_iters=4,
                                  reduce_iters=3)
    assert again == payload


def test_write_refuses_invalid_payload(tmp_path):
    with pytest.raises(ValueError):
        ARTIFACT.write(str(tmp_path / "bad.json"),
                       {"format": ARTIFACT.format})


def test_write_round_trips(tmp_path, payload):
    import json

    path = tmp_path / "BENCH_collectives.json"
    ARTIFACT.write(str(path), payload)
    loaded = json.loads(path.read_text())
    assert ARTIFACT.validate(loaded) == []
    assert loaded == payload


def test_point_support_maps_the_known_cliffs():
    # the one-byte U-Net port space kills the FE node-0 mesh at 256
    ok, reason = point_support("fe-clos", "host", 256, "barrier")
    assert not ok and "port" in reason
    ok, _ = point_support("fe-clos", "nic", 256, "barrier")
    assert ok
    ok, _ = point_support("atm-clos", "host", 256, "barrier")
    assert ok
    # host reduce is O(N^2); measured only at small n
    ok, reason = point_support("atm-clos", "host", 128, "reduce")
    assert not ok and "O(N^2)" in reason
    ok, _ = point_support("atm-clos", "host", 32, "reduce")
    assert ok
    ok, _ = point_support("atm-clos", "nic", 256, "reduce")
    assert ok


def test_committed_snapshot_shows_nic_winning_at_scale():
    """The acceptance criterion, pinned to the committed artifact: the
    NIC trees beat the host node-0 scheme on barrier latency from 32
    nodes up, on both substrates."""
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "BENCH_collectives.json")
    with open(path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    assert ARTIFACT.validate(snapshot) == []
    speedups = {(s["substrate"], s["nodes"], s["op"]): s["speedup"]
                for s in snapshot["speedups"]}
    for substrate in ("atm-clos", "fe-clos"):
        for nodes in (32, 128, 256):
            key = (substrate, nodes, "barrier")
            if key in speedups:
                assert speedups[key] > 1.0, (
                    f"{substrate} n={nodes}: nic barrier is not faster")
    assert speedups[("atm-clos", 32, "barrier")] > 1.0
    assert speedups[("fe-clos", 32, "barrier")] > 1.0
    # the 256-node fat-tree points exist for both substrates (nic mode)
    points = {(p["substrate"], p["mode"], p["nodes"], p["op"])
              for p in snapshot["points"]}
    assert ("atm-clos", "nic", 256, "barrier") in points
    assert ("atm-clos", "nic", 256, "reduce") in points
    assert ("fe-clos", "nic", 256, "barrier") in points
    assert ("fe-clos", "nic", 256, "reduce") in points
