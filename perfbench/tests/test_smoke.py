"""Every workload runs at tiny sizes and emits exactly what BENCHMARK.json
declares, with its outputs checked."""

import json
import time

import pytest

from perfbench import compare, harness, run
from perfbench.workloads import WORKLOADS, load, unet

from .conftest import TINY_SECONDS

SPEC = harness.load_spec()


def test_spec_names_workloads():
    assert [row["name"] for row in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]
    assert "setup_s" in {row["name"] for row in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_declared_metrics(name, two_reps):
    lines = {}
    for trace, block in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, 3, TINY_SECONDS, trace,
                                  started=time.perf_counter())
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        line = json.loads(run.result_line(SPEC, result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = {row["name"]: row["unit"] for row in SPEC[block]}
        assert list(line["metrics"]) == list(declared)
        for metric, entry in line["metrics"].items():
            assert entry["unit"] == declared[metric]
            assert isinstance(entry["value"], (int, float))
            if not trace:
                assert entry["value"] > 0, metric
        lines[block] = [line]
    layer = result["metrics"]
    shares = sum(value for metric, value in layer.items()
                 if metric.endswith(".self_share"))
    assert shares == pytest.approx(1.0, abs=0.01)
    assert layer["harness.trace_overhead_ratio"] > 0
    assert layer["failed_ops_share"] == 0
    if name.startswith("unet-"):
        # lossless two-host paths; the README lists what the Split-C
        # workloads show at the baseline commit
        assert layer["core.drops_per_op"] == 0
    summary = compare.summarise(lines)
    assert set(summary["end_to_end"]) == {row["name"] for row in SPEC["end_to_end"]}
    assert set(summary["per_layer"]) <= set(layer)


@pytest.mark.parametrize("seed", [0, -7, 2**32 - 1, 2**63 - 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_any_integer_seed_runs(name, seed):
    # the driver picks the seeds; numpy refuses one of 2**32 or more
    workload = load(name)
    workload.prepare(seed, 0.0)
    assert workload.repetition(harness.Spans()).failed == 0


def test_failed_output_check_exits_nonzero(monkeypatch, two_reps, capsys):
    real = unet.ping_pong

    def one_bad_echo(setup, payloads, rounds):
        rtts, mismatches = real(setup, payloads, rounds)
        return rtts, mismatches + 1

    monkeypatch.setattr(unet, "ping_pong", one_bad_echo)
    code = run.main(["--workload", "unet-pingpong", "--seed", "1",
                     "--seconds", str(TINY_SECONDS), "--trace", "0"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and line["correct"] is False and line["failed"] > 0


def _summary(median, q1, q3, n=10):
    return {"median": median, "q1": q1, "q3": q3, "n": n}


def test_compare_verdicts():
    base = _summary(100.0, 99.0, 101.0)
    assert compare.verdict(base, _summary(104.0, 103.0, 105.0), "lower", 0.10) == "unchanged"
    assert compare.verdict(base, _summary(80.0, 79.0, 81.0), "lower", 0.10) == "unchanged"
    assert compare.verdict(base, _summary(120.0, 119.0, 121.0), "lower", 0.10) == "regressed"
    assert compare.verdict(base, _summary(80.0, 79.0, 81.0), "higher", 0.10) == "regressed"
    noisy = _summary(104.0, 90.0, 118.0)
    assert compare.verdict(base, noisy, "lower", 0.10) == "unresolved"
    assert compare.verdict(base, _summary(150.0, 136.0, 164.0), "lower", 0.10) == "regressed"
    assert compare.verdict(base, _summary(150.0, 149.0, 151.0, n=2), "lower", 0.10) == "unresolved"
