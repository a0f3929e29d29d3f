"""``python -m repro soak``: one driver, every suite, in-process.

Each suite runs its cheapest scenario through ``cli.main`` — the same
path CI and users take — so the driver's scenario resolution, override
validation, artifact write and exit code are exercised once per record
of the suite table instead of never.
"""

import json

import pytest

from repro.cli import main
from repro.suite import OVERRIDES, SUITES, load_suite

#: the cheapest passing run of each suite (well under a second apiece)
CHEAP = {
    "chaos": ["--scenario", "reorder", "--messages", "10"],
    "overload": ["--scenario", "incast", "--messages", "8"],
    "crash": ["--scenario", "fe-kill", "--messages", "40"],
    "transport": ["--scenario", "reorder"],
    "fabric": ["--scenario", "node-crash"],
    "multitenant": ["--scenario", "churn-bench", "--seed", "7"],
}

#: a well-formed value for every override flag
FLAG_ARGS = {
    "messages": ["--messages", "5"],
    "mode": ["--mode", "fixed"],
    "policy": ["--policy", "drop"],
    "credit": ["--credit"],
    "seed": ["--seed", "3"],
    "stats": ["--stats"],
    "output": ["--output", "unwanted.json"],
}


def test_every_suite_has_a_cheap_run_and_every_flag_a_probe():
    assert set(CHEAP) == set(SUITES)
    assert set(FLAG_ARGS) == set(OVERRIDES)


@pytest.mark.parametrize("name", SUITES)
def test_cheap_scenario_passes_and_writes_a_valid_artifact(name, tmp_path, capsys):
    suite = load_suite(name)
    argv = ["soak", "--suite", name] + CHEAP[name]
    out_path = tmp_path / "artifact.json"
    if suite.artifact is not None:
        argv += ["--output", str(out_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "sim engine:" in out  # the driver's one wall-clock measurement
    if suite.artifact is None:
        assert not out_path.exists()
    else:
        assert f"wrote {out_path}" in out
        assert suite.artifact.validate(json.loads(out_path.read_text())) == []


@pytest.mark.parametrize("name", SUITES)
def test_unknown_scenario_is_a_usage_error(name, capsys):
    assert main(["soak", "--suite", name, "--scenario", "no-such"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("name", SUITES)
def test_an_override_the_suite_does_not_honour_is_an_error(name, tmp_path,
                                                           monkeypatch, capsys):
    """Never a silent no-op: exit 2 naming the suite and the flag, with
    nothing run and nothing written."""
    monkeypatch.chdir(tmp_path)
    suite = load_suite(name)
    refused = [flag for flag in OVERRIDES if not suite.honours(flag)]
    assert refused, f"{name} honours every flag; nothing to probe"
    for flag in refused:
        assert main(["soak", "--suite", name] + CHEAP[name] + FLAG_ARGS[flag]) == 2
        err = capsys.readouterr().err
        assert name in err and f"--{flag}" in err
    assert not list(tmp_path.iterdir())


def test_non_positive_messages_is_a_usage_error(capsys):
    assert main(["soak", "--messages", "0"]) == 2
    assert "positive" in capsys.readouterr().err


def test_stats_and_single_mode_flow_through_the_driver(capsys):
    assert main(["soak", "--scenario", "reorder", "--messages", "10",
                 "--mode", "adaptive", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "fixed" not in out
    assert "reorder [adaptive] fault pipeline:" in out


def test_a_failing_run_prints_its_violations_and_exits_1(capsys, monkeypatch):
    import dataclasses

    from repro.faults import soak

    impossible = dataclasses.replace(soak.SCENARIOS["bursty"], time_limit_us=50.0)
    monkeypatch.setitem(soak.SCENARIOS, "bursty", impossible)
    assert main(["soak", "--scenario", "bursty", "--mode", "fixed"]) == 1
    assert "!! bursty[fixed]: termination:" in capsys.readouterr().out
