"""The artifact contract, once, over every :class:`~repro.artifact.Artifact`.

Each artifact is checked against a real document — the committed
``BENCH_*.json`` where one exists, a freshly produced payload for the
two CI-only kinds — and then against the same five mutations, so no
suite can drift into a validator that forgives what the others reject.
"""

import copy
import dataclasses
import json
import pathlib

import pytest

from repro.artifact import Artifact
from repro.suite import artifacts

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: format -> the committed snapshot CI regenerates or compares against
COMMITTED = {
    "repro-bench-live/2": "BENCH_live.json",
    "repro-bench-collectives/2": "BENCH_collectives.json",
    "repro-bench-transport/1": "BENCH_transport.json",
    "repro-bench-fabric/1": "BENCH_fabric.json",
    "repro-multitenant-soak/1": "BENCH_multitenant.json",
}


def _crash_sample():
    from repro.faults.crashsoak import (CRASH_SCENARIOS, crash_payload,
                                        run_crash_scenario)

    scenario = dataclasses.replace(CRASH_SCENARIOS["fe-kill"], messages=12,
                                   crashes=1)
    return crash_payload([run_crash_scenario(scenario)])


def _reproducer_sample():
    from repro.conformance import generate_case, run_case
    from repro.conformance.shrink import ShrinkResult

    case = generate_case(4, "fixed", n_messages=3)
    report = run_case(case, substrates=("atm", "ethernet"))
    return ShrinkResult(case=case, report=report,
                        original_size=case.size).to_payload()


def _cases():
    from repro.conformance import REPRODUCER

    declared = list(artifacts()) + [REPRODUCER]
    assert {a.format for a in declared} >= set(COMMITTED)
    for artifact in declared:
        if artifact.format in COMMITTED:
            path = ROOT / COMMITTED[artifact.format]
            sample = lambda path=path: json.loads(path.read_text())
        elif artifact.format == "repro-crash-soak/1":
            sample = _crash_sample
        else:
            sample = _reproducer_sample
        yield pytest.param(artifact, sample, id=artifact.format)


def _first_number(value, spec, path=()):
    """Path to the first ``int`` / ``float`` leaf the schema names."""
    if spec in (int, float):
        return path
    if isinstance(spec, list) and value:
        return _first_number(value[0], spec[0], path + (0,))
    if isinstance(spec, dict):
        for key, sub in spec.items():
            found = _first_number(value[key], sub, path + (key,))
            if found is not None:
                return found
    return None


def _set(payload, path, new):
    for step in path[:-1]:
        payload = payload[step]
    payload[path[-1]] = new


@pytest.mark.parametrize("artifact, sample", _cases())
def test_artifact_contract(artifact, sample, tmp_path):
    good = sample()
    assert artifact.validate(good) == []
    out = tmp_path / "roundtrip.json"
    artifact.write(str(out), good)
    assert json.loads(out.read_text()) == good

    extra = copy.deepcopy(good)
    extra["surprise"] = 1
    assert artifact.validate(extra) == ["$.surprise: unexpected key"]

    key = next(iter(artifact.schema))
    missing = copy.deepcopy(good)
    del missing[key]
    assert artifact.validate(missing) == [f"$.{key}: missing"]

    number = _first_number(good, artifact.schema)
    assert number is not None
    boolean = copy.deepcopy(good)
    _set(boolean, number, True)
    [error] = artifact.validate(boolean)
    assert "got bool" in error and str(number[-1]) in error

    for dotted in artifact.non_empty:
        emptied = copy.deepcopy(good)
        target = emptied
        for step in dotted.split(".")[:-1]:
            target = target[step][0]
        target[dotted.split(".")[-1]] = []
        assert any("non-empty" in e for e in artifact.validate(emptied)), dotted

    foreign = copy.deepcopy(good)
    foreign["format"] = "repro-bench-mystery/1"
    [error] = artifact.validate(foreign)
    assert error.startswith("$.format: expected")

    for broken in (extra, missing, boolean, foreign):
        with pytest.raises(ValueError, match="refusing to write"):
            artifact.write(str(tmp_path / "bad.json"), broken)
    assert not (tmp_path / "bad.json").exists()


def test_the_simulated_artifacts_carry_no_wall_clock_field():
    """What lets CI gate them with ``diff``: wall time is printed, never
    serialised.  (``BENCH_live.json`` is the wall-clock rig's output.)"""
    for name in COMMITTED.values():
        if name == "BENCH_live.json":
            continue
        text = (ROOT / name).read_text()
        for key in ("wall_s", "elapsed_s", "events_per_sec"):
            assert f'"{key}"' not in text, (name, key)


def test_schema_language():
    artifact = Artifact(
        format="t/1",
        schema={"n": float, "i": int, "flag": bool, "name": (str, None),
                "blob": dict, "rows": [{"kind": "row", "v": int}], "tags": [str]},
        non_empty=("rows",))
    good = {"format": "t/1", "n": 1, "i": 2, "flag": False, "name": None,
            "blob": {"anything": [1, 2]}, "rows": [{"kind": "row", "v": 3}],
            "tags": []}
    assert artifact.validate(good) == []
    assert artifact.validate(dict(good, name="x")) == []
    bad = dict(good, n="1", i=2.5, flag=0, name=3, blob=[], tags="a",
               rows=[{"kind": "other", "v": True}])
    assert artifact.validate(bad) == [
        "$.n: expected number, got str",
        "$.i: expected int, got float",
        "$.flag: expected bool, got int",
        "$.name: expected str, got int",
        "$.blob: expected object, got list",
        "$.rows[0].kind: expected 'row', got 'other'",
        "$.rows[0].v: expected int, got bool",
        "$.tags: expected list, got str",
    ]
    assert artifact.validate(dict(good, rows=[])) == [
        "$.rows: expected a non-empty list"]
    assert artifact.validate([]) == ["$: expected object, got list"]
