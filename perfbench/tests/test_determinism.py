"""Same seed, same simulated figures and the same counts, to the byte."""

import json

import pytest

from perfbench import run

from .conftest import TINY_SECONDS

SIM_WORKLOADS = ("unet-pingpong", "unet-stream", "splitc-apps", "clos-collectives")
#: wall-clock figures; every other per-layer metric of a simulated
#: workload is exact for a seed
WALL_CLOCK = ("sim.events_per_s", ".self_share", "_ns", "_ns_per_msg",
              "harness.ops_per_s", "harness.host_us_per_op",
              "harness.setup_wall_s", "harness.cal_iters_per_s",
              "harness.rep_spread", "harness.trace_overhead_ratio")


def exact_figures(result):
    return {name: value for name, value in result["metrics"].items()
            if not name.endswith(WALL_CLOCK)}


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_same_seed_same_simulated_figures(name, two_reps):
    first = exact_figures(run.run_workload(name, 5, TINY_SECONDS, trace=True))
    again = exact_figures(run.run_workload(name, 5, TINY_SECONDS, trace=True))
    assert first["sim_us_per_op"] > 0 and first["sim.events_per_op"] > 0
    assert first["sim.calls_per_op"] > 0
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
