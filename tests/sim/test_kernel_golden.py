"""Golden event counts: the kernel's dispatch schedule is pinned.

Every committed ``BENCH_*.json`` is byte-stable only while the kernel
consumes one ``_seq`` and one heap entry per wait at the same program
point.  A kernel change that adds, drops or reorders an entry moves
``events_processed`` (and usually the final clock) on these four small
runs, so it fails here in seconds instead of at artifact regeneration.

The pinned pairs were recorded at the commit *before* the bare-delay
fast path (PR 13) and must only change together with a deliberate,
documented change of the simulated model.
"""

import pytest

from repro.analysis.microbench import (
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    measure_bandwidth,
    measure_rtt,
)
from repro.splitc import Cluster


def _ping_pong(config, size, rounds):
    setup = FIGURE5_CONFIGS[config]()
    measure_rtt(setup, size, rounds=rounds)
    return setup.sim


def _stream(config, size, messages):
    setup = FIGURE6_CONFIGS[config]()
    measure_bandwidth(setup, size, messages=messages)
    return setup.sim


def _nic_barrier():
    cluster = Cluster(16, substrate="fe-clos", collectives="nic")

    def program(runtime):
        yield from runtime.barrier()

    cluster.run(program)
    return cluster.sim


GOLDEN = {
    "fig5-hub-40B-x100": (lambda: _ping_pong("hub", 40, 100), (5695.6363636363685, 9806)),
    "fig5-atm-40B-x100": (lambda: _ping_pong("atm", 40, 100), (9034.660450660354, 4806)),
    "fig6-atm-1498B-x50": (lambda: _stream("atm", 1498, 50), (4921.147629870065, 13661)),
    "fe-clos-16-nic-barrier": (_nic_barrier, (182.09999999999997, 1115)),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_event_schedule_is_pinned(case):
    run, expected = GOLDEN[case]
    sim = run()
    assert (sim.now, sim.events_processed) == expected
