"""Golden schedule: the final clocks and the event counts, pinned apart.

Every committed ``BENCH_*.json`` is byte-stable only while each wait is
ordered, among the waits that end at the same instant, as it was when
the artifact was written.  Two pins on four small runs watch that, and
they are deliberately not one tuple:

* **The final clocks never move.**  They were recorded at the commit
  *before* the bare-delay fast path (PR 13) and have not been
  re-recorded since; no kernel change and no device-model change may
  touch them short of a deliberate, documented change of the simulated
  model.
* **The event counts may only fall, and only by a device-model fusion**
  (a sub-step entered with ``yield from`` instead of a nested
  ``Process``, a switch hop folded into its egress link): fewer heap
  entries for the same modelled delays.  They were re-recorded once, in
  PR 15 (from 9806 / 4806 / 13661 / 1115), and a change that moves one
  re-records it here, lower, and says which entry it removed.  PR 16
  moved the NIC barrier alone, 831 -> 558: gone are the start and the
  completion entry of the per-frame ``Dc21140._rx_collective`` /
  ``_tx_collective`` processes (a ``call_in`` each now) and the
  ``txfifo.put`` event of every collective frame that found room in the
  FIFO.  A
  *kernel* change that adds, drops or reorders an entry moves a count
  and usually a clock, and fails here in seconds instead of at artifact
  regeneration.
"""

import functools

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


#: case -> (run, final clock in simulated us, events processed)
GOLDEN = {
    "fig5-hub-40B-x100": (lambda: _ping_pong("hub", 40, 100), 5695.6363636363685, 7606),
    "fig5-atm-40B-x100": (lambda: _ping_pong("atm", 40, 100), 9034.660450660354, 3406),
    "fig6-atm-1498B-x50": (lambda: _stream("atm", 1498, 50), 4921.147629870065, 7924),
    "fe-clos-16-nic-barrier": (_nic_barrier, 182.09999999999997, 558),
}


@functools.lru_cache(maxsize=None)
def _ran(case):
    sim = GOLDEN[case][0]()
    return sim.now, sim.events_processed


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_final_clock_is_pinned(case):
    assert _ran(case)[0] == GOLDEN[case][1]


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_event_count_is_pinned(case):
    assert _ran(case)[1] == GOLDEN[case][2]
