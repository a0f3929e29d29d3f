"""Host cost of the NIC-resident collectives, as Python calls per round, pinned.

The same count as ``tests/sim/test_host_calls.py`` (whose counter this
shares): the Python calls into ``src/repro`` while 32 nodes of each fat
tree run a warm-up barrier, four barriers and four all-reduces on their
NICs, per round, as a ceiling.  Beside it, the run's heap entries are
pinned exactly: frames come off the per-packet path (the i960's
collective-VCI branch, the FE switch hop, the DC21140's wire loop, the
engine's window), heap entries do not.  A failure prints the
per-function table, so the frame that came back names itself.
"""

import numpy as np
import pytest

from repro.splitc import Cluster
from repro.analysis.hostcost import count_calls, per_function

NODES = 32
ROUNDS = 4
#: the warm-up barrier, then ROUNDS barriers and ROUNDS all-reduces
COUNTED_ROUNDS = 1 + 2 * ROUNDS

#: fabric -> (calls into ``src/repro`` per round, a ceiling; heap events,
#: exact).  6 960.33 and 8 881.78 calls before the i960 combined a
#: collective packet inline, the FE switch took frames through a
#: ``partial`` and the DC21140 read the clock directly
PINS = {
    "atm-clos": (5576.89, 9223),
    "fe-clos": (6939.22, 9800),
}


def _program(runtime):
    values = runtime.heap.allocate("v", 4, np.int64)
    yield from runtime.barrier()
    for _ in range(ROUNDS):
        yield from runtime.barrier()
    for _ in range(ROUNDS):
        values[:] = runtime.node
        yield from runtime.all_reduce("v", op="sum")
    return int(values[0])


@pytest.mark.parametrize("substrate", sorted(PINS))
def test_python_calls_per_nic_collective_round_are_pinned(substrate):
    cluster = Cluster(NODES, substrate=substrate, collectives="nic")
    sums = []
    counts = count_calls(lambda: sums.extend(cluster.run(_program)))
    assert sums == [sum(range(NODES))] * NODES
    per_round = round(sum(counts.values()) / COUNTED_ROUNDS, 2)
    print(f"{substrate} {NODES} nodes: {per_round} calls into src/repro per round, "
          f"{cluster.sim.events_processed} heap events")
    ceiling, events = PINS[substrate]
    assert (per_round <= ceiling, cluster.sim.events_processed) == (True, events), (
        f"{per_round} calls per round (ceiling {ceiling}), "
        f"{cluster.sim.events_processed} heap events (pinned {events}); per function:\n"
        f"{per_function(counts, COUNTED_ROUNDS)}")
