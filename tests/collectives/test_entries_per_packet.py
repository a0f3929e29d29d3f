"""Heap-entry budget of the NIC-resident collective path, pinned exactly.

A NIC-resident collective packet costs the NIC one processing step and
the host nothing (Yu et al.'s NIC-based barrier); the simulator should
pay one heap entry per modelled delay for it.  This runs a warm-up
barrier, a barrier and an all-reduce on 16 nodes of each fat tree under
the heap census (``tests/heap_census.py``) and pins, as exact counts,
the heap entries per collective packet and the share of entries that
model no delay.  The counts may only fall, by a device-model change
that says which entry kind it removed; a kind that is not in
``ZERO_DELAY_SURVIVORS`` and shows up with zero-delay entries is named
in the failure.
"""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.splitc import Cluster
from tests.heap_census import heap_census

NODES = 16

#: entry kind -> why it still models no delay.  Only the last group is
#: born per packet; the budget below counts it.
ZERO_DELAY_SURVIVORS = {
    # once per process per run, not per packet
    "start:Dc21140._tx_engine": "long-lived chip loop, started once",
    "start:Dc21140._tx_wire": "long-lived chip loop, started once",
    "start:UNetAtmBackend._tx_firmware": "long-lived firmware loop, started once",
    "start:UNetAtmBackend._rx_firmware": "long-lived firmware loop, started once",
    "start:AmEndpoint._dispatch_loop": "host AM loop, started once",
    "start:_run.<locals>.program": "the test's own SPMD program",
    "done:_run.<locals>.program": "the test's own SPMD program, waited on",
    # once per node per collective: the host blocks until its NIC is done
    "event:barrier": "host waits for the engine's completion",
    "event:reduce": "host waits for the engine's completion",
    # per packet, kept: each orders same-instant work and moves a pinned count if dropped
    "event:txfifo.get": "_tx_wire parked on the FIFO it shares with host frames",
    "event:txfifo.put": "FIFO full: a sender fanning out to >2 children waits its turn",
    "wake:Dc21140._tx_wire": "the peek() <= now hop that keeps same-instant order (PR 15)",
    "event:Event": "ATM _rx_firmware woken from an empty cell FIFO",
}

#: substrate -> (heap entries, of which zero-delay, collective packets):
#: 9.36 entries per packet and 28.1 % zero-delay on FE (14.13 and 52.4 %
#: before PR 16), 8.97 and 15.1 % on ATM (10.06 and 24.3 %) -- DESIGN
#: section 5 quotes these
BUDGET = {
    "fe-clos": (1685, 474, 180),
    "atm-clos": (1614, 243, 180),
}


def _run(substrate):
    sim = Simulator()
    with heap_census(sim) as census:
        cluster = Cluster(NODES, substrate=substrate, collectives="nic", sim=sim)

        def program(runtime):
            values = runtime.heap.allocate("v", 4, np.int64)
            yield from runtime.barrier()
            yield from runtime.barrier()
            values[:] = runtime.node
            yield from runtime.all_reduce("v", op="sum")
            return int(values[0])

        sums = cluster.run(program)
    assert sums == [sum(range(NODES))] * NODES
    packets = sum(engine.packets_sent for engine in cluster.collective_engines)
    return census, packets


@pytest.mark.parametrize("substrate", sorted(BUDGET))
def test_heap_entries_per_collective_packet_are_pinned(substrate):
    census, packets = _run(substrate)
    offenders = {kind: count for kind, count in census.zero_delay.items()
                 if kind not in ZERO_DELAY_SURVIVORS}
    assert not offenders, (
        "heap entries that model no delay, of a kind the NIC-collective "
        f"budget does not allow (entries zero-delay kind):\n{census.table()}\n"
        f"offending kinds: {sorted(offenders)}")
    assert (census.total, census.zero_delay_total, packets) == BUDGET[substrate], (
        f"budget moved on {substrate}:\n{census.table()}")
    assert all(reason.strip() for reason in ZERO_DELAY_SURVIVORS.values())

