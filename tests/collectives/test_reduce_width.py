"""Why a NIC all-reduce costs exactly a NIC barrier — and when it stops.

``BENCH_collectives.json`` shows NIC ``reduce`` equal to NIC ``barrier``
to the printed digit at every size on both fabrics, which reads as "the
combine is free".  It is not a missing charge: the engine charges one
``collective_op_us`` per packet sent and per packet taken whatever the
packet's kind, the combine being that step, and the bench reduces four
``int64``, whose 32 bytes plus the 7-byte header still fit one AAL5 cell
(40 payload bytes) and one minimum Ethernet frame (46, of which the
U-Net header takes 2).  Both collectives therefore put the same packets
of the same wire size on the same tree.  A fifth word is a second cell;
eight words are a longer frame; from there the reduce is dearer than the
barrier, by wire time.
"""

import numpy as np
import pytest

from repro.splitc import Cluster

NODES = 16
ROUNDS = 4


def _rounds_us(substrate):
    """Mean simulated µs of a barrier, a 4-word and an 8-word all-reduce."""
    cluster = Cluster(NODES, substrate=substrate, collectives="nic")

    def program(runtime):
        four = runtime.heap.allocate("four", 4, np.int64)
        eight = runtime.heap.allocate("eight", 8, np.int64)
        yield from runtime.barrier()  # warm-up, as the bench does
        marks = [runtime.sim.now]
        for _ in range(ROUNDS):
            yield from runtime.barrier()
        marks.append(runtime.sim.now)
        for name, array in (("four", four), ("eight", eight)):
            for _ in range(ROUNDS):
                array[:] = runtime.node + 1
                yield from runtime.all_reduce(name, op="sum")
            assert int(array[0]) == NODES * (NODES + 1) // 2
            marks.append(runtime.sim.now)
        return [(b - a) / ROUNDS for a, b in zip(marks, marks[1:])]

    return cluster.run(program)[0]


@pytest.mark.parametrize("substrate, barrier_us", [("atm-clos", 176.6),
                                                   ("fe-clos", 188.32)])
def test_reduce_equals_barrier_up_to_one_cell_and_exceeds_it_beyond(
        substrate, barrier_us):
    barrier, reduce4, reduce8 = _rounds_us(substrate)
    assert barrier == pytest.approx(barrier_us, abs=1e-6)
    # same packets, same wire size, same per-packet charge
    assert reduce4 == pytest.approx(barrier, abs=1e-6)
    # a second cell / a frame above the minimum: wire time shows
    assert reduce8 > barrier + 5.0
