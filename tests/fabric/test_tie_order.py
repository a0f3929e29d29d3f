"""Same-timestamp dispatch order is part of the model: pinned figures.

Host-mode collectives on a Clos fabric are the runs in which waits from
unrelated chains land on the same float (every node runs the same
firmware constants), so the order in which the kernel dispatches equal
instants decides who gets an egress link or the bus first — and with it
the figures.  A device-model fusion that removes a heap entry must leave
that order alone.  These runs are the ones that moved when two fusions
were tried without care (PR 15): inlining ``attachment.transmit`` in
``Dc21140._tx_wire`` moved the ``fe-clos`` pair, inlining
``DmaEngine.transfer`` moved the ``atm-clos`` pair.  Both are inlined
now, each with the zero-delay hop the nested ``Process`` implied kept
for the one case in which it orders anything (see ``DmaEngine.transfer``).

Values recorded at the parent of PR 15; never re-record them to make a
change pass.
"""

import numpy as np
import pytest

from repro.splitc import Cluster

ROUNDS = 2

#: (substrate, nodes) -> (node 0's elapsed for the measured rounds, final clock), simulated us
PINNED = {
    ("fe-clos", 8): (1229.0924688057098, 1412.9741354723747),
    ("fe-clos", 16): (2546.7030303030233, 2896.3360606060414),
    ("atm-clos", 8): (1506.897376015794, 1704.8064813548995),
    ("atm-clos", 16): (2711.738317004629, 3042.026917293222),
}


def _program(runtime):
    values = runtime.heap.allocate("v", 4, np.int64)
    yield from runtime.barrier()  # warm-up: lazy channels and trees come up
    t0 = runtime.sim.now
    for _ in range(ROUNDS):
        yield from runtime.barrier()
    for _ in range(ROUNDS):
        values[:] = runtime.node + 1
        yield from runtime.all_reduce("v", op="sum")
    return runtime.sim.now - t0, int(values[0])


@pytest.mark.parametrize("substrate,nodes", sorted(PINNED))
def test_host_mode_collectives_keep_their_tie_order(substrate, nodes):
    cluster = Cluster(nodes, substrate=substrate, collectives="host")
    results = cluster.run(_program)
    assert all(total == nodes * (nodes + 1) // 2 for _elapsed, total in results)
    assert (results[0][0], cluster.sim.now) == PINNED[(substrate, nodes)]
