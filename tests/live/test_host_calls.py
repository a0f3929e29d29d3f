"""Host cost of the live U-Net/OS packet path, as Python calls per op, pinned.

The live-loopback workload's time goes to this substrate's own Python
layers, not to the two syscalls a message costs, so the number of calls
into ``src/repro`` per op is the figure that decides it; unlike wall
time it is exact.  Both counts run over a real AF_UNIX pair with a
:class:`~repro.core.clock.ManualClock`, counted by
:func:`repro.analysis.hostcost.count_calls` (same rules as the simulated
ceilings in ``tests/sim/test_host_calls.py``):

* a 40-byte AM RPC through ``LiveAm.rpc`` and the workload's pump (the
  backends' ``service`` and both endpoints' ``service``): two datagrams,
  and, the clock never moving, no timer fires;
* a scalar 256-byte message: ``send`` (which kicks), the receiving
  backend's ``service``, and ``poll`` until the queue is empty.

The pins are ceilings: they may only fall.  A failure prints the
per-function table, so the frame that came back names itself; ``-s``
prints the counts.
"""

from repro.am.core import AmConfig
from repro.analysis.hostcost import by_package, count_calls, per_function
from repro.core.clock import ManualClock
from repro.live import LiveAm, LiveCluster, make_transport

from .conftest import require

pytestmark = require("unix")

OPS = 200

#: calls into ``src/repro`` per 40-byte AM RPC.  242.0 before the packet
#: path did each check, copy and clock read once: no ``_observe`` frame
#: without a listener, no ``is_full`` / ``is_empty`` / ``max_pdu`` /
#: ``defer_kick`` property frames, slotted descriptors and ``Packet``, a
#: precompiled AM header, direct buffer-area slices and one clock
#: reading per service pass (15 clock reads per RPC before, 13 after)
CALLS_PER_RPC = 128.0
#: calls into ``src/repro`` per scalar 256-byte message (63.0 before)
CALLS_PER_SCALAR_MESSAGE = 27.0


def _am_pair(clock):
    cluster = LiveCluster(lambda name: make_transport("unix", name), clock)
    ep0 = cluster.add_node("n0").create_user_endpoint()
    ep1 = cluster.add_node("n1").create_user_endpoint()
    ch0, ch1 = cluster.connect(ep0, ep1)
    am0 = LiveAm(0, ep0, config=AmConfig())
    am1 = LiveAm(1, ep1, config=AmConfig())
    am0.connect_peer(1, ch0)
    am1.connect_peer(0, ch1)
    return cluster, am0, am1, ep0, ep1, ch0


def _check(name, counts, ceiling):
    per_op = sum(counts.values()) / OPS
    packages = {p: round(c / OPS, 2) for p, c in by_package(counts).items()}
    print(f"{name}: {per_op} calls into src/repro per op, by package {packages}")
    assert per_op <= ceiling, (
        f"{per_op} calls per {name}, ceiling {ceiling}; per function:\n"
        f"{per_function(counts, OPS)}")


def test_python_calls_per_live_am_rpc_are_pinned():
    clock = ManualClock()
    cluster, am0, am1, _ep0, _ep1, _ch0 = _am_pair(clock)
    try:
        am1.register_handler(1, lambda ctx: ctx.reply(args=(ctx.args[0],), data=ctx.data))
        payload = bytes(range(40))

        def pump():
            cluster.step()
            am0.service()
            am1.service()

        def rpcs():
            for i in range(OPS):
                assert am0.rpc(1, 1, args=(i,), data=payload, pump=pump) == ((i, 0, 0, 0), payload)

        am0.rpc(1, 1, args=(0,), data=payload, pump=pump)  # warm-up
        sent = sum(node.transport.tx_datagrams for node in cluster.nodes)
        counts = count_calls(rpcs)
        datagrams = sum(node.transport.tx_datagrams for node in cluster.nodes) - sent
        assert (datagrams, am0.acks_sent, am1.acks_sent) == (2 * OPS, 0, 0)
    finally:
        cluster.close()
    _check("40-byte AM RPC", counts, CALLS_PER_RPC)


def test_python_calls_per_live_scalar_message_are_pinned():
    clock = ManualClock()
    cluster, _am0, _am1, ep0, ep1, ch0 = _am_pair(clock)
    receiver = cluster.nodes[1]
    payload = bytes(range(256))
    try:
        def one():
            ep0.send(ch0, payload)
            receiver.service()
            message = ep1.poll()
            assert message.data == payload and ep1.poll() is None

        one()  # warm-up
        counts = count_calls(lambda: [one() for _ in range(OPS)])
    finally:
        cluster.close()
    _check("scalar 256-byte message", counts, CALLS_PER_SCALAR_MESSAGE)
