"""ATM send completions run ahead of the wire — today's depth, pinned.

A host uplink is a :class:`~repro.atm.phy.CellLink` with
``buffer=None``: the i960 hands it a cell every ~0.35 µs while
TAXI-140 serialises one every ~3.03 µs, so a stream's sends complete
long before their cells leave, and the difference stands in an output
queue the PCA-200 does not have.  The link's registry gauges show it:
``queued`` (cells accepted, not yet serialised) and ``in_flight`` (what
its delivery lane holds).  Bounding that FIFO is ROADMAP item 3(i); it
will show up here as a reviewed edit of the pinned depth.
"""

from repro.analysis.microbench import setup_atm
from repro.atm.phy import TAXI_140
from repro.telemetry import read

MESSAGES = 20
#: cells standing in the sender's uplink when its last send completes
PINNED_DEPTH = 391


def test_uplink_depth_at_the_last_send_completion():
    with setup_atm(TAXI_140) as setup:
        sim, link = setup.sim, setup.ep1.backend.tx_link
        endpoint = setup.ep1.endpoint
        completed_at = []
        send_completed = endpoint.send_completed

        def completed(descriptor):
            send_completed(descriptor)
            completed_at.append((sim.now, read(link)))

        endpoint.send_completed = completed

        def sender():
            for _ in range(MESSAGES):
                yield from setup.ep1.send(setup.ch1, bytes(1498))

        def receiver():
            for _ in range(MESSAGES):
                yield from setup.ep2.recv()
            return sim.now

        sim.process(sender())
        last_delivery = sim.run_until_complete(sim.process(receiver()))

    assert len(completed_at) == MESSAGES
    last_completion, gauges = completed_at[-1]
    assert gauges["queued"] == gauges["in_flight"] == PINNED_DEPTH
    assert gauges["dropped"] == 0
    # the queue only grows while the stream lasts ...
    depths = [g["queued"] for _t, g in completed_at]
    assert depths == sorted(depths)
    # ... because completions run ~3x ahead of the wire
    assert round(last_completion, 3) == 706.922
    assert round(last_delivery / last_completion, 2) == 2.85
