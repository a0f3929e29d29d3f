"""End-to-end message journey tracing.

Figures 3 and 4 show the two kernel paths in isolation; this module
stitches *every* stage of one message's life — application compose,
trap/doorbell, NIC DMA, wire serialization, switch forwarding, receive
path, application consume — into a single annotated timeline, for
either substrate.  Useful for teaching and for sanity-checking where a
microsecond actually goes.
"""

from __future__ import annotations

from typing import List

from .. import networks
from ..hw.cpu import PENTIUM_120, CpuModel
from ..sim import Simulator, Timeline, TraceRecord, TraceRecorder
from ..sim.trace import EVENTS
from .microbench import two_host_rig
from .timelines import TRACED_ENDPOINT

__all__ = ["trace_journey", "render_journey"]


def trace_journey(substrate: str = "fe", size: int = 40, cpu: CpuModel = PENTIUM_120) -> Timeline:
    """One instrumented one-way transfer; returns the merged timeline.

    ``substrate`` names a row of :mod:`repro.networks` whose hosts
    carry one NI (``"fe"`` is the Bay 28115 switch, ``"atm"`` the
    ASX-200).  Both hosts' streams feed one recording; the instants of
    the layers above the NI (:data:`~repro.sim.trace.EVENTS`) are not
    steps of the journey.
    """
    row = networks.get(substrate)
    agent = row.ni.agent
    trace = TraceRecorder()
    rig = two_host_rig(row.build(Simulator()), cpu, names=("src", "dst"),
                       config=TRACED_ENDPOINT, rx_buffers=16)
    sim, ep1, ep2, ch1 = rig.sim, rig.ep1, rig.ep2, rig.ch1
    for endpoint in (ep1, ep2):
        endpoint.backend.trace.subscribe(trace.records.append)

    def tx():
        start = sim.now
        yield from ep1.send(ch1, bytes(size))
        # the user-level portion (compose copy + descriptor push) spans
        # from start to the backend kick; record it as one step
        trace.record(start, cpu.copy_time(size) + 0.3, "app",
                     "src app: compose message + push descriptor", begin=True)

    def rx():
        message = yield from ep2.recv()
        trace.record(sim.now - 0.25, 0.25, "app", "dst app: pop descriptor, consume")
        return message

    with rig:
        sim.process(tx())
        sim.run_until_complete(sim.process(rx()))
    records = sorted((r for r in trace.records if r.category not in EVENTS),
                     key=lambda r: (r.start, r.end))
    merged: List[TraceRecord] = [
        TraceRecord(r.start, r.duration, "journey",
                    r.step if ":" in r.step else _prefix(r, agent), dict(r.info))
        for r in records
    ]
    return Timeline("journey", merged)


def _prefix(record: TraceRecord, agent: str) -> str:
    category = record.category
    if category.endswith(".tx"):
        return f"src {agent}: {record.step}"
    if category.endswith(".rx"):
        return f"dst {agent}: {record.step}"
    return f"{category}: {record.step}"


def render_journey(substrate: str = "fe", size: int = 40) -> str:
    timeline = trace_journey(substrate, size)
    return timeline.render(
        title=f"One-way journey of a {size}-byte message over {networks.get(substrate).label} "
              f"(total {timeline.total:.1f} us)",
        width=50,
    )
