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

from ..core.endpoint import EndpointConfig
from ..hw.cpu import PENTIUM_120, CpuModel
from ..sim import Simulator, Timeline, TraceRecord, TraceRecorder

__all__ = ["trace_journey", "render_journey"]

_CONFIG = EndpointConfig(num_buffers=64, buffer_size=2048)


def trace_journey(substrate: str = "fe", size: int = 40, cpu: CpuModel = PENTIUM_120) -> Timeline:
    """One instrumented one-way transfer; returns the merged timeline.

    ``substrate`` is ``"fe"`` (Bay 28115 switch) or ``"atm"`` (ASX-200).
    """
    if substrate not in ("fe", "atm"):
        raise ValueError(f"unknown substrate {substrate!r} (fe, atm)")
    sim = Simulator()
    trace = TraceRecorder()
    if substrate == "fe":
        from ..ethernet.network import SwitchedNetwork

        net = SwitchedNetwork(sim)
        h1 = net.add_host("src", cpu, trace=trace)
        h2 = net.add_host("dst", cpu, trace=trace)
        h1.backend.nic.trace = trace
        h2.backend.nic.trace = trace
    else:
        from ..atm.network import AtmNetwork

        net = AtmNetwork(sim)
        h1 = net.add_host("src", cpu, trace=trace)
        h2 = net.add_host("dst", cpu, trace=trace)
    ep1 = h1.create_endpoint(config=_CONFIG, rx_buffers=16)
    ep2 = h2.create_endpoint(config=_CONFIG, rx_buffers=16)
    ch1, ch2 = net.connect(ep1, ep2)

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

    with net:
        sim.process(tx())
        sim.run_until_complete(sim.process(rx()))
    records = sorted(trace.records, key=lambda r: (r.start, r.end))
    merged: List[TraceRecord] = [
        TraceRecord(r.start, r.duration, "journey",
                    r.step if ":" in r.step else _prefix(r, substrate), dict(r.info))
        for r in records
    ]
    return Timeline("journey", merged)


def _prefix(record: TraceRecord, substrate: str) -> str:
    category = record.category
    if category.endswith(".tx") or category == "unet_fe.tx":
        who = "src kernel" if substrate == "fe" else "src i960"
        return f"{who}: {record.step}"
    if category.endswith(".rx"):
        who = "dst kernel" if substrate == "fe" else "dst i960"
        return f"{who}: {record.step}"
    return f"{category}: {record.step}"


def render_journey(substrate: str = "fe", size: int = 40) -> str:
    timeline = trace_journey(substrate, size)
    label = "U-Net/FE (Bay 28115)" if substrate == "fe" else "U-Net/ATM (ASX-200)"
    return timeline.render(
        title=f"One-way journey of a {size}-byte message over {label} "
              f"(total {timeline.total:.1f} us)",
        width=50,
    )
