"""Step timelines of the U-Net/FE kernel paths (Figures 3 and 4).

Runs one instrumented message transfer and extracts the traced step
sequence of the transmit trap and the receive interrupt handler.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.endpoint import EndpointConfig
from ..ethernet.network import HubNetwork
from ..ethernet.unet_fe import RX_TRACE, TX_TRACE
from ..hw.cpu import PENTIUM_120, CpuModel
from ..sim import Simulator, Timeline, TraceRecorder
from .microbench import two_host_rig

__all__ = ["trace_transfer", "figure3_timeline", "figure4_timeline", "atm_trace_transfer"]


#: endpoint sizing of the one-message traced rigs (here and the journey)
TRACED_ENDPOINT = EndpointConfig(num_buffers=64, buffer_size=2048)


def _traced_transfer(net, size: int, cpu: CpuModel, tx_category: str,
                     rx_category: str) -> Tuple[Timeline, Timeline]:
    """One traced ``size``-byte message across a fresh two-host ``net``."""
    trace = TraceRecorder()
    with two_host_rig(net, cpu, config=TRACED_ENDPOINT, rx_buffers=16, trace=trace) as rig:
        rig.sim.process(rig.ep1.send(rig.ch1, bytes(size)))
        rig.sim.run_until_complete(rig.sim.process(rig.ep2.recv()))
    tx_span = trace.last_span(tx_category)
    rx_span = trace.last_span(rx_category)
    if tx_span is None or rx_span is None:
        raise RuntimeError("transfer produced no trace")
    return tx_span, rx_span


def trace_transfer(size: int, cpu: CpuModel = PENTIUM_120) -> Tuple[Timeline, Timeline]:
    """Send one ``size``-byte message; returns (tx trap, rx handler) timelines."""
    return _traced_transfer(HubNetwork(Simulator()), size, cpu, TX_TRACE, RX_TRACE)


def atm_trace_transfer(size: int, cpu: CpuModel = PENTIUM_120) -> Tuple[Timeline, Timeline]:
    """One traced U-Net/ATM transfer; returns (i960 TX, i960 RX) timelines.

    There is no ATM timeline figure in the paper (Section 4.2 describes
    the firmware in prose), but the same instrumentation that produces
    Figures 3 and 4 applies; useful for inspecting the single-cell fast
    path versus the reassembly slow path.
    """
    from ..atm.network import AtmNetwork
    from ..atm.unet_atm import ATM_RX_TRACE, ATM_TX_TRACE

    return _traced_transfer(AtmNetwork(Simulator()), size, cpu, ATM_TX_TRACE, ATM_RX_TRACE)


def figure3_timeline(size: int = 40) -> Timeline:
    """The Figure-3 transmit timeline (40-byte message, 4.2 us)."""
    tx_span, _rx = trace_transfer(size)
    return tx_span


def figure4_timeline(size: int) -> Timeline:
    """A Figure-4 receive timeline (40 bytes -> 4.1 us, 100 -> 5.6 us)."""
    _tx, rx_span = trace_transfer(size)
    return rx_span
