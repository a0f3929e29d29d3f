"""I/O bus and DMA timing models.

The PCA-200 sits on PCI (96-byte DMA bursts, per the paper); the older
SBA-200 used SBus (32-byte bursts).  The DC21140 is a PCI bus master.
DMA time is modelled as a fixed per-transfer setup cost plus a per-burst
arbitration cost plus serialization at the bus's sustained bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim import Resource, Simulator

__all__ = ["BusModel", "PCI_BUS", "SBUS", "DmaEngine"]


@dataclass(frozen=True)
class BusModel:
    """Timing parameters of an I/O bus."""

    name: str
    bandwidth_mbytes_per_s: float
    burst_bytes: int
    #: one-time transfer setup (descriptor fetch, address phase)
    setup_us: float
    #: re-arbitration cost paid once per burst
    per_burst_us: float

    def transfer_time(self, nbytes: int) -> float:
        """Bus time occupied by a DMA of ``nbytes`` bytes."""
        if nbytes <= 0:
            return self.setup_us
        bursts = max(1, math.ceil(nbytes / self.burst_bytes))
        return self.setup_us + bursts * self.per_burst_us + nbytes / self.bandwidth_mbytes_per_s


#: 32-bit 33 MHz PCI: 132 MB/s peak; the paper notes 96-byte bursts for
#: the PCA-200 and full-frame bus-master DMA for the DC21140.
PCI_BUS = BusModel(
    name="PCI-32/33",
    bandwidth_mbytes_per_s=110.0,
    burst_bytes=96,
    setup_us=0.30,
    per_burst_us=0.12,
)

#: SBus (SPARCstation hosts, SBA-200): 32-byte bursts, lower throughput.
SBUS = BusModel(
    name="SBus",
    bandwidth_mbytes_per_s=45.0,
    burst_bytes=32,
    setup_us=0.45,
    per_burst_us=0.18,
)


class DmaEngine:
    """A DMA master on a shared bus.

    Transfers from different devices on the same bus serialize through a
    shared :class:`~repro.sim.Resource`, modelling bus arbitration.
    """

    def __init__(self, sim: Simulator, bus: BusModel, shared_bus: Resource = None, name: str = "dma") -> None:
        self.sim = sim
        self.bus = bus
        self.name = name
        self._bus_resource = shared_bus or Resource(sim, capacity=1, name=f"{bus.name}-arb")
        self.bytes_transferred = 0
        self.transfers = 0

    @property
    def bus_resource(self) -> Resource:
        return self._bus_resource

    def transfer(self, nbytes: int):
        """Sub-step (enter with ``yield from``): acquire the bus and move
        ``nbytes`` across it.  An idle bus costs the one heap entry of the
        transfer itself; only a contended one waits on an Event."""
        if not self._bus_resource.try_acquire():
            yield self._bus_resource.acquire()
        try:
            yield self.bus.transfer_time(nbytes)
            self.bytes_transferred += max(0, nbytes)
            self.transfers += 1
        finally:
            self._bus_resource.release()
        # A sub-step that used to be a nested Process resumed its caller one
        # zero-delay hop after its last wake, i.e. behind whatever else was
        # already due at that instant.  The hop can order nothing when the
        # instant is otherwise empty, so it is taken only when it is not.
        if self.sim.peek() <= self.sim.now:
            yield 0.0
