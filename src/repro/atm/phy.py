"""ATM physical links.

Two PHYs from the paper:

* **OC-3c SONET** — 155.52 Mb/s gross, of which SONET section/line/path
  overhead leaves a 149.76 Mb/s payload envelope for cells.  With the
  5/53 cell-header tax the maximum AAL5 payload rate is ~135.6 Mb/s; the
  paper quotes "not 155 Mbps, but rather 138 Mbps" — same ballpark.
* **140 Mb/s TAXI** — no SONET framing; cells go at 140 Mb/s line rate,
  for a ~126.8 Mb/s AAL5 payload ceiling ("the maximum achievable
  bandwidth for the 140Mbps TAXI link" is quoted as 120 Mb/s once
  firmware costs are added).

A :class:`CellLink` is a unidirectional cell pipe: cells serialize at
the line's cell time, then arrive after the propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Simulator
from .cells import CELL_PAYLOAD_SIZE, CELL_SIZE, Cell

__all__ = ["AtmPhy", "OC3_SONET", "TAXI_140", "CellLink"]


@dataclass(frozen=True)
class AtmPhy:
    """Line-rate model of an ATM PHY."""

    name: str
    gross_mbps: float
    #: fraction of the gross rate available to carry cells (SONET tax)
    payload_fraction: float
    #: fixed per-link-traversal latency of the framer/delineation logic.
    #: The paper measures 89 us RTT over OC-3c SONET against 65 us for the
    #: same firmware over TAXI and attributes the difference to "OC-3c
    #: SONET framing"; this constant carries that overhead.
    framer_latency_us: float = 0.0

    @property
    def cell_rate_mbps(self) -> float:
        return self.gross_mbps * self.payload_fraction

    @property
    def cell_time_us(self) -> float:
        """Time to serialize one 53-byte cell."""
        return CELL_SIZE * 8 / self.cell_rate_mbps

    @property
    def max_payload_mbps(self) -> float:
        """AAL5 payload ceiling (cell-header tax applied)."""
        return self.cell_rate_mbps * CELL_PAYLOAD_SIZE / CELL_SIZE


OC3_SONET = AtmPhy(
    name="OC-3c/SONET",
    gross_mbps=155.52,
    payload_fraction=149.76 / 155.52,
    framer_latency_us=4.0,
)
TAXI_140 = AtmPhy(name="TAXI-140", gross_mbps=140.0, payload_fraction=1.0, framer_latency_us=0.0)


class CellLink:
    """Unidirectional point-to-point cell pipe.

    Cells serialize back to back at the PHY's cell time; delivery happens
    ``propagation_us`` (plus the framer latency) later through the
    ``deliver`` callback (set by whoever owns the receiving end).

    The pipe is *analytic*: instead of a pump process blocking on a
    store (roughly six kernel events per cell), ``submit`` computes the
    serialization window from a running ``busy-until`` clock and
    schedules a single delivery callback — on a :class:`~repro.sim.Lane`,
    deliveries being FIFO in time, so the cells queued behind a slow
    wire cost the heap one entry, not one each.  The late-bound ``deliver``
    attribute is read at fire time, so fault pipelines and link-flap
    stages that swap it keep working.

    A switch, whose forwarding latency is fixed, submits a cell *as of*
    the instant it leaves the fabric (``when``): hop and egress wire are
    one heap entry.  A link has one feeder, so as-of instants arrive in
    order like ``sim.now`` does.
    """

    COUNTERS = ("cells_carried", "cells_dropped", "queued", "in_flight")

    def __init__(
        self,
        sim: Simulator,
        phy: AtmPhy,
        propagation_us: float = 0.5,
        name: str = "cell-link",
        buffer_cells: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.phy = phy
        self.propagation_us = propagation_us
        self.name = name
        self.deliver: Optional[Callable[[Cell], None]] = None
        #: finite output buffering (switch egress ports): cells beyond
        #: this queue depth are dropped, as in a real switch under incast
        self.buffer_cells = buffer_cells
        self._cell_time_us = phy.cell_time_us  # two property hops, once instead of per cell
        self._busy_until = 0.0
        self._pending = 0
        self._deliveries = sim.lane()  # busy-until only grows: so do delivery instants
        self.cells_carried = 0
        self.cells_dropped = 0

    def submit(self, cell: Cell, when: Optional[float] = None) -> None:
        """Queue a cell for transmission (sender side, non-blocking),
        reaching the link now or at the later instant ``when``.

        Drops (and counts) the cell when the output buffer is full: one
        cell may be serializing onto the wire plus ``buffer_cells``
        queued behind it, matching a real switch egress port under
        incast.  A queue slot frees when its cell finishes serializing.
        """
        sim = self.sim
        if self.buffer_cells is not None:
            if when is not None:
                # how full a finite buffer is at ``when`` is known only then
                sim.call_at(when, self.submit, cell)
                return
            if self._pending > self.buffer_cells:
                self.cells_dropped += 1
                return
        # the sums a plain submit at ``when`` evaluates: same floats either way
        now = sim.now if when is None else when
        start = self._busy_until if self._busy_until > now else now
        end = start + self._cell_time_us
        self._busy_until = end
        if self.buffer_cells is not None:
            self._pending += 1
            sim.call_in(end - now, self._serialized_one)
        self._deliveries.call_at(
            now + (end + self.propagation_us + self.phy.framer_latency_us - now),
            self._deliver_one, cell)

    @property
    def queued(self) -> int:
        """Cells accepted but not yet fully serialized (incl. in flight)."""
        if self.buffer_cells is not None:
            return self._pending
        remaining = self._busy_until - self.sim.now
        if remaining <= 0.0:
            return 0
        cells = int(remaining / self.phy.cell_time_us)
        return cells + (1 if remaining - cells * self.phy.cell_time_us > 1e-12 else 0)

    @property
    def in_flight(self) -> int:
        """Cells accepted and not yet delivered: what the delivery lane holds."""
        return len(self._deliveries)

    def _serialized_one(self) -> None:
        self._pending -= 1

    def _deliver_one(self, cell: Cell) -> None:
        self.cells_carried += 1
        if self.deliver is not None:
            self.deliver(cell)
