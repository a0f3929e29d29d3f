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

A :class:`CellLink` is a :class:`~repro.hw.bus.Link` at a PHY's cell
rate: cells serialize at the line's cell time, then arrive after the
propagation delay and the framer latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..hw.bus import Link
from ..sim import Simulator
from .cells import CELL_PAYLOAD_SIZE, CELL_SIZE

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


class CellLink(Link):
    """A :class:`~repro.hw.bus.Link` on an ATM PHY: cells serialize at
    the PHY's cell rate and arrive after the propagation delay plus the
    framer latency."""

    def __init__(
        self,
        sim: Simulator,
        phy: AtmPhy,
        propagation_us: float = 0.5,
        name: str = "cell-link",
        buffer: Optional[int] = None,
    ) -> None:
        super().__init__(sim, phy.cell_rate_mbps, propagation_us, name,
                         framer_us=phy.framer_latency_us, buffer=buffer)

    @property
    def cells_carried(self) -> int:
        """``carried`` under the name the perfbench cell count reads."""
        return self.carried
