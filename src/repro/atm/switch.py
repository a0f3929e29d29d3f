"""The Fore ASX-200 ATM switch model.

The ASX-200 "forwards cells in about 7 us" (Section 4.1).  We model an
output-queued switch: a cell arriving on any input port is looked up in
the VCI routing table, charged the forwarding latency, and queued on the
output port's :class:`~repro.atm.phy.CellLink`, which serializes it at
the egress line rate.  Unknown VCIs are counted and dropped.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim import Simulator
from .cells import Cell
from .phy import CellLink

__all__ = ["AtmSwitch", "ASX200_FORWARD_US"]

#: per-cell forwarding latency of the ASX-200
ASX200_FORWARD_US = 7.0


class AtmSwitch:
    """Output-queued VCI-routing cell switch."""

    COUNTERS = ("cells_forwarded", "unknown_vci_drops")
    PARTS = ("ports",)

    def __init__(
        self,
        sim: Simulator,
        name: str = "asx200",
        forward_us: float = ASX200_FORWARD_US,
    ) -> None:
        self.sim = sim
        self.name = name
        self.forward_us = forward_us
        #: if set before ports attach, attach_egress caps each egress
        #: queue at this many cells (a finite-buffer test sets it)
        self.output_buffer: Optional[int] = None
        #: output ports by number; each is the egress CellLink toward a
        #: host or a trunk peer
        self.ports: Dict[int, CellLink] = {}
        #: VCI -> output port routing table (programmed by signaling)
        self._routes: Dict[int, int] = {}
        self.cells_forwarded = 0
        self.unknown_vci_drops = 0

    def attach_egress(self, egress: CellLink) -> int:
        """Connect an egress link (toward a host or a far switch); returns
        its port number, the next free one."""
        if self.output_buffer is not None:
            egress.buffer = self.output_buffer
        port = len(self.ports)
        self.ports[port] = egress
        return port

    def ingress(self, port: int):
        """The cell-arrival callback of ``port``'s ingress link: routing
        is by VCI alone, so every port shares the bound :meth:`on_cell`."""
        return self.on_cell

    def program_route(self, vci: int, port: int) -> None:
        """Signaling-plane: route cells on ``vci`` out of ``port``."""
        if port not in self.ports:
            raise ValueError(f"{self.name}: no such port {port}")
        self._routes[vci] = port

    def clear_routes(self) -> None:
        """Signaling-plane: tear every VC down (the fabric is closing)."""
        self._routes.clear()

    def on_cell(self, cell: Cell) -> None:
        """Ingress: called by the delivering CellLink."""
        port = self._routes.get(cell.vci)
        if port is None:
            self.unknown_vci_drops += 1
            return
        # the forwarding latency is fixed, so the egress link takes the cell
        # as of the instant it leaves the fabric: hop and egress wire are one
        # heap entry — the switch fabric is the hottest path in fat-tree sweeps
        self.cells_forwarded += 1
        self.ports[port].submit(cell, self.sim._now + self.forward_us)
