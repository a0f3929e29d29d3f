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

    def __init__(
        self,
        sim: Simulator,
        name: str = "asx200",
        forward_us: float = ASX200_FORWARD_US,
        output_buffer_cells: int = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.forward_us = forward_us
        #: if set, attach_port caps each egress queue at this many cells
        self.output_buffer_cells = output_buffer_cells
        #: output ports by number; each is the egress CellLink toward a host
        self._ports: Dict[int, CellLink] = {}
        #: VCI -> output port routing table (programmed by signaling)
        self._routes: Dict[int, int] = {}
        self.cells_forwarded = 0
        self.unknown_vci_drops = 0

    def counters(self) -> dict:
        return {"cells_forwarded": self.cells_forwarded,
                "unknown_vci_drops": self.unknown_vci_drops}

    def attach_port(self, port: int, egress: CellLink) -> None:
        if port in self._ports:
            raise ValueError(f"{self.name}: port {port} already attached")
        if self.output_buffer_cells is not None:
            egress.buffer_cells = self.output_buffer_cells
        self._ports[port] = egress

    @property
    def cells_dropped(self) -> int:
        """Total egress-buffer overflows across all ports."""
        return sum(link.cells_dropped for link in self._ports.values())

    def program_route(self, vci: int, port: int) -> None:
        """Signaling-plane: route cells on ``vci`` out of ``port``."""
        if port not in self._ports:
            raise ValueError(f"{self.name}: no such port {port}")
        self._routes[vci] = port

    def clear_routes(self) -> None:
        """Signaling-plane: tear every VC down (the fabric is closing)."""
        self._routes.clear()

    def route_for(self, vci: int) -> Optional[int]:
        return self._routes.get(vci)

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
        self._ports[port].submit(cell, self.sim.now + self.forward_us)
