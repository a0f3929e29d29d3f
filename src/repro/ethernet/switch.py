"""Fast Ethernet switches.

The paper benchmarks two: a Bay Networks 28115 16-port switch and a
Cabletron FastNet-100 8-port switch; their different per-frame
forwarding behaviour separates the three U-Net/FE round-trip curves in
Figure 5.  We model the Bay 28115 as a cut-through switch (forwarding
begins once the header is in) and the FN100 as store-and-forward
(forwarding begins after the full frame), each with its own processing
latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict

from ..hw.bus import Link
from ..sim import Simulator
from .frames import CUT_THROUGH_BYTES, EthernetFrame, MacAddress
from .medium import DuplexLink

__all__ = ["SwitchModel", "BAY_28115", "FN100", "EthernetSwitch"]


@dataclass(frozen=True)
class SwitchModel:
    """Forwarding characteristics of one switch product."""

    name: str
    ports: int
    #: per-frame processing/lookup latency
    latency_us: float
    #: True: wait for the whole frame before forwarding
    store_and_forward: bool

    @property
    def ingress_header_bytes(self) -> int:
        """How much of a frame its ingress link delivers early: the
        header on a cut-through switch, nothing (whole frames) otherwise."""
        return 0 if self.store_and_forward else CUT_THROUGH_BYTES


#: Bay Networks 28115 16-port switch (cut-through class device)
BAY_28115 = SwitchModel(name="Bay-28115", ports=16, latency_us=4.0, store_and_forward=False)

#: Cabletron FastNet-100 8-port switch (store-and-forward; the slowest
#: of the three Figure-5 configurations at 91 us for 40 bytes)
FN100 = SwitchModel(name="Cabletron-FN100", ports=8, latency_us=10.0, store_and_forward=True)


class EthernetSwitch:
    """A learning-free (statically configured) output-queued switch."""

    COUNTERS = ("frames_forwarded", "unknown_mac_drops")
    PARTS = ("ports",)

    def __init__(
        self,
        sim: Simulator,
        model: SwitchModel,
        rate_mbps: float = 100.0,
        output_buffer: int = None,
    ) -> None:
        self.sim = sim
        self.model = model
        self.rate_mbps = rate_mbps
        #: if set, each egress port queues at most this many frames
        self.output_buffer = output_buffer
        #: output ports by number; each is the egress Link toward a
        #: station or a trunk peer
        self.ports: Dict[int, Link] = {}
        self._mac_table: Dict[MacAddress, int] = {}
        self.frames_forwarded = 0
        self.unknown_mac_drops = 0

    def attach(self, mac: MacAddress, propagation_us: float = 0.5) -> DuplexLink:
        """Connect a station; returns the NIC-side attachment."""
        link = DuplexLink(
            self.sim,
            self.rate_mbps,
            propagation_us,
            name=f"{self.model.name}.p{len(self.ports)}",
            uplink_header_bytes=self.model.ingress_header_bytes,
        )
        port = self.attach_egress(link.downlink)
        self._mac_table[mac] = port
        # frames the station sends arrive at the switch through its uplink
        link.uplink.deliver = self.ingress(port)
        return link

    def attach_egress(self, egress: Link) -> int:
        """Connect an egress link (toward a station or, for a trunk, a
        far switch); returns its port number.

        For a trunk, the fabric builder wires ``egress.deliver`` into the
        far switch's :meth:`ingress` and the reverse trunk symmetrically.
        """
        if len(self.ports) >= self.model.ports:
            raise ValueError(f"{self.model.name} has only {self.model.ports} ports")
        if self.output_buffer is not None:
            egress.buffer = self.output_buffer
        port = len(self.ports)
        self.ports[port] = egress
        return port

    def ingress(self, port: int):
        """The frame-arrival callback of ``port``'s ingress link."""
        return partial(self._on_frame, port)

    def program_mac(self, mac: MacAddress, port: int) -> None:
        """Statically program a forwarding entry (fabric signaling plane)."""
        if port not in self.ports:
            raise ValueError(f"{self.model.name}: no such port {port}")
        self._mac_table[mac] = port

    def _on_frame(self, ingress_port: int, frame: EthernetFrame) -> None:
        egress_port = self._mac_table.get(frame.dst_mac)
        if egress_port is None or egress_port == ingress_port:
            self.unknown_mac_drops += 1
            return
        # cut-through switches receive the frame at header time (the
        # ingress link is configured to deliver early); store-and-
        # forward switches receive it at end-of-frame.  Either way the
        # address lookup costs the model's latency before the egress
        # port starts serializing.  That latency is fixed, so the egress
        # link takes the frame as of the instant the lookup ends: hop
        # and egress wire are one heap entry, which keeps big fabrics cheap.
        self.frames_forwarded += 1
        self.ports[egress_port].submit(frame, self.sim._now + self.model.latency_us)
