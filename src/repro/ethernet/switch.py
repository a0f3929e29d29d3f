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
from typing import Dict

from ..sim import Simulator
from .frames import EthernetFrame, MacAddress
from .medium import DuplexLink, SimplexChannel

__all__ = ["SwitchModel", "BAY_28115", "FN100", "EthernetSwitch", "TrunkPort"]


@dataclass(frozen=True)
class SwitchModel:
    """Forwarding characteristics of one switch product."""

    name: str
    ports: int
    #: per-frame processing/lookup latency
    latency_us: float
    #: True: wait for the whole frame before forwarding
    store_and_forward: bool


#: Bay Networks 28115 16-port switch (cut-through class device)
BAY_28115 = SwitchModel(name="Bay-28115", ports=16, latency_us=4.0, store_and_forward=False)

#: Cabletron FastNet-100 8-port switch (store-and-forward; the slowest
#: of the three Figure-5 configurations at 91 us for 40 bytes)
FN100 = SwitchModel(name="Cabletron-FN100", ports=8, latency_us=10.0, store_and_forward=True)


class TrunkPort:
    """A switch-to-switch port: just an egress channel, no station.

    Quacks enough like :class:`~repro.ethernet.medium.DuplexLink` (a
    ``downlink`` egress the switch submits into) for the forwarding and
    drop-accounting paths not to care which kind of port they hit.
    """

    __slots__ = ("downlink",)

    def __init__(self, egress: SimplexChannel) -> None:
        self.downlink = egress


class EthernetSwitch:
    """A learning-free (statically configured) output-queued switch."""

    def __init__(
        self,
        sim: Simulator,
        model: SwitchModel,
        rate_mbps: float = 100.0,
        output_buffer_frames: int = None,
        learning: bool = False,
    ) -> None:
        self.sim = sim
        self.model = model
        self.rate_mbps = rate_mbps
        #: if set, each egress port queues at most this many frames
        self.output_buffer_frames = output_buffer_frames
        #: transparent-bridge mode: learn source MACs from traffic and
        #: flood unknown destinations, instead of the static table the
        #: topology builders program
        self.learning = learning
        self._links: Dict[int, DuplexLink] = {}
        self._mac_table: Dict[MacAddress, int] = {}
        self.frames_forwarded = 0
        self.frames_flooded = 0
        self.unknown_mac_drops = 0

    def counters(self) -> dict:
        return {"frames_forwarded": self.frames_forwarded,
                "unknown_mac_drops": self.unknown_mac_drops}

    @property
    def ports_used(self) -> int:
        return len(self._links)

    @property
    def frames_dropped(self) -> int:
        """Total egress-buffer overflows across all ports."""
        return sum(link.downlink.frames_dropped for link in self._links.values())

    def attach(self, mac: MacAddress, propagation_us: float = 0.5) -> DuplexLink:
        """Connect a station; returns the NIC-side attachment."""
        if len(self._links) >= self.model.ports:
            raise ValueError(f"{self.model.name} has only {self.model.ports} ports")
        port = len(self._links)
        link = DuplexLink(
            self.sim,
            self.rate_mbps,
            propagation_us,
            name=f"{self.model.name}.p{port}",
            uplink_delivers_at_header=not self.model.store_and_forward,
        )
        if self.output_buffer_frames is not None:
            link.downlink.buffer_frames = self.output_buffer_frames
        self._links[port] = link
        if not self.learning:
            self._mac_table[mac] = port
        # frames the station sends arrive at the switch through its uplink
        link.uplink.deliver = lambda frame, _port=port: self._on_frame(frame, _port)
        return link

    def attach_trunk(self, egress: SimplexChannel) -> int:
        """Connect a switch-to-switch trunk; returns its port number.

        ``egress`` carries frames away from this switch; the fabric
        builder wires its ``deliver`` into the far switch's
        :meth:`ingress` and wires the reverse trunk symmetrically.
        """
        if len(self._links) >= self.model.ports:
            raise ValueError(f"{self.model.name} has only {self.model.ports} ports")
        if self.output_buffer_frames is not None:
            egress.buffer_frames = self.output_buffer_frames
        port = len(self._links)
        self._links[port] = TrunkPort(egress)
        return port

    def ingress(self, port: int):
        """The frame-arrival callback for trunk wiring (binds ``port``)."""
        return lambda frame: self._on_frame(frame, port)

    def program_mac(self, mac: MacAddress, port: int) -> None:
        """Statically program a forwarding entry (fabric signaling plane)."""
        if port not in self._links:
            raise ValueError(f"{self.model.name}: no such port {port}")
        self._mac_table[mac] = port

    def knows(self, mac: MacAddress) -> bool:
        """True once the bridge has a forwarding entry for ``mac``."""
        return mac in self._mac_table

    def _on_frame(self, frame: EthernetFrame, ingress_port: int) -> None:
        if self.learning:
            # transparent bridging: remember where the sender lives
            self._mac_table[frame.src_mac] = ingress_port
        egress_port = self._mac_table.get(frame.dst_mac)
        if egress_port == ingress_port:
            self.unknown_mac_drops += 1
            return
        if egress_port is None:
            if not self.learning:
                self.unknown_mac_drops += 1
                return
            # unknown destination: flood every other port
            self.frames_flooded += 1
            leaves_at = self.sim.now + self.model.latency_us
            for port, link in self._links.items():
                if port != ingress_port:
                    link.downlink.submit(frame, leaves_at)
            return
        # cut-through switches receive the frame at header time (the
        # ingress channel is configured to deliver early); store-and-
        # forward switches receive it at end-of-frame.  Either way the
        # address lookup costs the model's latency before the egress
        # port starts serializing.  That latency is fixed, so the egress
        # channel takes the frame as of the instant the lookup ends: hop
        # and egress wire are one heap entry, which keeps big fabrics cheap.
        self.frames_forwarded += 1
        self._links[egress_port].downlink.submit(frame, self.sim.now + self.model.latency_us)
