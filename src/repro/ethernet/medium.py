"""Ethernet media: the shared CSMA/CD bus (hub) and full-duplex links.

The paper contrasts Ethernet's traditionally shared medium — "all
stations compete for use of the wire, using exponential backoff
algorithms for retransmission in case of collision" — with switched
full-duplex links.  Both are modelled here behind one tiny attachment
interface so the DC21140 does not care what it is plugged into.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..hw.bus import Link
from ..sim import Event, Simulator
from ..sim.rng import RngRegistry
from .frames import EthernetFrame, wire_time_us

__all__ = [
    "Attachment",
    "SharedMedium",
    "HubAttachment",
    "DuplexLink",
    "ExcessiveCollisions",
    "SLOT_TIME_US",
    "IFG_US",
    "JAM_US",
    "MAX_ATTEMPTS",
]

#: 512-bit slot time at 100 Mb/s
SLOT_TIME_US = 5.12
#: 96-bit inter-frame gap at 100 Mb/s
IFG_US = 0.96
#: 32-bit jam sequence plus abort overhead
JAM_US = 3.2
#: transmit attempts before the controller gives up (16, per 802.3)
MAX_ATTEMPTS = 16
#: carrier-sense blind window: a station cannot sense a transmission that
#: began less than one propagation time ago, so it starts anyway and
#: collides (64 bit times at 100 Mb/s)
COLLISION_WINDOW_US = 0.512


class ExcessiveCollisions(Exception):
    """A frame was dropped after 16 failed transmission attempts."""


class Attachment:
    """What a NIC plugs into.

    ``transmit`` is a simulation process that completes when the frame
    has been put on the wire; ``receive`` is a callback the NIC installs
    to learn about inbound frames.
    """

    def transmit(self, frame: EthernetFrame):
        raise NotImplementedError

    def set_receiver(self, receive: Callable[[EthernetFrame], None]) -> None:
        raise NotImplementedError


class _ActiveTx:
    __slots__ = ("collision", "start")

    def __init__(self, collision: Event, start: float) -> None:
        self.collision = collision
        self.start = start


class SharedMedium:
    """Half-duplex CSMA/CD broadcast bus (a 100BaseTX hub).

    Stations that find the medium idle after the same inter-frame gap
    start in the same simulation instant and collide; each jams, backs
    off by a random number of slot times (binary exponential backoff),
    and retries, exactly the classic algorithm.
    """

    COUNTERS = ("frames_carried", "collisions", "drops_excessive_collisions")

    def __init__(self, sim: Simulator, rate_mbps: float = 100.0, rng: Optional[RngRegistry] = None) -> None:
        self.sim = sim
        self.rate_mbps = rate_mbps
        self.rng = (rng or RngRegistry()).stream("ethernet.backoff")
        self.stations: List["HubAttachment"] = []
        self._active: List[_ActiveTx] = []
        self._idle_waiters: List[Event] = []
        self.collisions = 0
        self.frames_carried = 0
        self.drops_excessive_collisions = 0

    def attach(self) -> "HubAttachment":
        station = HubAttachment(self)
        self.stations.append(station)
        return station

    def _wait_idle(self) -> Event:
        event = Event(self.sim, "medium.idle")
        self._idle_waiters.append(event)
        return event

    def _gone_idle(self) -> None:
        if not self._active:
            waiters, self._idle_waiters = self._idle_waiters, []
            for event in waiters:
                event.succeed()

    def _transmit(self, station: "HubAttachment", frame: EthernetFrame):
        sim, active = self.sim, self._active
        attempts = 0
        while True:
            # carrier sense, then wait the inter-frame gap; a transmission
            # younger than the blind window is not sensed yet
            while active and all(sim._now - tx.start >= COLLISION_WINDOW_US for tx in active):
                yield self._wait_idle()
            yield IFG_US
            if active and all(sim._now - tx.start >= COLLISION_WINDOW_US for tx in active):
                continue
            tx = _ActiveTx(Event(sim, "collision"), sim._now)
            active.append(tx)
            if len(active) > 1:
                # starts within the blind window: everyone active collides
                self.collisions += 1
                for other in list(active):
                    if not other.collision._triggered:
                        other.collision.succeed()
            finish = sim.timeout(wire_time_us(frame, self.rate_mbps))
            yield sim.any_of([finish, tx.collision])
            if tx.collision._triggered:
                active.remove(tx)
                self._gone_idle()
                yield JAM_US
                attempts += 1
                if attempts >= MAX_ATTEMPTS:
                    self.drops_excessive_collisions += 1
                    raise ExcessiveCollisions(f"frame dropped after {attempts} attempts")
                backoff_slots = self.rng.randrange(0, 2 ** min(attempts, 10))
                yield backoff_slots * SLOT_TIME_US
                continue
            # success: broadcast to every other station
            active.remove(tx)
            self._gone_idle()
            self.frames_carried += 1
            for other in self.stations:
                if other is not station and other.receive is not None:
                    other.receive(frame)
            return


class HubAttachment(Attachment):
    """One station's tap on a :class:`SharedMedium`."""

    def __init__(self, medium: SharedMedium) -> None:
        self.medium = medium
        self.receive: Optional[Callable[[EthernetFrame], None]] = None

    def transmit(self, frame: EthernetFrame):
        return self.medium._transmit(self, frame)  # the CSMA/CD process itself: no frame of ours per wait

    def set_receiver(self, receive: Callable[[EthernetFrame], None]) -> None:
        self.receive = receive


class DuplexLink(Attachment):
    """The NIC side of a full-duplex point-to-point link (to a switch).

    ``uplink`` carries frames away from the NIC; the switch pushes
    frames for the NIC into ``downlink``, whose deliver callback feeds
    the NIC's receiver.  Each is a :class:`~repro.hw.bus.Link`; a
    cut-through switch has its uplink deliver once ``uplink_header_bytes``
    are in.  The uplink is the NIC's telemetry part, the downlink the
    switch's (an egress is counted by whoever feeds it).
    """

    PARTS = ("uplink",)

    def __init__(
        self,
        sim: Simulator,
        rate_mbps: float = 100.0,
        propagation_us: float = 0.5,
        name: str = "link",
        uplink_header_bytes: int = 0,
    ) -> None:
        self.sim = sim
        self.uplink = Link(sim, rate_mbps, propagation_us, f"{name}.up",
                           header_bytes=uplink_header_bytes)
        self.downlink = Link(sim, rate_mbps, propagation_us, f"{name}.down")

    def transmit(self, frame: EthernetFrame):
        # full duplex: the only wait is our own uplink serialization
        yield self.uplink.submit(frame) - self.sim._now

    def set_receiver(self, receive: Callable[[EthernetFrame], None]) -> None:
        self.downlink.deliver = receive
