"""I/O bus, DMA and link timing models.

The PCA-200 sits on PCI (96-byte DMA bursts, per the paper); the older
SBA-200 used SBus (32-byte bursts).  The DC21140 is a PCI bus master.
DMA time is modelled as a fixed per-transfer setup cost plus a per-burst
arbitration cost plus serialization at the bus's sustained bandwidth.

Both NICs sit on the same kind of wire, a point-to-point line with a
rate and a propagation delay (OC-3c / TAXI fibre to the ASX-200,
100BaseTX full duplex to the Bay 28115): one :class:`Link` models it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from ..sim import Lane, Resource, Simulator, engine

__all__ = ["BusModel", "PCI_BUS", "SBUS", "DmaEngine", "Link"]


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
    """A DMA master on its bus.

    Its transfers serialize through one :class:`~repro.sim.Resource`,
    :attr:`arbiter`, modelling bus arbitration.  A device whose engine
    runs the transfer's steps in its own frame (the DC21140's) takes and
    gives back the arbiter and counts the transfer as :meth:`transfer`
    does.
    """

    COUNTERS = ("bytes_transferred", "transfers")

    def __init__(self, sim: Simulator, bus: BusModel, name: str = "dma") -> None:
        self.sim = sim
        self.bus = bus
        self.name = name
        self.arbiter = Resource(sim, capacity=1, name=f"{bus.name}-arb")
        self.bytes_transferred = 0
        self.transfers = 0

    def transfer(self, nbytes: int):
        """Sub-step (enter with ``yield from``): acquire the bus and move
        ``nbytes`` across it.  An idle bus costs the one heap entry of the
        transfer itself; only a contended one waits on an Event."""
        arbiter = self.arbiter
        if arbiter.in_use < arbiter.capacity:
            arbiter.in_use += 1
        else:
            yield arbiter.acquire()
        try:
            yield self.bus.transfer_time(nbytes)
            self.bytes_transferred += max(0, nbytes)
            self.transfers += 1
        finally:
            if arbiter.waiters:
                arbiter.waiters.popleft().succeed()
            else:
                arbiter.in_use -= 1
        # A sub-step that used to be a nested Process resumed its caller one
        # zero-delay hop after its last wake, i.e. behind whatever else was
        # already due at that instant.  The hop can order nothing when the
        # instant is otherwise empty, so it is taken only when it is not.
        sim = self.sim
        queue = sim._queue
        if queue and queue[0][0] <= sim._now:
            yield 0.0


class Link:
    """One direction of a point-to-point line: serialize, propagate, deliver.

    A unit (an ATM cell, an Ethernet frame: anything with ``wire_bytes``)
    occupies the wire for ``wire_bytes * 8 / rate_mbps`` and arrives
    ``propagation_us + framer_us`` after its last bit left — or, with
    ``header_bytes`` set, after its header left (a cut-through switch
    starts forwarding then; the wire stays busy for the whole unit).

    The link is *analytic*: instead of a pump process blocking on a store
    (roughly six kernel events per unit), ``submit`` computes the
    serialization window from a running busy-until clock and schedules
    one delivery on its :class:`_DeliveryLane`, deliveries being FIFO in
    time, so the units queued behind a slow wire cost the heap one entry,
    not one each.  ``deliver`` and ``up`` are read when a
    delivery fires: a fault stage that swaps ``deliver`` keeps working,
    and a unit arriving on a link that is down (a yanked fibre, a failed
    trunk) is counted in ``blackholed`` instead of delivered.

    A switch, whose forwarding latency is fixed, submits a unit *as of*
    the instant it leaves the fabric (``when``): hop and egress wire are
    one heap entry.  So does the PCA-200's SAR, a whole PDU at once, each
    cell as of the end of its pacing step.  Units queue in the order they
    are submitted.
    """

    COUNTERS = ("carried", "dropped", "blackholed", "queued", "in_flight")

    def __init__(
        self,
        sim: Simulator,
        rate_mbps: float,
        propagation_us: float,
        name: str,
        framer_us: float = 0.0,
        header_bytes: int = 0,
        buffer: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.rate_mbps = rate_mbps
        self.propagation_us = propagation_us
        self.name = name
        #: fixed per-traversal latency of the receiving framer
        self.framer_us = framer_us
        self.header_bytes = header_bytes
        #: finite output buffering (switch egress ports): units beyond
        #: this queue depth are dropped, as in a real switch under incast
        self.buffer = buffer
        self.up = True
        self.deliver: Optional[Callable] = None
        self._header_us = header_bytes * 8 / rate_mbps
        self._busy_until = 0.0
        self._unit_us = 0.0  # the last unit's wire time: what ``queued`` counts in
        self._pending = 0
        self._deliveries = _DeliveryLane(sim)  # busy-until only grows: so do delivery instants
        self.carried = 0
        self.dropped = 0
        self.blackholed = 0

    def submit(self, unit, when: Optional[float] = None) -> float:
        """Queue ``unit``, reaching the link now or at the later instant
        ``when``; returns the instant it has fully serialized onto the
        wire (the arrival instant, if the buffer drops it).  Only a
        sender that must hold off its next unit waits for that; a switch
        does not.

        One unit may be serializing plus ``buffer`` queued behind it; a
        queue slot frees at that unit's end-of-wire time.
        """
        sim = self.sim
        now = sim._now if when is None else when
        if self.buffer is not None:
            if when is not None:
                # how full a finite buffer is at ``when`` is known only then
                sim.call_at(when, self.submit, unit)
                return when
            if self._pending > self.buffer:
                self.dropped += 1
                return now  # dropped: the sender's wire time is over
        # the sums a plain submit at ``when`` evaluates: same floats either way
        start = self._busy_until if self._busy_until > now else now
        wire_us = unit.wire_bytes * 8 / self.rate_mbps
        end = start + wire_us
        self._busy_until = end
        self._unit_us = wire_us
        if self.buffer is not None:
            self._pending += 1
            sim.call_in(end - now, self._serialized_one)
        at = start + min(self._header_us, wire_us) if self.header_bytes else end
        self._deliveries.call_at(now + (at + self.propagation_us + self.framer_us - now),
                                 self._deliver_one, unit)
        return end

    @property
    def queued(self) -> int:
        """Units accepted but not yet fully serialized (incl. the one on
        the wire); unbuffered, counted in the last unit's wire time."""
        if self.buffer is not None:
            return self._pending
        remaining = self._busy_until - self.sim.now
        if remaining <= 0.0:
            return 0
        units = int(remaining / self._unit_us)
        return units + (1 if remaining - units * self._unit_us > 1e-12 else 0)

    @property
    def in_flight(self) -> int:
        """Units accepted and not yet delivered: what the delivery lane holds."""
        return len(self._deliveries)

    def _serialized_one(self) -> None:
        self._pending -= 1

    def _deliver_one(self, unit) -> None:  # a delivery that broke its lane's order
        if not self.up:
            self.blackholed += 1
            return
        self.carried += 1
        if self.deliver is not None:
            self.deliver(unit)


class _DeliveryLane(Lane):
    """A :class:`~repro.sim.Lane` of one link's ``_deliver_one`` calls
    whose head, when it fires, runs the delivery in its own frame: one
    frame per hop, not two.  Dispatch is :class:`Lane`'s, push for push."""

    __slots__ = ()

    def _fire(self, unit) -> None:
        link = self._fn.__self__  # the link whose ``_deliver_one`` this lane runs
        if self._held:
            when, seq, self._head.args = self._held.popleft()
            engine.heapq.heappush(self._sim._queue, (when, engine.NORMAL, seq, self._head))
        else:
            self._fn = self._head = self._held = None
        if not link.up:
            link.blackholed += 1
            return
        link.carried += 1
        if link.deliver is not None:
            link.deliver(unit)
