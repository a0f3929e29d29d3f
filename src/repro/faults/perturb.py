"""Composable link-perturbation models.

U-Net pushes all reliability above the substrate ("U-Net itself offers
no retransmission or flow control", Section 3.1), so the Active
Messages layer must survive anything a real link can do.  Real Ethernet
and ATM links misbehave in richer ways than independent per-PDU loss:
losses come in bursts (Gilbert–Elliott), striped paths reorder, queues
add delay jitter, cut-through hardware duplicates, links flap, and NICs
stall while the host hogs the bus.  Each of those behaviours is one
:class:`LinkPerturbation` here; a pipeline of them interposes on a
substrate's delivery hook (see :mod:`repro.faults.inject`).

Every model draws from its own named :class:`~repro.sim.rng.RngRegistry`
stream, so fault patterns are deterministic per master seed and adding a
stage never perturbs the draws of another.

A perturbation is a pure arrival-time filter: ``process(pdu, now, emit)``
is called once per PDU and may call ``emit(pdu, delay_us)`` zero or more
times — zero emits drop the PDU, several duplicate it, a positive delay
defers (and thereby may reorder) it.  The pipeline owns scheduling.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Tuple

from ..am.protocol import mark_ce
from ..sim.rng import RngRegistry

__all__ = [
    "PerturbationContext",
    "LinkPerturbation",
    "UniformLoss",
    "GilbertElliott",
    "Corrupt",
    "Reorder",
    "DelayJitter",
    "Duplicate",
    "LinkFlap",
    "NicStall",
    "BottleneckQueue",
]

#: ``emit(pdu, delay_us)`` — forward ``pdu`` to the next stage
Emit = Callable[[object, float], None]

#: how far behind its original a :class:`Duplicate` copy arrives
DUPLICATE_DELAY_US = 5.0


class PerturbationContext:
    """What a pipeline hands its stages on attach: their RNG streams, and
    the ``wire`` (the backend's format record) that reads and rewrites
    the PDUs they see."""

    def __init__(self, registry: RngRegistry, wire=None, prefix: str = "faults") -> None:
        self.wire = wire
        self._scoped = registry.scoped(prefix)

    def stream(self, name: str) -> random.Random:
        return self._scoped.stream(name)


class LinkPerturbation:
    """Base class: a no-op stage that forwards every PDU untouched.

    A stage names what it counts in ``COUNTERS`` (:mod:`repro.telemetry`)
    and :meth:`reset` zeroes those, so a subclass resets only its extra
    state.
    """

    #: suffix of this stage's RNG stream ("<prefix>.<stream_name>"), or
    #: None for a deterministic stage that draws nothing
    stream_name: Optional[str] = "noop"
    COUNTERS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.ctx: Optional[PerturbationContext] = None
        self.rng: Optional[random.Random] = None
        self.reset()

    @property
    def label(self) -> str:
        return type(self).__name__

    def attach(self, ctx: PerturbationContext) -> None:
        self.ctx = ctx
        if self.stream_name is not None:
            self.rng = ctx.stream(self.stream_name)
        self.reset()

    def reset(self) -> None:
        """Clear per-run state (called on attach)."""
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def process(self, pdu, now: float, emit: Emit) -> None:
        emit(pdu, 0.0)


class UniformLoss(LinkPerturbation):
    """Independent per-PDU loss — the classic drop_rate model."""

    stream_name = "loss"
    COUNTERS = ("dropped",)

    def __init__(self, rate: float) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be within [0, 1]")
        self.rate = rate

    def process(self, pdu, now: float, emit: Emit) -> None:
        if self.rng.random() < self.rate:
            self.dropped += 1
            return
        emit(pdu, 0.0)


class GilbertElliott(LinkPerturbation):
    """Bursty loss: the two-state Gilbert–Elliott channel.

    The link sits in a lossless *good* state and occasionally enters a
    *bad* burst state (loss ``loss_bad``, high).
    Per-PDU transition probabilities ``p_good_to_bad``/``p_bad_to_good``
    set burst frequency and mean burst length (1/p_bad_to_good PDUs).
    """

    stream_name = "gilbert"
    COUNTERS = ("dropped", "bursts")

    def __init__(
        self,
        p_good_to_bad: float = 0.02,
        p_bad_to_good: float = 0.25,
        loss_bad: float = 0.75,
    ) -> None:
        super().__init__()
        for name, p in (("p_good_to_bad", p_good_to_bad), ("p_bad_to_good", p_bad_to_good),
                        ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_bad = loss_bad

    def reset(self) -> None:
        super().reset()
        self.bad = False

    def process(self, pdu, now: float, emit: Emit) -> None:
        # the good state draws too (and never drops): one draw per PDU
        drop = self.rng.random() < (self.loss_bad if self.bad else 0.0)
        # state transition after the loss draw: bursts span whole PDUs
        if self.bad:
            if self.rng.random() < self.p_bad_to_good:
                self.bad = False
        elif self.rng.random() < self.p_good_to_bad:
            self.bad = True
            self.bursts += 1
        if drop:
            self.dropped += 1
            return
        emit(pdu, 0.0)


class Corrupt(LinkPerturbation):
    """Flip a byte in a fraction of PDUs (substrate CRC then rejects them)."""

    stream_name = "corrupt"
    COUNTERS = ("corrupted",)

    def __init__(self, rate: float) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError("corrupt rate must be within [0, 1]")
        self.rate = rate

    def process(self, pdu, now: float, emit: Emit) -> None:
        if self.rng.random() < self.rate:
            self.corrupted += 1
            pdu = self.ctx.wire.corrupt(pdu, self.rng)
        emit(pdu, 0.0)


class Reorder(LinkPerturbation):
    """Defer a fraction of PDUs so later arrivals overtake them.

    Models striped paths (e.g. Beowulf dual-NIC bonding) and multi-path
    switching fabrics, which deliver out of order without losing data.
    """

    stream_name = "reorder"
    COUNTERS = ("reordered",)

    def __init__(self, rate: float = 0.05, delay_us: Tuple[float, float] = (20.0, 200.0)) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError("reorder rate must be within [0, 1]")
        if not 0.0 < delay_us[0] <= delay_us[1]:
            raise ValueError("delay_us must be a positive (lo, hi) range")
        self.rate = rate
        self.delay_us = delay_us

    def process(self, pdu, now: float, emit: Emit) -> None:
        if self.rng.random() < self.rate:
            self.reordered += 1
            emit(pdu, self.rng.uniform(*self.delay_us))
            return
        emit(pdu, 0.0)


class DelayJitter(LinkPerturbation):
    """Add uniform random queueing delay to every PDU."""

    stream_name = "jitter"
    COUNTERS = ("delayed",)

    def __init__(self, min_us: float = 0.0, max_us: float = 50.0) -> None:
        super().__init__()
        if min_us < 0.0 or max_us < min_us:
            raise ValueError("need 0 <= min_us <= max_us")
        self.min_us = min_us
        self.max_us = max_us

    def process(self, pdu, now: float, emit: Emit) -> None:
        self.delayed += 1
        emit(pdu, self.rng.uniform(self.min_us, self.max_us))


class Duplicate(LinkPerturbation):
    """Deliver a fraction of PDUs twice, :data:`DUPLICATE_DELAY_US` apart."""

    stream_name = "dup"
    COUNTERS = ("duplicated",)

    def __init__(self, rate: float = 0.02) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError("duplicate rate must be within [0, 1]")
        self.rate = rate

    def process(self, pdu, now: float, emit: Emit) -> None:
        emit(pdu, 0.0)
        if self.rng.random() < self.rate:
            self.duplicated += 1
            emit(pdu, DUPLICATE_DELAY_US)


class LinkFlap(LinkPerturbation):
    """Periodic link up/down cycles; PDUs die while down.

    The link is up for ``up_us``, then down for ``down_us``, over and
    over, starting up at ``offset_us``.
    """

    stream_name = "flap"
    COUNTERS = ("dropped",)

    def __init__(
        self,
        up_us: float = 5000.0,
        down_us: float = 500.0,
        offset_us: float = 0.0,
    ) -> None:
        super().__init__()
        if up_us <= 0.0 or down_us < 0.0:
            raise ValueError("need up_us > 0 and down_us >= 0")
        self.up_us = up_us
        self.down_us = down_us
        self.offset_us = offset_us

    def is_down(self, now: float) -> bool:
        phase = (now - self.offset_us) % (self.up_us + self.down_us)
        return phase >= self.up_us

    def process(self, pdu, now: float, emit: Emit) -> None:
        if self.is_down(now):
            self.dropped += 1
            return
        emit(pdu, 0.0)


class BottleneckQueue(LinkPerturbation):
    """A deterministic drain-rate bottleneck with ECN marking.

    Models the shared output queue behind a switch uplink (or the
    repeater domain of a hub): PDUs drain one per ``service_us``, so an
    incast burst piles up a standing queue.  Occupancy above
    ``mark_threshold`` gets the PDU CE-marked through the pipeline's
    wire (RFC-3168 style: the network signals congestion *before* it
    must drop); occupancy beyond ``capacity`` tail-drops.  Entirely
    deterministic — no RNG stream — so a seeded soak run replays exactly.
    An endpoint that ignores the CE bit sees only the delays and drops,
    which is exactly the loss-feedback baseline ECN is measured against.
    """

    stream_name = None
    COUNTERS = ("marked", "dropped", "max_occupancy")

    def __init__(self, service_us: float = 15.0, capacity: int = 32,
                 mark_threshold: int = 8) -> None:
        super().__init__()
        if service_us <= 0.0:
            raise ValueError("service_us must be > 0")
        if capacity < 1 or not 0 <= mark_threshold <= capacity:
            raise ValueError("need capacity >= 1 and 0 <= mark_threshold <= capacity")
        self.service_us = service_us
        self.capacity = capacity
        self.mark_threshold = mark_threshold

    def reset(self) -> None:
        super().reset()
        self._last_depart = float("-inf")

    def process(self, pdu, now: float, emit: Emit) -> None:
        depart = max(self._last_depart, now) + self.service_us
        # packets still queued ahead of (and including) this one
        occupancy = int(round((depart - now) / self.service_us))
        if occupancy > self.capacity:
            self.dropped += 1
            return
        self._last_depart = depart
        self.max_occupancy = max(self.max_occupancy, occupancy)
        if occupancy > self.mark_threshold:
            self.marked += 1
            (pdu,) = self.ctx.wire.rewrite([pdu], mark_ce)
        emit(pdu, depart - now)


class NicStall(LinkPerturbation):
    """The NIC periodically stalls (host bus contention, ring starvation).

    PDUs arriving inside a stall window are buffered and released — in
    arrival order — when the window ends, so a stall turns a smooth
    stream into a burst, stressing receive-queue sizing downstream.
    """

    stream_name = "stall"
    COUNTERS = ("stalled",)

    def __init__(self, period_us: float = 10_000.0, stall_us: float = 300.0) -> None:
        super().__init__()
        if period_us <= 0.0 or not 0.0 <= stall_us < period_us:
            raise ValueError("need period_us > 0 and 0 <= stall_us < period_us")
        self.period_us = period_us
        self.stall_us = stall_us

    def process(self, pdu, now: float, emit: Emit) -> None:
        phase = now % self.period_us
        if phase < self.stall_us:
            self.stalled += 1
            emit(pdu, self.stall_us - phase)
            return
        emit(pdu, 0.0)
