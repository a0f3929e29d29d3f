"""Content-addressed fabric fault stages: trunks, spines, partitions.

The scripted stages of :mod:`~repro.faults.scripted` address *packets*
by wire content; the stages here address *fabric elements* by topology
index, so one schedule kills the same spine or partitions the same
leaves on any same-shape fabric — ``atm-clos`` or ``fe-clos`` — and
two runs of the same schedule are bit-identical.  Each stage is a
frozen dataclass that expands into a list of timed trunk up/down
*transitions*; the
:class:`FabricFaultInjector` schedules those on the simulator and drives
the fabric's ``set_trunk_state``, which blackholes in-flight traffic and
re-programs routes — VC failover on ATM, static MAC re-learn on FE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = [
    "TrunkFlap",
    "SpineFailure",
    "Partition",
    "FabricFaultInjector",
]

#: one trunk state change: (time_us, switch_a, switch_b, up)
Transition = Tuple[float, int, int, bool]


@dataclass(frozen=True)
class TrunkFlap:
    """A trunk flaps: down for ``down_us`` every ``period_us``, ``cycles`` times."""

    a: int
    b: int
    start_us: float
    period_us: float
    down_us: float
    cycles: int = 1

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("a trunk joins two distinct switches")
        if self.start_us < 0 or self.cycles < 1:
            raise ValueError("start_us must be non-negative, cycles positive")
        if not 0 < self.down_us < self.period_us:
            raise ValueError("need 0 < down_us < period_us")

    def transitions(self, topology) -> List[Transition]:
        out: List[Transition] = []
        for cycle in range(self.cycles):
            t0 = self.start_us + cycle * self.period_us
            out.append((t0, self.a, self.b, False))
            out.append((t0 + self.down_us, self.a, self.b, True))
        return out


@dataclass(frozen=True)
class SpineFailure:
    """A whole spine switch dies for good: every trunk it terminates goes down."""

    spine: int
    at_us: float

    def __post_init__(self) -> None:
        if self.spine < 0 or self.at_us < 0:
            raise ValueError("spine and at_us must be non-negative")

    def transitions(self, topology) -> List[Transition]:
        leaves, spines = _clos_shape_of(topology)
        if self.spine >= spines:
            raise ValueError(f"no spine {self.spine} in {topology.name}")
        switch = leaves + self.spine
        return [(self.at_us, leaf, switch, False) for leaf in range(leaves)]


@dataclass(frozen=True)
class Partition:
    """Cut the listed leaves off every spine: each of their uplinks goes
    down at ``at_us`` and comes back at ``heal_us`` (0 = never).

    A single listed leaf models the classic minority partition: its
    hosts still talk through their leaf switch but the rest of the
    cluster is gone.
    """

    leaves: Tuple[int, ...]
    at_us: float = 0.0
    heal_us: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "leaves", tuple(sorted(set(self.leaves))))
        if not self.leaves:
            raise ValueError("a partition needs at least one leaf")
        if self.at_us < 0:
            raise ValueError("at_us must be non-negative")
        if self.heal_us and self.heal_us <= self.at_us:
            raise ValueError("heal_us must follow at_us")

    def transitions(self, topology) -> List[Transition]:
        leaves, spines = _clos_shape_of(topology)
        if any(leaf >= leaves for leaf in self.leaves):
            raise ValueError(f"partition names a leaf outside {topology.name}")
        cut = [(leaf, leaves + spine)
               for leaf in self.leaves for spine in range(spines)]
        out: List[Transition] = [(self.at_us, a, b, False) for a, b in cut]
        if self.heal_us:
            out.extend((self.heal_us, a, b, True) for a, b in cut)
        return out


def _clos_shape_of(topology) -> Tuple[int, int]:
    if not topology.spines:
        raise ValueError(
            f"topology {topology.name!r} is not a Clos (no leaf/spine shape)")
    return topology.leaves, topology.spines


class FabricFaultInjector:
    """Expands stages into transitions and drives them on the simulator.

    ``fabric`` is anything with ``set_trunk_state(a, b, up)`` and a
    ``topology`` (a Clos builder).  Transitions are applied in (time,
    switch pair) order; redundant transitions (two stages felling the
    same trunk) are counted but harmless.
    """

    COUNTERS = ("transitions_applied", "transitions_redundant")

    def __init__(self, sim, fabric, stages: Sequence) -> None:
        self.sim = sim
        self.fabric = fabric
        self.stages = list(stages)
        #: (sim time, a, b, up) of every transition that changed state
        self.fired: List[Transition] = []
        self.transitions_applied = 0
        self.transitions_redundant = 0
        schedule: List[Transition] = []
        for stage in self.stages:
            schedule.extend(stage.transitions(fabric.topology))
        # deterministic order: time, then switch pair, downs first
        schedule.sort()
        for at, a, b, up in schedule:
            delay = at - sim.now
            if delay < 0:
                raise ValueError(f"fabric fault at {at}us is in the past")
            sim.call_in(delay, self._apply, a, b, up)

    def _apply(self, a: int, b: int, up: bool) -> None:
        if self.fabric.set_trunk_state(a, b, up):
            self.transitions_applied += 1
            self.fired.append((self.sim.now, a, b, up))
        else:
            self.transitions_redundant += 1
