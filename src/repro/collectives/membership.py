"""Membership and tree healing for NIC-resident collectives.

The engines of :mod:`~repro.collectives.engine` detect *silence* (a
peer that stops acking); this layer turns silence into a decision, the
way the cluster health plane of ``repro.core`` turns missed heartbeats
into quarantine:

* **peer dead** (its NIC crashed, per the liveness evidence callback) —
  *heal*: re-rank the survivors into a fresh k-ary tree, wire any
  missing edges through the fabric's signaling plane, bump the epoch
  and install it on every survivor in the same instant.  Collectives in
  flight complete over the new tree; generation windows keep host
  delivery exactly-once.
* **peer alive but unreachable** (the fabric is partitioned, per the
  reachability callback) — *abort*: no tree over the members can
  complete, so every live engine fails its pending operations with
  :class:`~repro.collectives.engine.CollectiveAborted` at once.
  All-or-nothing, bounded time, never a hang.
* **neither** — transient loss; the per-edge retransmit timer keeps
  trying while the fabric re-routes underneath.

After the fabric heals, :meth:`CollectiveGroup.resume` re-syncs the
survivors' generation counters (an abort lands between calls on
different members, so counters drift by one) and re-opens the group.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..core.errors import NoPathError
from .engine import CollectiveAborted, NicCollectiveEngine
from .tree import KAryTree, gen_after

__all__ = ["CollectiveGroup"]

#: control-plane convergence: evidence-to-install delay for one heal
HEAL_DELAY_US = 100.0


class CollectiveGroup:
    """Membership authority over one set of collective engines.

    Liveness evidence is each engine's own crash flag, ``reachable(i, j)``
    supplies fabric reachability (defaults to always-true), and
    ``wire_edge(i, j)`` creates a missing tree edge through the network's
    ``collective_edge`` (and does nothing for one already wired).
    """

    def __init__(
        self,
        sim,
        engines: Sequence[NicCollectiveEngine],
        *,
        wire_edge: Callable[[int, int], None],
        reachable: Optional[Callable[[int, int], bool]] = None,
    ) -> None:
        self.sim = sim
        self.engines = list(engines)
        self._reachable = reachable or (lambda a, b: True)
        self._wire_edge = wire_edge
        self.epoch = 0
        self.dead: Set[int] = set()
        self.aborted = False
        self._heal_pending = False
        for engine in self.engines:
            engine.group = self
        # history for recovery-time accounting
        self.heals: List[Tuple[float, int, Tuple[int, ...]]] = []
        self.abort_times: List[float] = []

    # ------------------------------------------------------------ evidence
    def _is_dead(self, node: int) -> bool:
        return self.engines[node].crashed

    def live(self) -> List[int]:
        return [e.node for e in self.engines
                if e.node not in self.dead and not self._is_dead(e.node)]

    def suspect(self, reporter: int, peer: int, exhausted: bool = False) -> None:
        """An engine's liveness timer fired for ``peer``.  Decide."""
        if self.aborted:
            return
        if peer in self.dead:
            return  # already healed around; stale suspicion
        if self._is_dead(peer):
            if not self._heal_pending:
                self._heal_pending = True
                self.sim.call_in(HEAL_DELAY_US, self._heal)
            return
        if not self._reachable(reporter, peer) or self._split():
            self._abort(f"nodes {reporter} and {peer} are partitioned")
        elif exhausted:
            # reachable, alive, yet silent past every retry budget: the
            # evidence is undecidable — abort rather than hang
            self._abort(f"node {peer} unresponsive to node {reporter} "
                        f"past the retry budget")

    def _split(self) -> bool:
        """Whether the live members span more than one fabric component."""
        live = self.live()
        if len(live) < 2:
            return False
        seen = {live[0]}
        frontier = [live[0]]
        while frontier:
            here = frontier.pop()
            for other in live:
                if other not in seen and self._reachable(here, other):
                    seen.add(other)
                    frontier.append(other)
        return len(seen) < len(live)

    # ------------------------------------------------------------- healing
    def _heal(self) -> None:
        self._heal_pending = False
        if self.aborted:
            return
        newly_dead = {e.node for e in self.engines
                      if e.node not in self.dead and self._is_dead(e.node)}
        if not newly_dead:
            return
        self.dead |= newly_dead
        live = self.live()
        if not live:
            return
        if self._split():
            self._abort("survivors are partitioned")
            return
        try:
            self._install(live)
        except NoPathError:
            self._abort("no fabric path for the healed tree")

    def _install(self, live: List[int]) -> None:
        """Wire the re-ranked tree's missing edges, then fence the epoch."""
        self.epoch += 1
        shadow = KAryTree(len(live), fanout=self.engines[0].tree.fanout)
        for child_rank in range(1, len(live)):
            self._wire_edge(live[shadow.parent(child_rank)], live[child_rank])
        for node in live:
            self.engines[node].install_epoch(self.epoch, live)
        self.heals.append((self.sim.now, self.epoch, tuple(sorted(self.dead))))

    # ------------------------------------------------------------ aborting
    def _abort(self, reason: str) -> None:
        self.aborted = True
        self.abort_times.append(self.sim.now)
        for engine in self.engines:
            if not engine.crashed:
                engine.abort_all(CollectiveAborted(
                    f"collective aborted: {reason}", epoch=self.epoch))

    def resume(self) -> List[int]:
        """Re-open the group once the fabric healed (still refusing if it
        hasn't): re-sync generation counters across survivors, install a
        fresh epoch, return the live members."""
        live = self.live()
        if self._split():
            raise CollectiveAborted("cannot resume: still partitioned",
                                    epoch=self.epoch)
        engines = [self.engines[n] for n in live]
        gens = [_max_gen(tree.gen for tree in trees)
                for trees in zip(*(e._trees for e in engines))]
        self.aborted = False
        for engine in engines:
            engine.resume(gens)
        self._install(live)
        return live


def _max_gen(gens) -> int:
    """The newest generation under wrapping 16-bit comparison."""
    best = None
    for gen in gens:
        if best is None or gen_after(gen, best):
            best = gen
    return best or 0
