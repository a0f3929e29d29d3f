"""Conformance preset for fabric fault tolerance: healing must not lie.

The AM-level presets run one case on two substrates and a reference
model; healing has no reference implementation to diff against, but it
has something just as strong — an *arithmetic oracle*.  Every allreduce
value is fully determined by the members that legally contributed: a
round can sum the full membership or the post-crash survivors, nothing
else.  ``run_fabric_case`` drives a seeded node-crash soak
(:mod:`~repro.faults.fabricsoak`) and holds every completed round to
that oracle, plus the agreement, exactly-once, and termination checks.
Even seeds run on the ATM fat tree, odd ones on the Fast Ethernet one.

The named bug the harness must catch:

* ``heal-reroot`` — the classic tree-healing mistake: when the epoch
  installs the re-ranked tree, pending reduce states keep the subtree
  sums collected under the *old* tree instead of forgetting everything
  but their own contribution.  A node whose heal moved it under a new
  parent then contributes twice — once inside a stale subtree sum, once
  over the new edge — and the root's total silently double-counts it.
  The oracle rejects the value because it matches neither the full nor
  the survivor sum.

Victims are drawn so the re-ranked tree always re-parents someone
across an old subtree boundary — the configuration where keeping stale
sums is observable (a victim whose removal only renumbers its own
siblings reproduces the *full* sum, which the at-most-once contract
legally allows for the in-flight round).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from ..faults.fabricsoak import FabricScenario, FabricSoakResult

__all__ = [
    "FABRIC_BUGS",
    "inject_fabric_bug",
    "run_fabric_case",
    "render_fabric_case",
]

FABRIC_BUGS: Dict[str, Dict[str, object]] = {
    "heal-reroot": {
        "description": "epoch install keeps reduce contributions collected "
                       "under the pre-heal tree; re-parented nodes are "
                       "double-counted",
        "configs": ("fabric",),
    },
}


def _buggy_install_epoch(orig):
    from ..collectives.engine import REDUCE_UP

    def install_epoch(self, epoch, members):
        tree = self._by_kind[REDUCE_UP]
        stale = {gen: dict(state.contrib) for gen, state in tree.states.items()}
        orig(self, epoch, members)
        for gen, contrib in stale.items():
            state = tree.states.get(gen)
            if state is None:
                continue
            # the bug: resurrect subtree sums that belong to the old tree
            state.contrib.update(contrib)
            state.sent_up = False
            self._try(tree, gen)
    return install_epoch


@contextmanager
def inject_fabric_bug(name: Optional[str]):
    """Temporarily wire a named fabric-healing bug into the engine."""
    if name is None:
        yield
        return
    if name not in FABRIC_BUGS:
        raise ValueError(f"unknown fabric bug {name!r}; "
                         f"choose from {sorted(FABRIC_BUGS)}")
    from ..collectives.engine import NicCollectiveEngine

    orig = NicCollectiveEngine.install_epoch
    NicCollectiveEngine.install_epoch = _buggy_install_epoch(orig)
    try:
        yield
    finally:
        NicCollectiveEngine.install_epoch = orig


def run_fabric_case(seed: int, bug: Optional[str] = None
                    ) -> Tuple["FabricScenario", "FabricSoakResult"]:
    """One seeded node-crash healing case against the arithmetic oracle:
    the scenario the seed drew and the soak's result on it."""
    from ..faults.fabricsoak import FabricScenario, run_fabric_scenario

    # victims 1..12 of a 16-node fanout-4 tree: removing any of them
    # shifts a node across an old subtree boundary, the configuration
    # where heal-reroot is observable (see the module docstring)
    scenario = FabricScenario(
        name=f"heal-case-{seed}",
        description="conformance healing case",
        fabric=("atm-clos", "fe-clos")[seed % 2], leaves=4, spines=2, hosts_per_leaf=4,
        rounds=3, crash_node=1 + seed % 12, crash_at_us=150.0 + 40.0 * (seed % 7))
    with inject_fabric_bug(bug):
        return scenario, run_fabric_scenario(scenario, seed=seed)


def render_fabric_case(seed: int, bug: Optional[str], scenario: "FabricScenario",
                       result: "FabricSoakResult", context: bool = True) -> str:
    verdict = "ok" if result.ok else "DIVERGED"
    lines = [f"fabric case seed={seed} on {scenario.fabric} "
             f"(crash node {scenario.crash_node} at "
             f"t={scenario.crash_at_us:.0f}us"
             + (f", bug={bug}" if bug else "")
             + f"): {verdict}"]
    if context or not result.ok:
        for violation in result.violations:
            lines.append(f"    {violation}")
    return "\n".join(lines)
