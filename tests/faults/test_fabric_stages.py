"""Each fabric fault stage driven on a small Clos (2 leaves x 2 spines:
leaves are switches 0 and 1, spines 2 and 3): the trunks it names go
down and come back at the scheduled instants, on both directions' links,
and the injector counts what changed and what was already so."""

import pytest

from repro import networks
from repro.faults.fabric import FabricFaultInjector, Partition, SpineFailure, TrunkFlap
from repro.sim import Simulator

#: stages -> ({trunk: [(instant, up after it), ...]}, applied, redundant)
CASES = {
    "trunk-flap": ([TrunkFlap(1, 3, start_us=10.0, period_us=20.0, down_us=5.0, cycles=2)],
                   {(1, 3): [(10.0, False), (15.0, True), (30.0, False), (35.0, True)]}, 4, 0),
    # the partition fells a trunk the spine failure already took
    "spine-failure": ([SpineFailure(0, at_us=10.0), Partition(leaves=(1,), at_us=10.0)],
                      {(0, 2): [(10.0, False)],
                       (1, 2): [(10.0, False)],
                       (1, 3): [(10.0, False)],
                       (0, 3): []}, 3, 1),
    # leaf 0 alone on one side: both its uplinks are cut, leaf 1's are not
    "partition": ([Partition(leaves=(0,), at_us=10.0, heal_us=20.0)],
                  {(0, 2): [(10.0, False), (20.0, True)],
                   (0, 3): [(10.0, False), (20.0, True)],
                   (1, 2): [], (1, 3): []}, 4, 0),
}


@pytest.mark.parametrize("row", ["atm-clos", "fe-clos"])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_a_stage_flips_its_trunks_at_the_scheduled_instants(closing, row, kind):
    stages, flips, applied, redundant = CASES[kind]
    sim = Simulator()
    fabric = closing(networks.get(row).build(sim, 4))
    assert (fabric.topology.leaves, fabric.topology.spines) == (2, 2)
    injector = FabricFaultInjector(sim, fabric, stages)

    def up(a, b):
        states = {fabric.trunk_link(a, b).up, fabric.trunk_link(b, a).up}
        assert len(states) == 1, "the two directions of a trunk disagree"
        return states.pop()

    instants = sorted({t for changes in flips.values() for t, _up in changes})
    for now in [t + offset for t in instants for offset in (-0.5, 0.5)]:
        sim.run(until=now)         # just before and just after each instant
        for trunk, changes in flips.items():
            expected = [state for when, state in changes if when < now]
            assert up(*trunk) == (expected[-1] if expected else True), (trunk, now)
    assert (injector.transitions_applied, injector.transitions_redundant) == (applied, redundant)
    assert len(injector.fired) == applied
