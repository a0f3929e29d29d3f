"""The crash and multi-tenant soaks on every live row, through one rig.

A live name builds like a network row (``networks.build``), so a soak
scenario moves to another transport or doorbell by its ``substrate``
alone: the kill/restart fates and the churn invariants must hold on
each, exactly as on the simulated networks.
"""

import dataclasses

import pytest

from repro import networks
from repro.faults.crashsoak import CRASH_SCENARIOS, run_crash_scenario
from repro.faults.multitenant import MULTITENANT_SCENARIOS, run_multitenant


def _skip_unless_available(row: str) -> None:
    try:
        networks.LIVE[row].transport_kind()
    except networks.SubstrateUnavailable as exc:
        pytest.skip(str(exc))


@pytest.mark.parametrize("row", sorted(networks.LIVE))
def test_live_kill_holds_on_every_live_row(row):
    _skip_unless_available(row)
    scenario = dataclasses.replace(CRASH_SCENARIOS["live-kill"], substrate=row)
    result = run_crash_scenario(scenario)
    assert result.ok, result.violations
    assert result.substrate == row
    assert result.duplicated == 0
    assert result.restarts == scenario.crashes
    assert result.sim_events == 0


@pytest.mark.parametrize("row", ["live-batched", "live-event"])
def test_churn_live_holds_under_the_batched_and_event_doorbells(row):
    _skip_unless_available(row)
    scenario = dataclasses.replace(MULTITENANT_SCENARIOS["churn-live"], substrate=row)
    result = run_multitenant(scenario, seed=7)
    assert result.completed
    assert result.violations == []
    assert result.substrate == row
