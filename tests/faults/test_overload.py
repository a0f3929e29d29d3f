"""Overload soak: the containment policies must actually contain.

The acceptance bar for the overload subsystem: with one sick endpoint
under incast, the healthy endpoints' goodput under ``backpressure`` or
``quarantine`` is at least 2x the ``drop`` baseline, retransmissions
are no higher, and the delivery invariants (exactly-once, per-channel
FIFO, termination) hold for every containment run.
"""

import pytest

from repro.faults import (
    OVERLOAD_SCENARIOS,
    render_endpoint_table,
    render_overload_table,
    run_overload,
)
from repro.faults.overload import SUITE

#: the seed every containment figure below was measured on
SEED = 0x0E12


@pytest.fixture(scope="module")
def stalled_results():
    return SUITE.grid(OVERLOAD_SCENARIOS["stalled"], seed=SEED)


def test_drop_baseline_suffers_under_incast(stalled_results):
    drop = next(r for r in stalled_results if r.policy == "drop")
    # the status-quo policy burns its kernel on junk: the device ring
    # overflows, healthy frames die with it, goodput collapses
    assert drop.backend_drops["rx_ring_overflows"] > 0
    assert drop.retransmissions > 0


def test_containment_restores_healthy_goodput_2x(stalled_results):
    drop = next(r for r in stalled_results if r.policy == "drop")
    for policy in ("backpressure", "quarantine"):
        contained = next(r for r in stalled_results if r.policy == policy)
        assert contained.ok, f"{policy}: {contained.violations}"
        assert contained.healthy_delivered == contained.healthy_expected
        assert contained.healthy_goodput_mbps >= 2.0 * drop.healthy_goodput_mbps
        assert contained.retransmissions <= drop.retransmissions
        assert contained.backend_drops["quarantine_drops"] > 0


def test_sick_endpoint_is_shed_not_the_healthy_ones(stalled_results):
    quarantine = next(r for r in stalled_results if r.policy == "quarantine")
    rows = {row["endpoint"]: row for row in quarantine.endpoint_rows}
    sick = [row for row in rows.values() if row["state"] == "quarantined"]
    assert len(sick) == 1
    assert sick[0]["quarantine_drops"] > 0
    for row in rows.values():
        if row is not sick[0]:
            assert row["state"] == "healthy"
            assert row["quarantine_drops"] == 0


@pytest.mark.parametrize("name", ["slow", "leaky"])
def test_other_sick_scenarios_contained_by_quarantine(name):
    result = run_overload(OVERLOAD_SCENARIOS[name], policy="quarantine")
    assert result.ok, result.violations
    assert result.healthy_delivered == result.healthy_expected
    assert result.backend_drops["quarantine_drops"] > 0
    assert result.fault_stats, "sick-endpoint fault stats missing"


def test_incast_credit_beats_fixed_senders():
    fixed, credit = SUITE.grid(OVERLOAD_SCENARIOS["incast"], seed=SEED)
    assert fixed.ok and credit.ok
    assert credit.credit_stalls > 0
    assert fixed.credit_stalls == 0
    # drops become stalls: fewer retransmissions, fewer queue drops
    assert credit.retransmissions < fixed.retransmissions
    assert (credit.backend_drops["recv_queue_drops"]
            < fixed.backend_drops["recv_queue_drops"])


def test_overload_runs_are_deterministic_per_seed():
    a = run_overload(OVERLOAD_SCENARIOS["stalled"], policy="quarantine", seed=7)
    b = run_overload(OVERLOAD_SCENARIOS["stalled"], policy="quarantine", seed=7)
    assert (a.completion_time_us, a.healthy_goodput_mbps, a.retransmissions,
            a.backend_drops) == (b.completion_time_us, b.healthy_goodput_mbps,
                                 b.retransmissions, b.backend_drops)


def test_render_tables(stalled_results):
    table = render_overload_table(stalled_results)
    assert "goodput_mbps" in table and "quar_drop" in table
    per_endpoint = render_endpoint_table(stalled_results[-1])
    assert "occ_ewma" in per_endpoint
