"""The fabric conformance preset: healing held to the arithmetic oracle."""

import pytest

from repro.conformance import (
    FABRIC_BUGS,
    inject_fabric_bug,
    render_fabric_case,
    run_fabric_case,
)


def test_clean_cases_pass_the_oracle():
    for seed in range(4):
        scenario, result = run_fabric_case(seed)
        assert result.ok, (seed, result.violations)
        assert result.heals == 1
        assert result.recovery_us > 0.0
        assert 1 <= scenario.crash_node <= 12


def test_seeds_vary_the_victim_and_schedule():
    scenarios = [run_fabric_case(seed)[0] for seed in range(6)]
    assert len({s.crash_node for s in scenarios}) > 1
    assert len({s.crash_at_us for s in scenarios}) > 1
    assert [s.fabric for s in scenarios[:2]] == ["atm-clos", "fe-clos"]


def test_heal_reroot_bug_is_caught():
    """The injected stale-contribution bug must produce an out-of-oracle
    sum on every seed — victims are drawn so the re-ranked tree always
    re-parents someone across an old subtree boundary."""
    for seed in range(4):
        _, result = run_fabric_case(seed, bug="heal-reroot")
        assert not result.ok, f"seed {seed}: bug survived the oracle"
        assert any("exactness" in v or "agreement" in v
                   for v in result.violations), result.violations


def test_unknown_bug_is_rejected():
    with pytest.raises(ValueError):
        with inject_fabric_bug("heal-typo"):
            pass
    assert "heal-reroot" in FABRIC_BUGS


def test_render_names_the_case_and_verdict():
    text = render_fabric_case(0, None, *run_fabric_case(0))
    assert "seed=0 on atm-clos" in text and "ok" in text
    bad = run_fabric_case(0, bug="heal-reroot")
    text = render_fabric_case(0, "heal-reroot", *bad, context=False)
    assert "DIVERGED" in text and "bug=heal-reroot" in text
    assert any(line for line in text.splitlines()[1:])  # violations shown
