"""Doorbell-mode parity matrix: the fast path must be invisible.

The tentpole contract for PR 8: busy-poll, event (epoll-parked), and
batched (pooled zero-copy sendmmsg/recvmmsg) doorbells are *transport
disciplines*, not semantics.  Every conformance preset the live
substrate supports must produce the same dispatch order, reply set,
drop classes, and invariant verdicts as the reference model — and as
each other — under every mode.  A single divergence here means the
fast path changed what the application observes, which is exactly the
regression this harness exists to catch.
"""

import pytest

from repro.conformance import generate_case, run_case
from repro.live import run_live_case

from .conftest import require

pytestmark = require("unix")

#: doorbell mode -> the registered substrate that runs it
MODE_SUBSTRATES = {
    "busy-poll": "live-unix",
    "event": "live-event",
    "batched": "live-batched",
}

#: config presets in the matrix: plain go-back-N, crash/restart
#: lifecycle, and selective acknowledgement — the three regimes with
#: the most distinct wire behaviour
PARITY_PRESETS = ("fixed", "crash", "sack")


@pytest.mark.parametrize("mode", sorted(MODE_SUBSTRATES))
@pytest.mark.parametrize("preset", PARITY_PRESETS)
def test_parity_matrix_has_zero_divergence(preset, mode):
    """3 presets x 3 doorbell modes, each diffed against the reference
    model with the same relaxed-timing rules as every live substrate."""
    case = generate_case(11, preset, n_messages=4)
    report = run_case(case, substrates=(MODE_SUBSTRATES[mode],))
    assert report.ok, (
        f"{preset} under {mode} doorbell diverged from the reference:\n"
        + "\n".join(str(d) for d in report.divergences))


@pytest.mark.parametrize("preset", PARITY_PRESETS)
def test_modes_agree_with_each_other(preset):
    """Cross-mode agreement, directly on the traces: what was
    dispatched, what was replied, and what was dropped must be
    byte-identical across doorbell modes — no reference model in the
    loop to absorb a shared bias."""
    case = generate_case(7, preset, n_messages=4)
    traces = {mode: run_live_case(case, "unix", doorbell_mode=mode)
              for mode in MODE_SUBSTRATES}
    semantics = {
        mode: (trace.completed, list(trace.dispatched),
               sorted(trace.replies), dict(trace.drop_classes),
               list(trace.violations))
        for mode, trace in traces.items()
    }
    baseline = semantics["busy-poll"]
    for mode, observed in semantics.items():
        assert observed == baseline, (
            f"{preset}: {mode} doorbell observed {observed}, "
            f"busy-poll observed {baseline}")


def test_fault_schedule_fires_identically_in_batched_mode():
    """Content-addressed faults key on datagram bytes, so the batched
    RX path (pool slices instead of per-message bytes) must feed the
    fault stage identical content: same fired log, same recovery."""
    from repro.faults.scripted import ScheduledFault

    case = generate_case(5, "fixed", n_messages=4)
    case.faults = [ScheduledFault(direction="fwd", seq=1, occurrence=0,
                                  action="drop")]
    for mode in MODE_SUBSTRATES:
        trace = run_live_case(case, "unix", doorbell_mode=mode)
        assert trace.completed, f"{mode}: case did not complete"
        assert [f.action for f in trace.fired] == ["drop"], (
            f"{mode}: fault schedule fired {trace.fired}")
        assert trace.rexmit >= 1, f"{mode}: drop was never retransmitted"
        assert list(trace.dispatched) == sorted(trace.dispatched)


def test_injected_bug_is_caught_in_every_mode():
    """The harness keeps its teeth in every doorbell mode: the classic
    credit-gate off-by-one must fail conformance under the fast path
    exactly as it does under busy-poll."""
    case = generate_case(2, "credit")
    for substrate in MODE_SUBSTRATES.values():
        report = run_case(case, substrates=(substrate,), bug="credit-gate")
        assert not report.ok, (
            f"{substrate}: credit-gate bug survived conformance")


def test_batched_and_event_substrates_resolve_to_their_doorbell():
    from repro.conformance import runner

    for mode, name in MODE_SUBSTRATES.items():
        assert runner(name).keywords["doorbell_mode"] == mode
