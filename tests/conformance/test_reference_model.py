"""The reference model: the oracle must itself behave like the spec."""

import pytest

from repro.conformance import (
    CONFIG_PRESETS, ConformanceCase, Message, diff_case, generate_case, run_reference,
)
from repro.conformance.model import TICK_LIMIT, TICK_US
from repro.faults.scripted import ScheduledFault


def _case(messages, faults=(), config="fixed", **overrides):
    kwargs = {"seed": 0, "config_name": config, "messages": list(messages),
              "faults": list(faults)}
    if config == "credit":
        kwargs.update(recv_queue_depth=4, rx_buffers=6, dispatch_overhead_us=40.0)
    kwargs.update(overrides)
    return ConformanceCase(**kwargs)


def test_clean_run_delivers_everything_in_order():
    case = _case([Message(40), Message(0, rpc=True), Message(200)])
    ref = run_reference(case)
    assert ref.completed
    assert ref.dispatched == [0, 1, 2]
    assert ref.replies == [1]
    assert ref.rexmit == 0
    assert ref.drop_classes == {}


def test_dropped_request_is_retransmitted_and_still_delivered():
    case = _case([Message(40)] * 4,
                 faults=[ScheduledFault("fwd", 2, 0, "drop")])
    ref = run_reference(case)
    assert ref.completed
    assert ref.dispatched == [0, 1, 2, 3]
    assert ref.rexmit >= 1
    assert ref.fired_keys(0) == [("fwd", 2, 0, "drop")]


def test_dropped_reply_is_retransmitted():
    case = _case([Message(12, rpc=True)],
                 faults=[ScheduledFault("rev", 0, 0, "drop")])
    ref = run_reference(case)
    assert ref.completed
    assert ref.replies == [0]
    assert ref.rexmit >= 1


def test_duplicate_is_absorbed_exactly_once():
    case = _case([Message(40)] * 3,
                 faults=[ScheduledFault("fwd", 1, 0, "dup")])
    ref = run_reference(case)
    assert ref.completed
    assert ref.dispatched == [0, 1, 2]


def test_delay_preserves_gobackn_order():
    case = _case([Message(40)] * 4,
                 faults=[ScheduledFault("fwd", 0, 0, "delay", delay_us=600.0)])
    ref = run_reference(case)
    assert ref.completed
    assert ref.dispatched == [0, 1, 2, 3]


def test_second_occurrence_targets_the_retransmission():
    # drop the original AND the first retransmission: still delivered
    case = _case([Message(40)],
                 faults=[ScheduledFault("fwd", 0, 0, "drop"),
                         ScheduledFault("fwd", 0, 1, "drop")])
    ref = run_reference(case)
    assert ref.completed
    assert ref.dispatched == [0]
    assert ref.rexmit >= 2
    assert len(ref.fired) == 2


def test_shallow_receiver_may_shed_but_never_loses():
    msgs = [Message(120)] * 10
    case = _case(msgs, config="credit")
    ref = run_reference(case)
    assert ref.completed
    assert ref.dispatched == list(range(10))
    for kind in ref.drop_classes:
        assert kind in ("recv_queue_drops", "no_buffer_drops")


def test_credit_config_still_terminates():
    case = _case([Message(200, rpc=True)] * 6, config="credit")
    ref = run_reference(case)
    assert ref.completed, f"model hit the tick limit ({TICK_LIMIT})"
    assert ref.replies == list(range(6))


def test_empty_workload_terminates_immediately():
    case = _case([])
    ref = run_reference(case)
    assert ref.completed
    assert ref.dispatched == []
    assert ref.completion_time_us <= TICK_US


@pytest.mark.parametrize("config", ["fixed", "adaptive", "credit"])
def test_model_is_deterministic(config):
    case = generate_case(11, config)
    a, b = run_reference(case), run_reference(case)
    assert a == b


@pytest.mark.parametrize("preset", sorted(CONFIG_PRESETS))
def test_the_checker_finds_the_model_conforms_to_itself(preset):
    """The model's trace is a substrate's trace, so the checker can be
    asked about it: a diff rule that contradicts the model fails here,
    not in a sweep."""
    for seed in range(10):
        case = generate_case(seed, preset)
        ref = run_reference(case)
        for relaxed in ((), ("atm",)):
            assert diff_case(case, ref, {"atm": ref}, relaxed=relaxed) == [], (case.name, relaxed)
