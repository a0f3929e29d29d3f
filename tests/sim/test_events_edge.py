"""Edge cases of the event primitives."""

import pytest

from repro.sim import AllOf, Condition, Event, Interrupt, Simulator


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        result = yield sim.all_of([])
        return (sim.now, result)

    when, result = sim.run_until_complete(sim.process(proc()))
    assert when == 0.0
    assert result == {}


def test_all_of_fails_if_child_fails():
    sim = Simulator()
    bad = sim.event()
    good = sim.timeout(10.0)

    def proc():
        try:
            yield sim.all_of([bad, good])
        except ValueError as exc:
            return str(exc)

    def failer():
        yield sim.timeout(1.0)
        bad.fail(ValueError("child died"))

    sim.process(failer())
    assert sim.run_until_complete(sim.process(proc())) == "child died"


def test_condition_with_already_processed_children():
    sim = Simulator()
    early = sim.timeout(1.0)

    def proc():
        yield sim.timeout(5.0)  # let `early` fire and be processed
        result = yield sim.all_of([early])
        return list(result)

    assert sim.run_until_complete(sim.process(proc())) == [early]


def test_interrupted_process_keeps_running():
    sim = Simulator()
    caught = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            caught.append(sim.now)
            # interrupted processes can keep running
            yield sim.timeout(1.0)
            return "recovered"

    victim = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(2.0)
        victim.interrupt()

    sim.process(interrupter())
    assert sim.run_until_complete(victim) == "recovered"
    assert caught == [2.0]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(RuntimeError):
        _ = event.value


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # not a generator


def test_events_own_simulator_enforced():
    sim_a = Simulator()
    sim_b = Simulator()
    foreign = sim_b.timeout(1.0)

    def proc():
        yield foreign

    p = sim_a.process(proc())
    with pytest.raises(RuntimeError):
        sim_a.run_until_complete(p)


def test_peek_empty_schedule():
    sim = Simulator()
    assert sim.peek() == float("inf")


def test_any_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        result = yield sim.any_of([])
        return (sim.now, result)

    when, result = sim.run_until_complete(sim.process(proc()))
    assert when == 0.0
    assert result == {}
