"""Tests for the discrete-event engine and event primitives."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Event,
    Interrupt,
    Simulator,
    StopProcess,
    Timeout,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        yield sim.timeout(2.5)
        return sim.now

    p = sim.process(proc())
    assert sim.run_until_complete(p) == 7.5
    assert sim.now == 7.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        return 42

    assert sim.run_until_complete(sim.process(proc())) == 42


def test_yield_number_is_timeout_shorthand():
    sim = Simulator()

    def proc():
        yield 3.0
        return sim.now

    assert sim.run_until_complete(sim.process(proc())) == 3.0


def test_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def worker(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(worker("b", 2.0))
    sim.process(worker("a", 1.0))
    sim.process(worker("c", 2.0))
    sim.run()
    assert log == [(1.0, "a"), (2.0, "b"), (2.0, "c")]


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []

    def worker(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(worker(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    results = []

    def waiter():
        value = yield gate
        results.append((sim.now, value))

    def opener():
        yield sim.timeout(4.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert results == [(4.0, "open")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(RuntimeError):
        gate.succeed(2)


def test_event_fail_raises_in_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())

    def failer():
        yield sim.timeout(1.0)
        gate.fail(ValueError("boom"))

    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    sim = Simulator()
    gate = sim.event()
    with pytest.raises(TypeError):
        gate.fail("not an exception")


def test_crashed_unwaited_process_raises():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()


def test_run_until_complete_propagates_failure():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("oops")

    p = sim.process(bad())
    with pytest.raises(KeyError):
        sim.run_until_complete(p)


def test_wait_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return (sim.now, result)

    assert sim.run_until_complete(sim.process(parent())) == (2.0, "child-result")


def test_wait_on_already_completed_process():
    sim = Simulator()
    child_proc = {}

    def child():
        yield sim.timeout(1.0)
        return "done"

    def parent():
        yield sim.timeout(5.0)
        result = yield child_proc["p"]
        return (sim.now, result)

    child_proc["p"] = sim.process(child())
    assert sim.run_until_complete(sim.process(parent())) == (5.0, "done")


def test_interrupt_process():
    sim = Simulator()
    observed = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            observed.append(sim.now)

    victim = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(3.0)
        victim.interrupt()

    sim.process(interrupter())
    sim.run()
    assert observed == [3.0]


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    victim = sim.process(quick())
    sim.run()
    assert not victim.is_alive
    victim.interrupt()  # must not raise
    sim.run()


def test_stop_process_exception_sets_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise StopProcess("early")

    assert sim.run_until_complete(sim.process(proc())) == "early"


def test_all_of_waits_for_every_event():
    sim = Simulator()
    times = []

    def proc():
        t1 = sim.timeout(1.0)
        t2 = sim.timeout(5.0)
        result = yield sim.all_of([t1, t2])
        times.append(sim.now)
        return set(result) == {t1, t2}

    assert sim.run_until_complete(sim.process(proc()))
    assert times == [5.0]


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(1.0)
        t2 = sim.timeout(5.0)
        result = yield sim.any_of([t1, t2])
        return sim.now, list(result) == [t1]

    when, first_only = sim.run_until_complete(sim.process(proc()))
    assert when == 1.0
    assert first_only


def test_run_until_limits_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(100.0)

    sim.process(proc())
    sim.run(until=10.0)
    assert sim.now == 10.0
    sim.run()
    assert sim.now == 100.0


def test_step_on_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_max_events_guard():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(1.0)

    sim.process(forever())
    with pytest.raises(RuntimeError, match="max_events"):
        sim.run(max_events=50)


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield "not an event"

    p = sim.process(bad())
    with pytest.raises(TypeError):
        sim.run_until_complete(p)


def test_events_processed_counter():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    assert sim.events_processed > 0
