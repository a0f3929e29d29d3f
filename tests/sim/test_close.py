"""``Simulator.close()``: teardown at one known point, not at the GC's."""

import pytest

from repro.sim import Discarded, Simulator, SimulatorClosed


def _parked(sim, log, name):
    """A process that waits forever and says so when it is closed."""
    try:
        yield sim.event()
    finally:
        log.append(name)


def test_close_ends_unfinished_processes_in_creation_order_and_reports_them():
    sim = Simulator()
    log = []
    for name in ("first", "second", "third"):
        sim.process(_parked(sim, log, name))

    def finishes():
        yield 1.0

    sim.process(finishes())
    sim.call_in(50.0, log.append, "never runs")
    sim.run(until=10.0)
    assert log == []
    report = sim.close()
    assert log == ["first", "second", "third"]
    # three parked generators; the one queued callback was still in flight
    assert report == Discarded(processes=3, entries=1)
    assert sim.closed and sim.now == 10.0 and sim.events_processed > 0


def test_a_finished_process_is_not_retained():
    """The registry is O(live processes): per-frame processes come and go
    by the million in a long run and must leave nothing behind."""
    sim = Simulator()
    keeper = sim.process(_parked(sim, [], "keeper"))

    def short():
        yield 0.5

    def crashes():
        yield 0.5
        raise ValueError("boom")

    for _ in range(200):
        sim.process(short())
    doomed = sim.process(crashes())
    doomed.callbacks.append(lambda event: None)  # somebody handles the failure
    assert len(sim._live) == 202
    sim.run()
    assert list(sim._live) == [keeper]
    sim.close()


def test_a_closed_simulator_refuses_to_schedule_or_run():
    sim = Simulator()
    pending, doomed = sim.event(), sim.event()
    sim.close()
    for attempt in (
        lambda: sim.call_in(1.0, print),
        lambda: sim.call_at(5.0, print),
        lambda: sim.timeout(1.0),
        lambda: sim.process(_parked(sim, [], "late")),
        lambda: pending.succeed(),
        lambda: doomed.fail(RuntimeError("late")),
        sim.run,
        sim.step,
        sim.peek,
    ):
        with pytest.raises(SimulatorClosed):
            attempt()
    assert not sim._live  # the refused process was not registered either
    with pytest.raises(AttributeError):
        sim.no_such_attribute


def test_close_twice_returns_the_first_report():
    sim = Simulator()
    sim.process(_parked(sim, [], "p"))
    first = sim.close()
    assert first == Discarded(processes=1, entries=1)  # its start entry never ran
    assert sim.close() is first


def test_close_from_inside_a_running_process_raises_and_closes_nothing():
    sim = Simulator()
    log = []
    sim.process(_parked(sim, log, "bystander"))

    def suicidal():
        yield 1.0
        with pytest.raises(SimulatorClosed, match="inside a running process"):
            sim.close()
        yield 1.0
        return "still running"

    process = sim.process(suicidal())
    assert sim.run_until_complete(process) == "still running"
    assert log == [] and not sim.closed
    sim.close()
    assert log == ["bystander"]


def test_close_from_a_bare_callback_ends_the_run():
    sim = Simulator()
    log = []
    sim.process(_parked(sim, log, "parked"))
    sim.call_in(5.0, sim.close)
    sim.call_in(9.0, log.append, "after the close")
    sim.run()
    assert sim.closed and sim.now == 5.0
    assert log == ["parked"]


def test_cleanup_that_schedules_during_close_is_tolerated_and_discarded():
    """A ``finally`` may release a resource (waking a waiter) or start a
    process; both land on a heap that is about to be thrown away."""
    sim = Simulator()
    log = []

    def holder():
        try:
            yield sim.event()
        finally:
            sim.call_in(1.0, log.append, "scheduled by cleanup")
            sim.process(_parked(sim, log, "started by cleanup"))

    sim.process(holder())
    sim.run()
    report = sim.close()
    assert report.processes == 2  # the holder, then the process its cleanup started
    assert report.entries == 2  # that process's start entry and the callback
    assert log == []  # an unstarted generator has no ``finally`` to run
