"""The allocation-free wait: ``yield delay`` and the per-process wake record.

A sleeping process owns no Event — only a heap entry pointing at a record
the process reuses — so interrupts, errors and ordering need their own
checks; and the three hand-inlined dispatch loops (``step``, ``run``,
``run_until_complete``) must treat every kind of heap entry alike.
"""

import pytest

from repro.sim import EmptySchedule, Interrupt, Simulator, Store


def test_interrupt_during_bare_delay_raises_at_the_yield():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 100.0
            log.append(("overslept", sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield 500.0  # still asleep when the stale t=100 entry pops
        log.append(("woke", sim.now))
        return "done"

    victim = sim.process(sleeper())
    sim.call_in(3.0, victim.interrupt)
    sim.run()
    assert log == [("interrupted", 3.0), ("woke", 503.0)]
    assert victim.value == "done"


def test_stale_wake_entry_still_counts_as_one_dispatch():
    """The orphaned heap entry keeps its slot, like the Timeout it replaced."""

    def program(sim, delay):
        def sleeper():
            try:
                yield delay(100.0)
            except Interrupt:
                pass

        victim = sim.process(sleeper())
        sim.call_in(3.0, victim.interrupt)
        sim.run()
        return sim.now, sim.events_processed

    bare, stored = Simulator(), Simulator()
    assert program(bare, lambda d: d) == program(stored, stored.timeout) == (100.0, 5)


def test_interrupted_process_can_be_interrupted_again():
    sim = Simulator()
    caught = []

    def sleeper():
        for _ in range(3):
            try:
                yield 50.0
            except Interrupt:
                caught.append(sim.now)
        return sim.now

    victim = sim.process(sleeper())
    sim.call_in(10.0, victim.interrupt)
    sim.call_in(20.0, victim.interrupt)
    assert sim.run_until_complete(victim) == 70.0
    assert caught == [10.0, 20.0]


def test_int_delay_sleeps():
    sim = Simulator()

    def proc():
        yield 5
        yield 2.5
        return sim.now

    assert sim.run_until_complete(sim.process(proc())) == 7.5


def test_negative_delay_fails_the_process_like_timeout():
    sim = Simulator()

    def proc():
        yield -1.0

    with pytest.raises(ValueError) as bare:
        sim.run_until_complete(sim.process(proc()))
    with pytest.raises(ValueError) as stored:
        sim.timeout(-1.0)
    assert str(bare.value) == str(stored.value)
    assert sim.now == 0.0


def test_call_in_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_in(-1.0, lambda: None)
    with pytest.raises(EmptySchedule):
        sim.step()  # nothing was scheduled


def test_call_at_is_call_in_at_an_absolute_instant():
    """Same tier and same FIFO order among equal instants as ``call_in``;
    the callback fires at the very float the caller passed."""
    sim = Simulator()
    order = []
    sim.run(until=0.1)
    when = 0.1 + 0.7
    sim.call_in(0.7, order.append, "in")
    sim.call_at(when, order.append, "at")
    sim.call_at(when, lambda: order.append(sim.now))
    sim.run()
    assert order == ["in", "at", when] and sim.events_processed == 3


def test_call_at_rejects_the_past():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.call_at(4.0, lambda: None)
    sim.call_at(5.0, lambda: None)  # now itself is fine
    sim.run()
    assert sim.events_processed == 1


def test_processed_event_resumes_now_ahead_of_normal_events():
    sim = Simulator()
    order = []
    done = sim.event()
    done.succeed("v")
    sim.run()
    assert done.processed

    def late():
        yield 1.0
        sim.call_in(0.0, order.append, "normal")  # scheduled first...
        got = yield done                          # ...but the resume is URGENT
        order.append(("resumed", sim.now, got))

    sim.run_until_complete(sim.process(late()))
    sim.run()
    assert order == [("resumed", 1.0, "v"), "normal"]


# --------------------------------------------------- three loops, one behaviour
def _program(sim, log):
    """Every kind of heap entry, several same-instant ties, then an
    unhandled failure: a failed event nobody waits on."""
    box = Store(sim, name="box")

    def producer():
        for i in range(3):
            yield 2.0
            yield box.put(i)
            log.append(("put", i, sim.now))

    def consumer():
        for _ in range(3):
            item = yield box.get()
            log.append(("got", item, sim.now))
            yield sim.timeout(2.0)  # ties with the producer's bare delay
        sim.call_in(1.0, log.append, ("callback", sim.now))
        sim.event().fail(KeyError("nobody waits"))
        yield 1.0
        log.append(("unreachable", sim.now))

    sim.process(producer(), name="producer")
    return sim.process(consumer(), name="consumer")


def _drive_step(sim, _main):
    while True:
        try:
            sim.step()
        except EmptySchedule:
            return


LOOPS = {
    "step": _drive_step,
    "run": lambda sim, _main: sim.run(),
    "run_until_complete": lambda sim, main: sim.run_until_complete(main),
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_the_three_dispatch_loops_agree(loop):
    reference, ref_log = Simulator(), []
    main = _program(reference, ref_log)
    with pytest.raises(KeyError):
        _drive_step(reference, main)

    sim, log = Simulator(), []
    main = _program(sim, log)
    with pytest.raises(KeyError, match="nobody waits"):
        LOOPS[loop](sim, main)
    assert log == ref_log and len(log) == 6
    assert (sim.now, sim.events_processed) == (reference.now, reference.events_processed)
    assert sim.now == 8.0
