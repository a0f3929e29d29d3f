"""The wait until an absolute instant: ``yield sim.until(when)``.

A device model sleeps through a run of modelled delays as one wake at
the sum the step-by-step sleeps would have reached.  That is exact only
if the wake lands on the very float ``(now + a) + b`` and takes its
place among same-instant entries as the last step's wake did; these
tests hold the kernel to it, and to a bare delay's failure and
interrupt behaviour.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Simulator
from tests.heap_census import heap_census

#: instants and delays as the device timings write them: hundredths of a µs
_hundredths = st.integers(min_value=0, max_value=10_000).map(lambda n: n / 100)


def _run(start, delays, bystanders, fused):
    """A chain of ``delays`` from ``start``, slept step by step or as one
    wake, among callbacks scheduled before it begins — at ``bystanders``
    and at every partial sum of the chain, so its wakes meet ties.
    Returns the ``(now, who)`` log."""
    sim = Simulator()
    log = []

    def chain():
        if fused:
            when = sim.now
            for delay in delays:
                when += delay
            yield sim.until(when)
        else:
            for delay in delays:
                yield delay
        log.append((sim.now, "chain"))

    partial, ties = start, []
    for delay in delays:
        partial += delay
        ties.append(partial)
    for who, when in enumerate(sorted(bystanders + ties)):
        sim.call_at(when, lambda who=who: log.append((sim.now, who)))
    sim.call_at(start, lambda: sim.process(chain()))
    sim.run()
    sim.close()
    return log


@settings(max_examples=300, deadline=None)
@given(start=_hundredths, delays=st.lists(_hundredths, min_size=1, max_size=4),
       bystanders=st.lists(_hundredths, max_size=4))
def test_one_wake_until_the_sum_is_the_chain_of_sleeps(start, delays, bystanders):
    assert _run(start, delays, bystanders, fused=True) == _run(start, delays, bystanders, fused=False)


def test_until_lands_on_the_instant_a_relative_delay_would_miss():
    """``now + (when - now)`` is not ``when`` in floats: why the wait exists."""
    steps = (0.35, 0.29, 0.92, 0.42, 0.3)
    sim = Simulator(start_time=1.05)
    when = sim.now
    for step in steps:
        when += step
    assert sim.now + (when - sim.now) != when

    def sleeper():
        yield sim.until(when)
        return sim.now

    assert sim.run_until_complete(sim.process(sleeper())) == when
    sim.close()


@pytest.mark.parametrize("when, fails", [(4.0, True), (5.0, False)])
def test_until_an_instant_already_past_fails_the_process(when, fails):
    sim = Simulator()
    sim.run(until=5.0)

    def sleeper():
        yield sim.until(when)
        return sim.now

    process = sim.process(sleeper())
    if fails:
        with pytest.raises(ValueError, match="already past"):
            sim.run_until_complete(process)
    else:  # now itself is fine
        assert sim.run_until_complete(process) == 5.0
    assert sim.now == 5.0
    sim.close()


def test_interrupt_orphans_the_wake_as_it_does_a_bare_delay():
    """The stale entry keeps its slot and its count, and wakes nobody."""

    def program(wait):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield wait(sim, 100.0)
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield wait(sim, 400.0)  # still asleep when the stale t=100 entry pops
            log.append(("woke", sim.now))

        victim = sim.process(sleeper())
        sim.call_in(3.0, victim.interrupt)
        sim.run()
        sim.close()
        return log, sim.now, sim.events_processed

    until = program(lambda sim, delay: sim.until(sim.now + delay))
    assert until == program(lambda sim, delay: delay)
    assert until == ([("interrupted", 3.0), ("woke", 403.0)], 403.0, 6)


def test_heap_census_counts_the_wake_as_its_process_wake():
    sim = Simulator()

    def sleeper():
        yield sim.until(2.5)

    with heap_census(sim) as census:
        sim.process(sleeper())
        sim.run()
    sim.close()
    name = sleeper.__qualname__
    assert dict(census.entries) == {f"start:{name}": 1, f"wake:{name}": 1, f"done:{name}": 1}
