"""Tests for Store, BoundedRing, and Resource."""

import pytest

from repro.sim import BoundedRing, Resource, RingEmptyError, RingFullError, Simulator, Store


# ---------------------------------------------------------------- Store


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    received = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    result = []

    def consumer():
        item = yield store.get()
        result.append((sim.now, item))

    def producer():
        yield sim.timeout(7.0)
        yield store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert result == [(7.0, "x")]


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def consumer():
        yield sim.timeout(5.0)
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("put-a", 0.0) in log
    assert ("got", "a", 5.0) in log
    assert ("put-b", 5.0) in log


def test_store_try_put_try_get():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.try_get() is None
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert store.try_get() == 1
    assert store.try_get() == 2
    assert store.try_get() is None


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


# ---------------------------------------------------------------- BoundedRing


def test_ring_push_pop_fifo():
    ring = BoundedRing(4)
    ring.push("a")
    ring.push("b")
    assert len(ring) == 2
    assert ring.pop() == "a"
    assert ring.pop() == "b"
    assert ring.is_empty


def test_ring_full_raises():
    ring = BoundedRing(2)
    ring.push(1)
    ring.push(2)
    assert ring.is_full
    with pytest.raises(RingFullError):
        ring.push(3)


def test_ring_try_push_counts_drops():
    ring = BoundedRing(1)
    assert ring.try_push(1)
    assert not ring.try_push(2)  # the drop: nothing queued
    assert ring.pop() == 1 and ring.is_empty


def test_ring_pop_empty_raises():
    ring = BoundedRing(1)
    with pytest.raises(RingEmptyError):
        ring.pop()
    assert ring.try_pop() is None


def test_ring_peek_and_free_slots():
    ring = BoundedRing(3)
    assert ring.peek() is None
    ring.push("x")
    assert ring.peek() == "x"
    assert ring.free_slots == 2
    assert len(ring) == 1  # peek does not consume


def test_ring_drain_consumes_all():
    ring = BoundedRing(8)
    for i in range(5):
        ring.push(i)
    assert ring.drain() == [0, 1, 2, 3, 4]
    assert ring.is_empty


def test_ring_nonempty_hook_fires_on_transition():
    ring = BoundedRing(4)
    fired = []
    ring.on_nonempty(lambda r: fired.append(len(r)))
    assert fired == []
    ring.push("a")
    assert fired == [1]
    ring.push("b")  # hook is one-shot
    assert fired == [1]


def test_ring_nonempty_hook_immediate_when_items_present():
    ring = BoundedRing(4)
    ring.push("a")
    fired = []
    ring.on_nonempty(lambda r: fired.append(True))
    assert fired == [True]


def test_ring_invalid_capacity():
    with pytest.raises(ValueError):
        BoundedRing(0)


# ---------------------------------------------------------------- Resource


def test_resource_serializes_access():
    sim = Simulator()
    bus = Resource(sim, capacity=1)
    log = []

    def user(name, hold):
        yield bus.acquire()
        log.append((name, "in", sim.now))
        yield sim.timeout(hold)
        bus.release()
        log.append((name, "out", sim.now))

    sim.process(user("a", 5.0))
    sim.process(user("b", 3.0))
    sim.run()
    assert log == [("a", "in", 0.0), ("a", "out", 5.0), ("b", "in", 5.0), ("b", "out", 8.0)]


def test_resource_capacity_two():
    sim = Simulator()
    pool = Resource(sim, capacity=2)
    entered = []

    def user(name):
        yield pool.acquire()
        entered.append((name, sim.now))
        yield sim.timeout(10.0)
        pool.release()

    for name in "abc":
        sim.process(user(name))
    sim.run()
    assert entered == [("a", 0.0), ("b", 0.0), ("c", 10.0)]


def test_resource_try_acquire_takes_a_free_unit_without_an_event():
    sim = Simulator()
    bus = Resource(sim, capacity=1)
    assert bus.try_acquire() and bus.in_use == 1
    assert not bus.try_acquire()          # busy: the caller falls back to acquire()
    waiter = bus.acquire()
    bus.release()                         # handed straight to the waiter
    assert not bus.try_acquire() and bus.in_use == 1
    sim.run()
    assert waiter.processed and sim.events_processed == 1  # only the waiter's event
    bus.release()
    assert bus.try_acquire()


def test_resource_release_idle_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(RuntimeError):
        res.release()
