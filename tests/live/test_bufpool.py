"""Property tests for the zero-copy buffer pool.

The pool's three invariants (no aliasing between in-flight slices, no
leaks, exhaustion-as-backpressure) hold under *any* interleaving of
alloc/free/write, not just the tidy ones the transport happens to
produce — so Hypothesis drives the interleavings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import UNetError
from repro.live import BufferPool, PooledSlice, PoolExhausted


# ----------------------------------------------------------------- unit edge
def test_construction_validates_geometry():
    with pytest.raises(ValueError):
        BufferPool(0, 64)
    with pytest.raises(ValueError):
        BufferPool(4, 0)


def test_exhaustion_is_typed_backpressure():
    pool = BufferPool(2, 32)
    held = [pool.alloc(), pool.alloc()]
    assert pool.try_alloc() is None
    with pytest.raises(PoolExhausted) as exc:
        pool.alloc()
    # the shared drop-class vocabulary: exhaustion == backpressure,
    # the same disposition as an EAGAIN from a full kernel buffer
    assert exc.value.drop_class == "backpressure"
    assert pool.exhausted_total == 2
    for s in held:
        pool.free(s)
    assert pool.free_count == 2


def test_double_free_and_foreign_free_raise():
    pool, other = BufferPool(2, 32), BufferPool(2, 32)
    s = pool.alloc()
    pool.free(s)
    with pytest.raises(UNetError):
        pool.free(s)
    t = other.alloc()
    with pytest.raises(UNetError):
        pool.free(t)


def test_slice_payload_tracks_length():
    pool = BufferPool(1, 16)
    s = pool.alloc()
    s.view[:4] = b"abcd"
    s.length = 4
    assert bytes(s.payload()) == b"abcd"
    pool.free(s)
    assert s.length == 0  # free wipes the valid-byte count


def test_slot_addresses_are_disjoint_and_stable():
    pool = BufferPool(4, 64)
    slices = [pool.alloc() for _ in range(4)]
    addresses = [s.address for s in slices]
    if pool.base_address:  # ctypes available
        assert sorted(addresses) == [pool.base_address + i * 64
                                     for i in range(4)]
    for s in slices:
        pool.free(s)
    # recycling hands back the same preallocated slice objects with the
    # same addresses — nothing is reallocated, ever
    again = [pool.alloc() for _ in range(4)]
    assert {id(s) for s in again} == {id(s) for s in slices}


# ------------------------------------------------------------- property side
@st.composite
def _alloc_free_script(draw):
    """A random interleaving of alloc (True) and free-victim choices."""
    return draw(st.lists(
        st.one_of(st.just(("alloc",)),
                  st.tuples(st.just("free"), st.integers(0, 31))),
        min_size=1, max_size=200))


@settings(max_examples=60, deadline=None)
@given(script=_alloc_free_script(),
       slots=st.integers(1, 8), slot_size=st.sampled_from([16, 64, 256]))
def test_interleavings_never_alias_never_leak(script, slots, slot_size):
    """Under any alloc/free interleaving: (1) in-flight slices occupy
    disjoint byte ranges and writes through one never appear through
    another; (2) the books balance exactly; (3) exhaustion is always
    None, never a corrupted slice."""
    pool = BufferPool(slots, slot_size)
    in_flight = {}
    stamp = 0
    for op in script:
        if op[0] == "alloc":
            s = pool.try_alloc()
            if s is None:
                assert len(in_flight) == slots  # only exhaustion says no
                continue
            assert s.index not in in_flight, "slice handed out twice"
            assert s.in_flight and s.length == 0
            stamp = (stamp + 1) % 251
            s.view[:] = bytes([stamp]) * slot_size  # brand the whole slot
            in_flight[s.index] = (s, stamp)
        else:
            if not in_flight:
                continue
            keys = sorted(in_flight)
            victim, _brand = in_flight.pop(keys[op[1] % len(keys)])
            pool.free(victim)
    # aliasing check: every surviving slice still carries its own brand
    for index, (s, brand) in in_flight.items():
        assert s.view.tobytes() == bytes([brand]) * slot_size, (
            f"slot {index} was overwritten by a sibling slice")
    # leak check: the books balance
    assert pool.in_flight_count == len(in_flight)
    assert pool.free_count == slots - len(in_flight)
    assert pool.alloc_total == pool.free_total + len(in_flight)
    for s, _brand in in_flight.values():
        pool.free(s)
    assert pool.free_count == slots


@settings(max_examples=30, deadline=None)
@given(slots=st.integers(1, 16))
def test_full_drain_restores_full_capacity(slots):
    pool = BufferPool(slots, 32)
    taken = []
    while True:
        s = pool.try_alloc()
        if s is None:
            break
        taken.append(s)
    assert len(taken) == slots
    for s in reversed(taken):
        pool.free(s)
    assert pool.free_count == slots and pool.in_flight_count == 0
    # and the pool is immediately reusable at full depth
    again = [pool.try_alloc() for _ in range(slots)]
    assert all(isinstance(s, PooledSlice) for s in again)
    for s in again:
        pool.free(s)


# ------------------------------------------------------------------- bursts
@settings(max_examples=80, deadline=None)
@given(script=st.lists(st.one_of(
    st.tuples(st.just("alloc")), st.tuples(st.just("free"), st.integers(0, 63)),
    st.tuples(st.just("take"), st.integers(0, 10)),
    st.tuples(st.just("give"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("bad"), st.sampled_from(["twice", "freed", "foreign"]))),
    min_size=1, max_size=120), slots=st.integers(1, 8))
def test_bursts_interleave_with_single_slices(script, slots):
    """``take`` / ``give_back`` against a model of the free stack,
    interleaved with ``try_alloc`` / ``free``: a burst lends exactly what
    as many ``try_alloc`` calls would, in that order; nothing aliases or
    leaks; a bad return raises the typed error and changes nothing; a
    burst given back whole (or tail first) is lent again slot for slot."""
    pool, other = BufferPool(slots, 16), BufferPool(1, 16)
    stack = list(range(slots - 1, -1, -1))  # the model: next lent is last
    singles, bursts, stamp = [], [], 0
    for op in script:
        if op[0] == "alloc":
            s = pool.try_alloc()
            assert (s.index if s else None) == (stack.pop() if stack else None)
            if s:
                singles.append(s)
        elif op[0] == "free" and singles:
            s = singles.pop(op[1] % len(singles))
            pool.free(s)
            stack.append(s.index)
        elif op[0] == "take":
            exhausted = pool.exhausted_total
            burst = pool.take(op[1])
            want = [stack.pop() for _ in range(min(op[1], len(stack)))]
            assert [s.index for s in burst] == want
            assert pool.exhausted_total == exhausted + (len(burst) < op[1])
            for s in burst:
                stamp += 1
                s.view[:] = bytes([stamp % 251]) * 16
            if burst:
                bursts.append(burst)
        elif op[0] == "give" and bursts:
            burst = bursts.pop(op[1] % len(bursts))
            again = [s.index for s in burst]
            if op[2] and len(burst) > 1:  # tail first, then head
                cut = len(burst) // 2
                pool.give_back(burst[cut:])
                pool.give_back(burst[:cut])
            else:
                pool.give_back(burst)
            stack.extend(reversed(again))
            if not singles and not bursts:  # nothing else moved: the same slots come back
                relent = pool.take(len(again))
                assert [s.index for s in relent] == again
                pool.give_back(relent)
        elif op[0] == "bad":
            books = (list(pool._free), set(pool._lent), pool.free_total)
            if op[1] == "twice" and singles:
                victim = [singles[0], singles[0]]
            elif op[1] == "freed" and len(stack):
                victim = [pool._slices[stack[-1]]]
            else:
                victim = [other.alloc()] if op[1] == "foreign" else None
            if victim:
                with pytest.raises(UNetError):
                    pool.give_back(victim)
                assert books == (list(pool._free), set(pool._lent), pool.free_total)
                if op[1] == "foreign":
                    other.free(victim[0])
        held = singles + [s for burst in bursts for s in burst]
        assert len({s.index for s in held}) == len(held) == pool.in_flight_count
        assert all(s.in_flight for s in held)
    for burst in bursts:  # no slot was written through a sibling
        for s in burst:
            assert len(set(s.view.tobytes())) == 1
        pool.give_back(burst)
    for s in singles:
        pool.free(s)
    assert pool.free_count == slots and pool.alloc_total == pool.free_total
