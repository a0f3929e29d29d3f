"""Property-based tests of the collective engine.

Three pinned invariants:

* a reduce result is a pure function of the contribution *set* — never
  of arrival order, tree fanout, or substrate;
* the 16-bit generation counters wrap without a hiccup mid-run;
* broadcast stays exactly-once per node even when the fault stages of
  :mod:`repro.faults` chew on every fat-tree trunk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm.network import AtmNetwork
from repro.collectives import (
    GEN_MOD,
    wire_collectives,
)
from repro.collectives.engine import _GenWindow
from repro.ethernet.network import SwitchedNetwork
from repro.atm.cells import CellWire
from repro.fabric import ClosAtmFabric
from repro.faults.inject import attach_pipeline
from repro.faults.perturb import Duplicate, UniformLoss
from repro.hw import PENTIUM_120, SPARCSTATION_20
from repro.sim import Simulator
from repro.sim.rng import RngRegistry


def build(substrate, n, fanout):
    sim = Simulator()
    if substrate == "atm":
        net = AtmNetwork(sim)
        hosts = [net.add_host(f"n{i}", SPARCSTATION_20) for i in range(n)]
        engines = wire_collectives(net, hosts, fanout=fanout)
    else:
        net = SwitchedNetwork(sim)
        hosts = [net.add_host(f"n{i}", PENTIUM_120) for i in range(n)]
        engines = wire_collectives(net, hosts, fanout=fanout)
    return net, engines


def run_on_all(sim, engines, make_program):
    processes = [sim.process(make_program(engine), name=f"coll.{engine.node}")
                 for engine in engines]
    return [sim.run_until_complete(process, limit=1e9) for process in processes]


# ------------------------------------------------- reduce order independence
@given(
    substrate=st.sampled_from(["atm", "fe"]),
    n=st.integers(min_value=2, max_value=10),
    fanout=st.integers(min_value=1, max_value=5),
    op=st.sampled_from(["sum", "max", "min"]),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_reduce_result_is_arrival_order_independent(substrate, n, fanout, op, data):
    """Random per-node values, random doorbell staggering, random tree
    shape: every node must end with the exact elementwise reduction."""
    length = data.draw(st.integers(min_value=1, max_value=4), label="length")
    values = data.draw(
        st.lists(
            st.lists(st.integers(min_value=-2**30, max_value=2**30),
                     min_size=length, max_size=length),
            min_size=n, max_size=n),
        label="values")
    delays = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=500.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n),
        label="delays")
    net, engines = build(substrate, n, fanout)
    sim = net.sim
    inputs = [np.array(row, dtype=np.int64) for row in values]

    def program(engine):
        # the draw staggers doorbells, permuting contribution arrival
        yield sim.timeout(delays[engine.node])
        result = yield from engine.allreduce(inputs[engine.node].tobytes(),
                                             op=op, dtype="q")
        return np.frombuffer(result, dtype=np.int64)

    with net:
        results = run_on_all(sim, engines, program)
    fn = {"sum": np.sum, "max": np.max, "min": np.min}[op]
    reference = fn(np.stack(inputs), axis=0)
    for got in results:
        assert np.array_equal(got, reference)
    assert all(engine.reduces_completed == 1 for engine in engines)


# -------------------------------------------------- generation counter wrap
def _seed_generation(engine, gen):
    """Start every per-op track of ``engine`` at generation ``gen``."""
    before = (gen - 1) % GEN_MOD
    for tree in engine._trees:
        tree.gen = gen
        tree.win.floor = before


@given(
    start=st.integers(min_value=GEN_MOD - 6, max_value=GEN_MOD - 1),
    rounds=st.integers(min_value=8, max_value=12),
    substrate=st.sampled_from(["atm", "fe"]),
)
@settings(max_examples=15, deadline=None)
def test_collectives_survive_generation_wrap(start, rounds, substrate):
    """Seed the 16-bit counters just below the wrap point and run
    enough rounds to cross it: nothing stalls, nothing duplicates."""
    n = 5
    net, engines = build(substrate, n, fanout=2)
    for engine in engines:
        _seed_generation(engine, start)

    def program(engine):
        for round_index in range(rounds):
            yield from engine.barrier()
            if engine.node == 0:
                got = yield from engine.broadcast(b"gen%d" % round_index)
            else:
                got = yield from engine.broadcast()
            assert got == b"gen%d" % round_index
            value = np.array([engine.node + round_index], dtype=np.int64)
            result = yield from engine.allreduce(value.tobytes(), op="sum",
                                                 dtype="q")
            total = int(np.frombuffer(result, dtype=np.int64)[0])
            assert total == sum(range(n)) + n * round_index

    with net:
        run_on_all(net.sim, engines, program)
    for engine in engines:
        assert engine.barriers_completed == rounds
        assert engine.broadcasts_completed == rounds
        assert engine.reduces_completed == rounds
        # the counters did wrap during the run
        assert [tree.gen for tree in engine._trees] == [(start + rounds) % GEN_MOD] * 3


@given(start=st.integers(min_value=0, max_value=GEN_MOD - 1),
       count=st.integers(min_value=1, max_value=80))
@settings(max_examples=40, deadline=None)
def test_gen_window_floor_advances_across_wrap(start, count):
    window = _GenWindow()
    window.floor = (start - 1) % GEN_MOD
    for i in range(count):
        gen = (start + i) % GEN_MOD
        assert window.add(gen)
        assert not window.add(gen)  # immediate retransmit is deduped
    assert window.floor == (start + count - 1) % GEN_MOD
    assert not window.ahead


# ------------------------------------- broadcast exactly-once under faults
class _Trunk:
    """One fat-tree trunk seen as a backend: cells, delivered by its link."""

    wire = CellWire

    def __init__(self, link):
        self.link = link
        self.sim = link.sim

    def rx_fault_hooks(self):
        return [(self.link, "deliver")]


@given(
    loss_rate=st.floats(min_value=0.0, max_value=0.35),
    duplicate_rate=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_broadcast_exactly_once_under_trunk_faults(loss_rate, duplicate_rate, seed):
    """Lossy, duplicating fat-tree trunks: every node still sees every
    broadcast exactly once, in generation order."""
    sim = Simulator()
    fabric = ClosAtmFabric(sim, leaves=2, spines=2, hosts_per_leaf=4)
    hosts = [fabric.add_host(f"n{i}", SPARCSTATION_20) for i in range(8)]
    engines = wire_collectives(fabric, hosts, fanout=2)
    pipelines = []
    for a, b in fabric.topology.trunks:
        for src, dst in ((a, b), (b, a)):
            link = fabric.trunk_link(src, dst)
            pipelines.append(attach_pipeline(
                _Trunk(link),
                [UniformLoss(loss_rate), Duplicate(duplicate_rate)],
                rng=RngRegistry(seed),
                prefix=f"trunk.{src}.{dst}"))
    payloads = [b"msg-%d" % i for i in range(4)]
    delivered = {engine.node: [] for engine in engines}

    def program(engine):
        for payload in payloads:
            if engine.node == 0:
                got = yield from engine.broadcast(payload)
            else:
                got = yield from engine.broadcast()
            delivered[engine.node].append(got)

    with fabric:
        processes = [sim.process(program(engine), name=f"coll.{engine.node}")
                     for engine in engines]
        for process in processes:
            sim.run_until_complete(process, limit=1e9)
    for pipeline in pipelines:
        pipeline.restore()
    for node, got in delivered.items():
        assert got == payloads, f"node {node} saw {got}"
    assert all(engine.broadcasts_completed == len(payloads)
               for engine in engines)
    # the hook point is live: cross-leaf tree edges exist, so every run
    # pushes cells through the trunk pipelines.  (Dropped cells do not
    # force retransmissions within the run — a final-packet ACK loss is
    # only repaired after the RTO, past program completion — so the
    # exactly-once asserts above are the recovery check, not counters.)
    assert sum(pipeline.injected for pipeline in pipelines) > 0
