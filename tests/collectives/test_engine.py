"""Deterministic unit tests of the NIC-resident collective engine,
exercised through real adapters on both substrates (reserved VCIs on
the PCA-200, the reserved U-Net port on the DC21140)."""

import hashlib

import numpy as np
import pytest

from repro.atm.network import AtmNetwork
from repro.collectives import (
    CollectiveError,
    wire_collectives,
)
from repro.ethernet.network import SwitchedNetwork
from repro.hw import PENTIUM_120, SPARCSTATION_20
from repro.sim import Simulator, TraceRecorder


def build(substrate, n, fanout=2):
    sim = Simulator()
    if substrate == "atm":
        net = AtmNetwork(sim)
        hosts = [net.add_host(f"n{i}", SPARCSTATION_20) for i in range(n)]
        engines = wire_collectives(net, hosts, fanout=fanout)
    else:
        net = SwitchedNetwork(sim)
        hosts = [net.add_host(f"n{i}", PENTIUM_120) for i in range(n)]
        engines = wire_collectives(net, hosts, fanout=fanout)
    return sim, engines


def run_on_all(sim, engines, make_program):
    processes = [sim.process(make_program(engine), name=f"coll.{engine.node}")
                 for engine in engines]
    return [sim.run_until_complete(process, limit=1e9) for process in processes]


@pytest.mark.parametrize("substrate", ["atm", "fe"])
def test_barrier_completes_everywhere(substrate):
    sim, engines = build(substrate, 7)

    def program(engine):
        for _ in range(3):
            yield from engine.barrier()

    run_on_all(sim, engines, program)
    assert all(engine.barriers_completed == 3 for engine in engines)
    assert sim.now > 0.0


@pytest.mark.parametrize("substrate", ["atm", "fe"])
def test_barrier_holds_back_early_arrivals(substrate):
    """No node may pass the barrier before the last one enters it."""
    sim, engines = build(substrate, 5)
    entered = {}
    released = {}

    def program(engine):
        # node i dawdles i*40us before entering; the release time of
        # every node must not precede the last entry
        yield sim.timeout(engine.node * 40.0)
        entered[engine.node] = sim.now
        yield from engine.barrier()
        released[engine.node] = sim.now

    run_on_all(sim, engines, program)
    assert min(released.values()) >= max(entered.values())


@pytest.mark.parametrize("substrate", ["atm", "fe"])
def test_broadcast_delivers_root_payload(substrate):
    sim, engines = build(substrate, 6, fanout=3)
    payload = bytes(range(48))

    def program(engine):
        if engine.node == 0:
            got = yield from engine.broadcast(payload)
        else:
            got = yield from engine.broadcast()
        return got

    results = run_on_all(sim, engines, program)
    assert results == [payload] * 6


@pytest.mark.parametrize("substrate", ["atm", "fe"])
@pytest.mark.parametrize("op,expected", [
    ("sum", np.sum), ("max", np.max), ("min", np.min),
])
def test_allreduce_combines(substrate, op, expected):
    n = 6
    sim, engines = build(substrate, n)
    inputs = {node: np.array([node * 3 - 5, node + 100], dtype=np.int32)
              for node in range(n)}

    def program(engine):
        result = yield from engine.allreduce(inputs[engine.node].tobytes(),
                                             op=op, dtype="i")
        return np.frombuffer(result, dtype=np.int32)

    results = run_on_all(sim, engines, program)
    stacked = np.stack([inputs[node] for node in range(n)])
    reference = expected(stacked, axis=0)
    for got in results:
        assert np.array_equal(got, reference)


def test_single_node_collectives_are_local():
    sim, engines = build("atm", 1)

    def program(engine):
        yield from engine.barrier()
        got = yield from engine.broadcast(b"solo")
        result = yield from engine.allreduce(
            np.array([7], dtype=np.int32).tobytes())
        return got, result

    (got, result), = run_on_all(sim, engines, program)
    assert got == b"solo"
    assert np.frombuffer(result, dtype=np.int32)[0] == 7
    assert engines[0].packets_sent == 0  # nothing crosses the wire


def test_oversize_payload_is_refused():
    sim, engines = build("fe", 2)

    def program(engine):
        if engine.node == 0:
            yield from engine.broadcast(b"x" * (engines[0].max_data + 1))

    process = sim.process(program(engines[0]), name="oversize")
    with pytest.raises(CollectiveError):
        sim.run_until_complete(process, limit=1e9)


def test_root_broadcast_requires_data():
    sim, engines = build("atm", 3)

    def program(engine):
        yield from engine.broadcast()  # root with no payload

    process = sim.process(program(engines[0]), name="nodata")
    with pytest.raises(CollectiveError):
        sim.run_until_complete(process, limit=1e9)


@pytest.mark.parametrize("substrate", ["atm", "fe"])
def test_interleaved_collectives_do_not_cross_talk(substrate):
    """barrier / broadcast / reduce generations are independent tracks."""
    n = 5
    sim, engines = build(substrate, n)

    def program(engine):
        yield from engine.barrier()
        if engine.node == 0:
            got = yield from engine.broadcast(b"round1")
        else:
            got = yield from engine.broadcast()
        value = np.array([engine.node], dtype=np.int64)
        result = yield from engine.allreduce(value.tobytes(), op="sum",
                                             dtype="q")
        yield from engine.barrier()
        return got, int(np.frombuffer(result, dtype=np.int64)[0])

    results = run_on_all(sim, engines, program)
    assert all(got == b"round1" for got, _ in results)
    assert all(total == sum(range(n)) for _, total in results)
    assert all(engine.barriers_completed == 2 for engine in engines)
    # stop-and-wait edges, no loss: nothing should have retransmitted
    assert all(engine.retransmissions == 0 for engine in engines)


def test_atm_collective_cells_are_not_unknown_tags():
    """Reserved VCIs are checked before the demux table, so a lossless
    NIC barrier books no ``unknown_tag_drops`` (it used to book one per
    collective cell, and one per VCI registered)."""
    sim, engines = build("atm", 16, fanout=4)

    def program(engine):
        yield from engine.barrier()

    run_on_all(sim, engines, program)
    assert all(engine.barriers_completed == 1 for engine in engines)
    drops = [engine.adapter.backend.drop_stats()["unknown_tag_drops"]
             for engine in engines]
    assert drops == [0] * 16


#: sha256 of every step the NICs traced during two 7-node NIC barriers
#: (start, duration, category, label, info of each record, in recording
#: order), as recorded at the commit before the collective path moved
#: from per-packet processes to ``call_in``: what a journey or timeline
#: view of a NIC barrier is built from must not move with the scheduler
#: idiom underneath it
NIC_BARRIER_TRACE = {
    "atm": (144, "7ddf5ea84208638a57efe870bf590b57e57bd55094cbdc065ade9dd55b895c8b"),
    "fe": (48, "06699598435aec763594dafb937a513356fe2d1fa257609758c29aa322845e95"),
}


@pytest.mark.parametrize("substrate", ["atm", "fe"])
def test_nic_barrier_trace_is_byte_identical(substrate):
    sim, engines = build(substrate, 7)
    trace = TraceRecorder()
    for engine in engines:
        engine.adapter.backend.trace.subscribe(trace.records.append)

    def program(engine):
        yield from engine.barrier()
        yield from engine.barrier()

    run_on_all(sim, engines, program)
    sim.run()
    text = "\n".join(
        f"{r.start!r} {r.duration!r} {r.category} {r.step} {sorted(r.info.items())}"
        for r in trace.records)
    assert (len(trace.records), hashlib.sha256(text.encode()).hexdigest()) \
        == NIC_BARRIER_TRACE[substrate]
