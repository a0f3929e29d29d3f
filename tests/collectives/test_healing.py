"""Self-healing NIC-collective trees: heal, abort, and resume semantics."""

import struct

import pytest

from repro.collectives import (
    CollectiveAborted,
    CollectiveError,
    wire_collectives,
)
from repro.fabric import ClosAtmFabric
from repro.hw import PENTIUM_120
from repro.sim import Simulator


def _cluster(leaves=4, spines=2, per_leaf=4, fanout=4):
    sim = Simulator()
    fabric = ClosAtmFabric(sim, leaves=leaves, spines=spines,
                           hosts_per_leaf=per_leaf)
    hosts = [fabric.add_host(f"n{i}", PENTIUM_120)
             for i in range(leaves * per_leaf)]
    engines, group = wire_collectives(fabric, hosts, fanout=fanout,
                                      healing=True)
    return sim, fabric, hosts, engines, group


def _contribution(node, rnd):
    return 7 + 3 * node + rnd


def _drive(sim, engines, log, node, rounds, gap_us=200.0):
    def run():
        for rnd in range(rounds):
            data = struct.pack("=q", _contribution(node, rnd))
            try:
                result = yield from engines[node].allreduce(
                    data, op="sum", dtype="q")
            except (CollectiveAborted, CollectiveError):
                return
            log.setdefault(rnd, {})[node] = struct.unpack("=q", result)[0]
            yield sim.timeout(gap_us)
    return sim.process(run(), name=f"healing.n{node}")


def test_crash_heals_to_survivor_sums_without_duplicates():
    sim, fabric, hosts, engines, group = _cluster()
    nodes = len(engines)
    victim = 5
    log = {}
    procs = [_drive(sim, engines, log, n, rounds=3) for n in range(nodes)]

    def chaos():
        yield sim.timeout(250.0)
        while not engines[victim]._reduce_state \
                and not engines[victim]._barrier_state:
            yield sim.timeout(5.0)
        engines[victim].crash()
    sim.process(chaos(), name="healing.chaos")

    sim.run(until=5_000_000.0)
    assert all(p.triggered for n, p in enumerate(procs) if n != victim)
    assert not group.aborted
    assert len(group.heals) == 1
    assert group.epoch >= 1
    survivors = [n for n in range(nodes) if n != victim]
    for rnd, cells in sorted(log.items()):
        values = set(cells.values())
        assert len(values) == 1, f"round {rnd} diverged: {sorted(values)}"
        full = sum(_contribution(n, rnd) for n in range(nodes))
        alive = sum(_contribution(n, rnd) for n in survivors)
        # at-most-once: the in-flight round may legally carry the dead
        # node's contribution, but never twice, never a partial sum
        assert values.pop() in {full, alive}
    # exactly-once: every engine-completed reduce reached exactly one host
    completions = sum(len(cells) for cells in log.values())
    assert sum(e.reduces_completed for e in engines) == completions


def test_partition_aborts_every_member_then_resumes():
    sim, fabric, hosts, engines, group = _cluster()
    nodes = len(engines)
    aborted_at = {}

    def member(node):
        rnd = 0
        while True:
            data = struct.pack("=q", _contribution(node, rnd))
            try:
                yield from engines[node].allreduce(data, op="sum", dtype="q")
            except CollectiveAborted:
                aborted_at[node] = sim.now
                return
            rnd += 1
            yield sim.timeout(200.0)

    procs = [sim.process(member(n), name=f"part.n{n}") for n in range(nodes)]

    def cut():
        yield sim.timeout(300.0)
        fabric.set_trunk_state(0, 4, False)  # both leaf-0 uplinks
        fabric.set_trunk_state(0, 5, False)
    sim.process(cut(), name="part.cut")

    sim.run(until=1_000_000.0)
    # all-or-nothing: every member raised the typed abort in bounded time
    assert all(p.triggered for p in procs)
    assert sorted(aborted_at) == list(range(nodes))
    assert group.aborted
    assert len(group.abort_times) == 1
    # while split, resume refuses with the same typed error
    with pytest.raises(CollectiveAborted):
        group.resume()
    # heal the fabric: resume re-opens the full membership
    fabric.set_trunk_state(0, 4, True)
    fabric.set_trunk_state(0, 5, True)
    live = group.resume()
    assert live == list(range(nodes))
    assert not group.aborted

    log = {}
    post = [_drive(sim, engines, log, n, rounds=2) for n in range(nodes)]
    sim.run(until=sim.now + 1_000_000.0)
    assert all(p.triggered for p in post)
    for rnd, cells in sorted(log.items()):
        assert len(cells) == nodes
        assert set(cells.values()) == {
            sum(_contribution(n, rnd) for n in range(nodes))}


def test_stale_epoch_traffic_is_fenced_not_replayed():
    """After a heal, packets stamped with the dead epoch are dropped at
    the NIC (counted), never folded into a live round's sum."""
    sim, fabric, hosts, engines, group = _cluster()
    nodes = len(engines)
    victim = 2
    log = {}
    procs = [_drive(sim, engines, log, n, rounds=4, gap_us=50.0)
             for n in range(nodes)]

    def chaos():
        yield sim.timeout(120.0)
        while not engines[victim]._reduce_state \
                and not engines[victim]._barrier_state:
            yield sim.timeout(5.0)
        engines[victim].crash()
    sim.process(chaos(), name="fence.chaos")

    sim.run(until=5_000_000.0)
    assert all(p.triggered for n, p in enumerate(procs) if n != victim)
    assert len(group.heals) == 1
    survivors = [n for n in range(nodes) if n != victim]
    for rnd, cells in sorted(log.items()):
        full = sum(_contribution(n, rnd) for n in range(nodes))
        alive = sum(_contribution(n, rnd) for n in survivors)
        assert set(cells.values()) <= {full, alive}
    # every survivor installed the healed epoch exactly once
    assert {e.epochs_installed for n, e in enumerate(engines)
            if n != victim} == {1}


def test_fe_clos_healing_holds_no_peer_address_it_has_not_wired():
    """MACs are flat, but the healing group no longer pre-addresses the
    full mesh: an adapter knows its tree neighbours, and after a heal
    the neighbours the re-ranked tree gave it — wired lazily, by the
    same ``wire_edge`` that did the first wiring."""
    from repro.collectives.tree import KAryTree
    from repro.fabric import ClosFeNetwork

    sim = Simulator()
    net = ClosFeNetwork(sim, leaves=4, spines=2, hosts_per_leaf=4)
    hosts = [net.add_host(f"n{i}", PENTIUM_120) for i in range(16)]
    engines, group = wire_collectives(net, hosts, fanout=4, healing=True)

    def neighbours(tree, members):
        edges = [(members[tree.parent(rank)], members[rank])
                 for rank in range(1, len(members))]
        return {n: {b if a == n else a for a, b in edges if n in (a, b)}
                for n in members}

    first = neighbours(engines[0].tree, list(range(16)))
    for engine in engines:
        assert set(engine.adapter.address) == first[engine.node]
        assert all(engine.adapter.address[peer] == hosts[peer].backend.mac
                   for peer in first[engine.node])
    assert sum(len(e.adapter.address) for e in engines) == 2 * 15  # not 16 * 15

    victim = 1  # an inner node: its children must be re-parented
    log = {}
    procs = [_drive(sim, engines, log, n, rounds=3) for n in range(16)]

    def chaos():
        yield sim.timeout(250.0)
        engines[victim].crash()
    sim.process(chaos(), name="healing.chaos")
    sim.run(until=5_000_000.0)
    assert all(p.triggered for n, p in enumerate(procs) if n != victim)
    assert len(group.heals) == 1 and not group.aborted

    survivors = [n for n in range(16) if n != victim]
    healed = neighbours(KAryTree(15, fanout=4), survivors)
    for node in survivors:
        assert set(engines[node].adapter.address) == first[node] | healed[node]
