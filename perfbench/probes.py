"""Isolated probes: N direct calls of one layer's public function.

Each figure is nanoseconds per call, median of ``SAMPLES`` timings, with
no device model, no AM endpoint and no workload around the function.  A
probe that moves while the workloads' ``speed_index`` does not says the
function is not on a path that blocks the result.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Callable, Dict

from repro.am.protocol import TYPE_REQUEST, Packet, decode, encode
from repro.atm.cells import aal5_reassemble, aal5_segment
from repro.core.mux import DemuxTable
from repro.fabric.topology import clos_topology
from repro.live.bufpool import BufferPool
from repro.live.transport import make_transport
from repro.sim import Simulator

SAMPLES = 5
PDU = bytes(range(256)) * 5 + bytes(218)  # 1498 bytes


def _timed(fn: Callable[[], int]) -> float:
    """Nanoseconds per call of one sample; ``fn`` returns its call count."""
    start = time.perf_counter()
    calls = fn()
    return (time.perf_counter() - start) * 1e9 / calls


def sim_timeout() -> int:
    sim, n = Simulator(), 20_000

    def sleeper():
        for _ in range(n):
            yield sim.timeout(1.0)

    sim.run_until_complete(sim.process(sleeper()))
    return n


def sim_call_in() -> int:
    sim, n = Simulator(), 20_000
    sink = [].append
    for i in range(n):
        sim.call_in(float(i % 97), sink, i)
    sim.run()
    return n


def core_demux_lookup() -> int:
    table, n = DemuxTable(), 100_000
    for port in range(64):
        table.register((port, 1, port), None, port)
    lookup = table.lookup
    for i in range(n):
        lookup((i & 63, 1, i & 63))
    return n


def atm_aal5_segment() -> int:
    n = 1_000
    for _ in range(n):
        aal5_segment(PDU, 42)
    return n


def atm_aal5_reassemble() -> int:
    cells, n = aal5_segment(PDU, 42), 2_000
    for _ in range(n):
        aal5_reassemble(cells)
    return n


_PACKET = Packet(type=TYPE_REQUEST, handler=7, seq=3, ack=2,
                 args=(1, 2, 3, 4), data=PDU[:40])


def am_encode() -> int:
    n = 20_000
    for _ in range(n):
        encode(_PACKET)
    return n


def am_decode() -> int:
    raw, n = encode(_PACKET), 20_000
    for _ in range(n):
        decode(raw)
    return n


def fabric_clos_paths() -> int:
    """One call = one ``shortest_paths`` on a fresh 8 x 4 Clos (the
    topology build is spread over its 56 ordered leaf pairs)."""
    calls = 0
    for _ in range(20):
        topology = clos_topology(8, 4)
        for src in range(8):
            for dst in range(8):
                if src != dst:
                    topology.shortest_paths(src, dst)
                    calls += 1
    return calls


def live_bufpool_cycle() -> int:
    pool, n = BufferPool(64, 2048), 50_000
    for _ in range(n):
        pool.free(pool.try_alloc())
    return n


def live_transport_batch(kind: str) -> int:
    """``send_many_to`` + ``recv_batch_into`` between two pinned
    transports, no backend above them; one call = one datagram."""
    payloads = [PDU[:256]] * 16
    pool = BufferPool(64, 2048)
    with make_transport(kind, "probe0") as tx, make_transport(kind, "probe1") as rx:
        tx.connect_peer(rx.address)
        rx.connect_peer(tx.address)
        moved = 0
        for _ in range(1_000):
            tx.send_many_to(rx.address, payloads)
            for slice_ in rx.recv_batch_into(pool):
                pool.free(slice_)
                moved += 1
    return moved


def run_probes(transport_kind: str) -> Dict[str, float]:
    probes = {
        "sim.timeout_ns": sim_timeout,
        "sim.call_in_ns": sim_call_in,
        "core.demux_lookup_ns": core_demux_lookup,
        "atm.aal5_segment_ns": atm_aal5_segment,
        "atm.aal5_reassemble_ns": atm_aal5_reassemble,
        "am.encode_ns": am_encode,
        "am.decode_ns": am_decode,
        "fabric.clos_paths_ns": fabric_clos_paths,
        "live.bufpool_cycle_ns": live_bufpool_cycle,
        "live.transport_batch_ns_per_msg": functools.partial(
            live_transport_batch, transport_kind),
    }
    return {name: statistics.median(_timed(fn) for _ in range(SAMPLES))
            for name, fn in probes.items()}
