"""Conformance execution on the live U-Net/OS substrate.

``run_live_case`` runs the *same* workload process
(:meth:`~repro.conformance.checker.CaseRig.drive`) and content-addressed
fault schedule the simulated substrates run — the process on the live
cluster's wall-clock runner, the faults attached by the rig at the live
framing layer (``LiveBackend._deliver``), the stages reading
:class:`~repro.live.backend.DatagramWire` — and returns the same
:class:`~repro.conformance.observe.ObservedTrace`, so the differential
checker can diff ATM vs FE vs reference model vs wall clock in one
report.  What is its own is the rig: sockets, endpoints, ``LiveAm``
and the drain that lets tail acks settle before the timers stop.

A live name relaxes timing: retransmission counts depend on when the
OS scheduler ran the doorbell loop, so the checker compares them only
loosely.  Everything semantic — dispatch order, reply sets, drop
classes, occurrence-0 fault hits, the online window/credit/continuity
invariants — is compared exactly; that is the point of the exercise.

The checker's bug library patches the protocol core's spec seams, so
``bug=`` injects the very same broken variant here as on the simulated
substrates, proving the harness catches the same semantic regressions
on a wall-clock execution.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..conformance.checker import CaseRig, SubstrateUnavailable, inject_bug
from ..conformance.observe import ObservedTrace
from ..conformance.schedule import ConformanceCase
from .am import LiveAm
from .backend import LiveCluster
from .clock import WallClock
from .doorbell import DEFAULT_DOORBELL_MODE
from .transport import available_transport_kinds, make_transport

__all__ = ["run_live_case", "WALL_LIMIT_US", "live_runner"]

#: hard wall-clock ceiling per live execution, whatever the case says
WALL_LIMIT_US = 8_000_000.0
#: wall-clock drain after the workload, so tail acks settle
_DRAIN_US = 500_000.0


# ------------------------------------------------------------------- running
def run_live_case(case: ConformanceCase, transport_kind: str = "unix",
                  bug: Optional[str] = None,
                  doorbell_mode: str = DEFAULT_DOORBELL_MODE) -> ObservedTrace:
    """Run ``case`` on U-Net/OS and collect its observable trace.

    ``doorbell_mode`` selects the backend's doorbell discipline —
    busy-poll, event (epoll-parked), or batched (pooled zero-copy
    RX/TX with sendmmsg/recvmmsg) — and must be observably invisible
    here: the parity matrix diffs every mode against the reference
    model and demands zero semantic divergence.
    """
    with inject_bug(bug), LiveCluster(
            lambda name: make_transport(transport_kind, name), WallClock(),
            doorbell_mode=doorbell_mode) as cluster:
        def add_node(name: str):
            node = cluster.add_node(name)
            return node, node.create_user_endpoint

        rig = CaseRig(case, f"live-{transport_kind}", add_node, cluster.connect, LiveAm)
        am0, am1 = rig.am0, rig.am1

        def rpc(dest, handler, args, data):
            seq = yield from cluster.poll(partial(am0.start_rpc, dest, handler, args, data))
            return (yield from cluster.poll(partial(am0.rpc_result, dest, seq)))

        sim, ams = cluster.sim, (am0, am1)
        limit_us = min(case.time_limit_us, WALL_LIMIT_US)
        deadline = sim.now + limit_us
        process = sim.process(rig.drive(
            sim, lambda *a: cluster.poll(partial(am0.start_request, *a)), rpc))
        cluster.run(deadline, ams)
        if rig.completed(process):
            # tail acks settle before the timers stop, then one last pass
            sim.process(cluster.poll(lambda: (am0.idle and am1.idle) or None))
            cluster.run(min(deadline, sim.now + _DRAIN_US), ams)
            am0.shutdown()
            am1.shutdown()
            cluster.run(sim.now, ams)
        return rig.finish(process, limit_us)


# ----------------------------------------------------------------- lookup
def live_runner(kind: Optional[str], mode: Optional[str]) -> Callable:
    """The conformance runner for one ``networks.LIVE`` row: transport
    ``kind`` (None: the best one here, unix before udp) under doorbell
    ``mode`` (None: the default)."""
    kinds = available_transport_kinds()
    if kind is None and kinds:
        kind = kinds[0]
    if kind not in kinds:
        raise SubstrateUnavailable(
            f"this machine has no {kind or 'local'} live transport "
            f"(available: {list(kinds) or 'none'})")
    return partial(run_live_case, transport_kind=kind,
                   doorbell_mode=mode or DEFAULT_DOORBELL_MODE)
