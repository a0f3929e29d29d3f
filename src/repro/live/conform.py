"""Conformance execution on the live U-Net/OS substrate.

``run_live_case`` drives the *same* workload and content-addressed
fault schedule the simulated substrates run — faults applied at the
live framing layer by a :class:`~repro.faults.scripted.ScriptedStage`
reading :class:`~repro.live.backend.DatagramWire` — and returns the
same :class:`~repro.conformance.observe.ObservedTrace` shape, so the
differential checker can diff ATM vs FE vs reference model vs wall
clock in one report.

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

from ..am.am import AmError
from ..conformance.checker import CaseRig, SubstrateUnavailable, inject_bug
from ..conformance.observe import ObservedTrace
from ..conformance.schedule import ConformanceCase
from ..core import EndpointConfig
from ..core.errors import UNetError
from ..faults.crash import ChainedStage
from ..faults.stream import stream_payload
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
    clock = WallClock()
    limit_us = min(case.time_limit_us, WALL_LIMIT_US)
    with inject_bug(bug), LiveCluster(
            lambda name: make_transport(transport_kind, name), clock,
            doorbell_mode=doorbell_mode) as cluster:
        n0 = cluster.add_node("n0")
        n1 = cluster.add_node("n1")
        sender_cfg = EndpointConfig(num_buffers=64, buffer_size=2048,
                                    send_queue_depth=64, recv_queue_depth=64)
        receiver_cfg = EndpointConfig(num_buffers=case.rx_buffers + 24,
                                      buffer_size=2048, send_queue_depth=64,
                                      recv_queue_depth=case.recv_queue_depth)
        ep0 = n0.create_user_endpoint(config=sender_cfg, rx_buffers=32)
        ep1 = n1.create_user_endpoint(config=receiver_cfg,
                                      rx_buffers=case.rx_buffers)
        ch0, ch1 = cluster.connect(ep0, ep1)
        am0 = LiveAm(0, ep0, config=case.am_config(receiver=False))
        am1 = LiveAm(1, ep1, config=case.am_config(receiver=True))
        am0.connect_peer(1, ch0)
        am1.connect_peer(0, ch1)

        rig = CaseRig(case, f"live-{transport_kind}", am0, am1, n0, n1)
        # one ingress slot on the live backend: chain node 1's stages
        n1.install_ingress_stage(ChainedStage(*rig.fwd_stages))
        n0.install_ingress_stage(rig.rev_stage)

        def rpc_handler(ctx) -> None:
            rig.check_payload(ctx)
            ctx.reply(args=(ctx.args[0] * 2 + 1,))

        am1.register_handler(2, rpc_handler)

        def pump() -> None:
            moved = cluster.step()
            am0.service()
            am1.service()
            if not moved and doorbell_mode == "event":
                # park on epoll instead of spinning: the event doorbell
                # wakes us the moment either socket turns readable
                cluster.wait_readable(500.0)

        deadline = clock.now_us() + limit_us
        completed = True
        try:
            for i, message in enumerate(case.messages):
                remaining = deadline - clock.now_us()
                if remaining <= 0:
                    raise AmError("wall-clock limit reached")
                data = stream_payload(i, message.size)
                if message.rpc:
                    args, _d = am0.rpc(1, 2, args=(i,), data=data,
                                       pump=pump, limit_us=remaining)
                    rig.check_reply(i, args)
                else:
                    am0.request(1, 1, args=(i,), data=data,
                                pump=pump, limit_us=remaining)
        except (AmError, UNetError):
            # wall-clock limit, or the sender declared the peer dead and
            # refused the remaining sends: either way, incomplete
            completed = False

        if completed and case.lifecycle:
            while clock.now_us() < deadline and not rig.settled():
                pump()
            completed = rig.settled()
        completion = clock.now_us() if completed else limit_us
        if completed:
            drain_deadline = min(deadline, clock.now_us() + _DRAIN_US)
            while clock.now_us() < drain_deadline:
                if am0.idle and am1.idle:
                    break
                pump()
            am0.shutdown()
            am1.shutdown()
            pump()

        return rig.finish(completed, completion)


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
