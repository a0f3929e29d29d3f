"""Kill/restart soak: crash recovery under sustained traffic, with fates.

The conformance crash cases prove the recovery *semantics* are
substrate-invariant on small, deterministic schedules.  This suite is
the endurance counterpart: a longer request stream during which the
receiver is killed and restarted repeatedly, on each substrate —

* ``atm-kill`` / ``fe-kill``: the simulated NIs, receiver crashed via
  ``AmEndpoint.crash()`` / ``restart()`` mid-stream;
* ``live-kill``: U-Net/OS over real sockets, the in-process crash twin
  on a wall clock (any ``networks.LIVE`` row runs it the same way);
* ``sigkill``: the real thing — a peer *process* (``repro.live.peer``)
  killed with SIGKILL and respawned as the next incarnation.

Every run accounts for the fate of every admitted message under the
at-most-once contract:

* **delivered** — dispatched by some incarnation of the receiver;
* **abandoned** — the sender gave it the abandoned fate at reconnect
  (or at peer-death); a message may legally be *both* (it reached the
  handler but its ack died with the incarnation) — never neither;
* **duplicated** — dispatched twice; this must be **zero**, always:
  a single duplicate means a send was replayed across an incarnation
  boundary and the soak fails.

Recovery time is measured per kill: from the moment the old
incarnation dies to the moment the *sender* has processed the new
incarnation's HELLO (``peer_restart``) and can make progress again.

Results serialize to a JSON artifact (:data:`CRASH_ARTIFACT`) so CI can
archive the message-fate accounting of every soak run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import networks
from ..am import AmConfig
from ..am.core import handshake_settled
from ..artifact import Artifact
from ..core.errors import UNetError
from ..networks import SubstrateUnavailable
from ..suite import Suite
from ..telemetry import total
from .stream import ENDPOINT_CONFIG, build_am_star, stream_payload

__all__ = [
    "CRASH_ARTIFACT",
    "CrashScenario",
    "CrashSoakResult",
    "CRASH_SCENARIOS",
    "crash_payload",
    "run_crash_scenario",
    "render_crash_table",
]

#: ack-per-dispatch so an ack *implies* dispatch: the abandoned set is
#: then exactly the sends whose delivery the sender cannot prove; a
#: network sets the AM timers its clock needs (``am_timers``)
_AM_CONFIG = AmConfig(recovery=True, window=4, ack_every=1)


#: bytes per stream message
PAYLOAD_BYTES = 120


@dataclass
class CrashScenario:
    """One reproducible kill/restart soak."""

    name: str
    description: str
    #: a network name (``networks.build``: simulated, or a ``LIVE`` row
    #: in-process over real sockets), or "sigkill" (real peer process,
    #: real SIGKILL)
    substrate: str
    messages: int = 48
    #: kill/restart cycles, spread evenly across the stream
    crashes: int = 3
    #: how long the receiver stays dead before restarting; must stay
    #: under the sender's peer-death threshold or sends start failing
    downtime_us: float = 9_000.0
    time_limit_us: float = 60_000_000.0

    def crash_targets(self) -> List[int]:
        """How far through the stream (messages fated) each kill triggers."""
        return [self.messages * (c + 1) // (self.crashes + 1)
                for c in range(self.crashes)]


@dataclass
class CrashSoakResult:
    """Message-fate accounting and recovery timing of one soak run."""

    scenario: str
    substrate: str
    completed: bool
    violations: List[str]
    sent: int
    delivered: int
    duplicated: int
    abandoned: int
    restarts: int
    recovery_times_us: List[float] = field(default_factory=list)
    stale_epoch_drops: int = 0
    peer_dead_drops: int = 0
    retransmissions: int = 0
    completion_time_us: float = 0.0
    #: events the simulator processed (zero for the live and sigkill
    #: substrates, which simulate nothing)
    sim_events: int = 0

    @property
    def ok(self) -> bool:
        return self.completed and not self.violations

    @property
    def mean_recovery_us(self) -> Optional[float]:
        if not self.recovery_times_us:
            return None
        return sum(self.recovery_times_us) / len(self.recovery_times_us)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "substrate": self.substrate,
            "completed": self.completed,
            "violations": list(self.violations),
            "fates": {
                "sent": self.sent,
                "delivered": self.delivered,
                "duplicated": self.duplicated,
                "abandoned": self.abandoned,
            },
            "restarts": self.restarts,
            "recovery_times_us": list(self.recovery_times_us),
            "mean_recovery_us": self.mean_recovery_us,
            "stale_epoch_drops": self.stale_epoch_drops,
            "peer_dead_drops": self.peer_dead_drops,
            "retransmissions": self.retransmissions,
            "completion_time_us": self.completion_time_us,
            "ok": self.ok,
        }


CRASH_SCENARIOS: Dict[str, CrashScenario] = {
    s.name: s
    for s in (
        CrashScenario("atm-kill", "kill/restart the receiver on U-Net/ATM",
                      substrate="atm"),
        CrashScenario("fe-kill", "kill/restart the receiver on U-Net/FE",
                      substrate="ethernet"),
        CrashScenario("live-kill", "kill/restart over real sockets, wall clock",
                      substrate="live", messages=32, crashes=2,
                      downtime_us=40_000.0),
        CrashScenario("sigkill", "SIGKILL a real peer process and respawn it",
                      substrate="sigkill", messages=24, crashes=2,
                      time_limit_us=30_000_000.0),
    )
}


class _FateLedger:
    """Shared fate bookkeeping: seq->id mapping at the sender, delivery
    counting at the receiver, abandon/recovery events off the sender
    host's event stream."""

    def __init__(self) -> None:
        self.seq_to_id: Dict[int, int] = {}
        self.delivery_counts: Dict[int, int] = {}
        self.abandoned_ids: List[int] = []
        self.crash_times: List[float] = []
        self.recovery_times: List[float] = []
        self.integrity_failures: List[int] = []

    def on_sender_event(self, record) -> None:
        kind = record.step if record.category == "am" else None
        if kind == "abandon":
            mid = self.seq_to_id.pop(record.info["seq"], None)
            if mid is not None:
                self.abandoned_ids.append(mid)
        elif kind == "peer_restart":
            # the channel renumbers from zero now: every pre-restart
            # seq is resolved (acked or just abandoned above)
            self.seq_to_id.clear()
            if len(self.recovery_times) < len(self.crash_times):
                start = self.crash_times[len(self.recovery_times)]
                self.recovery_times.append(record.start - start)

    def deliver(self, i: int, data: bytes, expected_size: int) -> None:
        self.delivery_counts[i] = self.delivery_counts.get(i, 0) + 1
        if data != stream_payload(i, len(data)) or len(data) != expected_size:
            self.integrity_failures.append(i)

    def fated(self) -> int:
        """Progress through the stream: ids dispatched or abandoned.  A
        kill abandons up to a window of admitted sends that are never
        dispatched, so dispatches alone may never reach a late target."""
        return len(set(self.delivery_counts) | set(self.abandoned_ids))

    # -- verdicts ----------------------------------------------------------
    def duplicates(self) -> List[int]:
        return sorted(i for i, n in self.delivery_counts.items() if n > 1)

    def violations(self, sent_ids: Sequence[int],
                   expected_restarts: int) -> List[str]:
        out: List[str] = []
        dupes = self.duplicates()
        if dupes:
            out.append(f"exactly-once: ids dispatched more than once: "
                       f"{dupes[:8]} — a send was replayed across an "
                       f"incarnation boundary")
        fates = set(self.delivery_counts) | set(self.abandoned_ids)
        unfated = sorted(set(sent_ids) - fates)
        if unfated:
            out.append(f"fate: admitted ids with neither the delivered nor "
                       f"the abandoned fate: {unfated[:8]}")
        phantom = sorted(fates - set(sent_ids))
        if phantom:
            out.append(f"fate: fates recorded for ids never sent: {phantom[:8]}")
        if len(self.recovery_times) < expected_restarts:
            out.append(f"recovery: only {len(self.recovery_times)} of "
                       f"{expected_restarts} restarts completed the "
                       f"reconnect handshake")
        if self.integrity_failures:
            out.append(f"integrity: corrupted payload reached the handler "
                       f"for ids {sorted(set(self.integrity_failures))[:8]}")
        return out


def _crash_result(scenario: CrashScenario, substrate: str, ledger: _FateLedger,
                  sent_ids: Sequence[int], completed: bool, limit: str,
                  sender, restarts: int, backends: Sequence,
                  completion_us: float, sim_events: int = 0) -> CrashSoakResult:
    """The verdict and accounting of a finished run, on any substrate.
    Drops are read from ``backends`` and the endpoints they hold."""
    violations = ledger.violations(sent_ids, scenario.crashes)
    if not completed:
        violations.insert(0, f"termination: soak incomplete at {limit}")
    if len(sent_ids) < scenario.messages:
        violations.append(f"admission: only {len(sent_ids)} of "
                          f"{scenario.messages} sends were admitted")
    return CrashSoakResult(
        scenario=scenario.name,
        substrate=substrate,
        completed=completed,
        violations=violations,
        sent=len(sent_ids),
        delivered=len(ledger.delivery_counts),
        duplicated=len(ledger.duplicates()),
        abandoned=len(set(ledger.abandoned_ids)),
        restarts=restarts,
        recovery_times_us=list(ledger.recovery_times),
        stale_epoch_drops=total(backends, "stale_epoch_drops"),
        peer_dead_drops=total(backends, "peer_dead_drops"),
        retransmissions=sender.snapshot().get(1, {}).get("retransmissions", 0),
        completion_time_us=completion_us,
        sim_events=sim_events,
    )


def run_crash_scenario(scenario: CrashScenario,
                       progress=None) -> CrashSoakResult:
    """Run one kill/restart soak and account for every message's fate.

    One rig for every network name, simulated or live; raises
    :class:`~repro.networks.SubstrateUnavailable` when a wall-clock
    scenario finds no transport it can run on."""
    if scenario.substrate == "sigkill":
        return _run_sigkill(scenario, progress=progress)
    with networks.build(scenario.substrate) as net:
        (h0, h1), (am0, am1) = build_am_star(
            net, ("n0", "n1"), sink=1, config=net.am_timers(_AM_CONFIG))
        result = _drive(scenario, net, am0, am1, h0.backend, progress)
        net.run(net.sim.now + scenario.time_limit_us, (am0, am1))
        return result((h0.backend, h1.backend), net.simulated_events)


def _drive(scenario: CrashScenario, net, am0, am1, sender_backend,
           progress) -> Callable[..., CrashSoakResult]:
    """One kill/restart soak on ``net``'s clock: the sender's request
    stream and the receiver's kill/restart schedule as two processes on
    ``net.sim`` (a simulator, or a live cluster's wall-clock runner's),
    and the fate ledger that judges them.  Returns the run's
    ``result(backends, sim_events)``."""
    sim = net.sim
    ledger = _FateLedger()
    sender_backend.trace.subscribe(ledger.on_sender_event)
    am1.register_handler(
        1, lambda ctx: ledger.deliver(ctx.args[0], ctx.data, PAYLOAD_BYTES))
    sent_ids: List[int] = []

    def traffic():
        try:
            for i in range(scenario.messages):
                data = stream_payload(i, PAYLOAD_BYTES)
                seq = yield from net.request(am0, 1, 1, (i,), data)
                ledger.seq_to_id[seq] = i
                sent_ids.append(i)
        except UNetError:
            # the sender declared the peer dead; the soak only schedules
            # downtimes under the threshold, so reaching here is a
            # violation the fate accounting will surface (unsent tail)
            return sim.now
        # settle: every admitted send needs a fate and the handshake
        # must be closed before the run may call itself complete
        while not (handshake_settled(am0, am1)
                   and len(ledger.crash_times) >= scenario.crashes
                   and not am1.crashed):
            yield 200.0
        return sim.now

    def chaos():
        for kill, target in enumerate(scenario.crash_targets()):
            while ledger.fated() < target:
                yield 200.0
            # space the kills: the previous recovery must be complete
            # (the sender saw the new incarnation's HELLO) before the
            # next one arms, or a fast stream that outruns its first
            # trigger would kill the fresh incarnation in the same
            # timestep as its restart — before the HELLO loop ever ran
            while len(ledger.recovery_times) < kill:
                yield 200.0
            ledger.crash_times.append(sim.now)
            am1.crash()
            if progress is not None:
                progress(f"{scenario.name}: kill #{len(ledger.crash_times)} "
                         f"at t={sim.now:.0f}us ({target} fated)")
            yield scenario.downtime_us
            am1.restart()

    process = sim.process(traffic(), name="crashsoak.traffic")
    sim.process(chaos(), name="crashsoak.chaos")

    def result(backends: Sequence, sim_events: int) -> CrashSoakResult:
        completed = bool(process.triggered) and process.ok
        return _crash_result(
            scenario, scenario.substrate, ledger, sent_ids, completed,
            f"t={scenario.time_limit_us:.0f}us", am0, am1.restarts, backends,
            process.value if completed else scenario.time_limit_us, sim_events)

    return result


# --------------------------------------------------------- real peer process
def _run_sigkill(scenario: CrashScenario, progress=None) -> CrashSoakResult:
    """SIGKILL a real child process mid-stream and respawn it.

    The parent counts fates from its side of the wire: a delivered id
    is one whose echo reply came back intact; an abandoned id is one
    whose rpc the recovery machinery failed (the reply — and possibly
    the request — died with an incarnation).  Replays are structurally
    impossible for the parent to *count* here (the child's memory dies
    with it), so the zero-duplicates contract is enforced on the fully
    observable substrates; this scenario proves the handshake and the
    fate accounting survive a real ``kill -9``.
    """
    from ..live.am import LiveAm
    from ..live.backend import LiveBackend
    from ..live.clock import WallClock
    from ..live.peer import PeerProcess, peer_am_config
    from ..live.transport import UdpLoopbackTransport, transport_available

    if not transport_available("udp"):  # the child speaks UDP
        raise SubstrateUnavailable("the sigkill peer needs the udp live transport")
    clock = WallClock()
    backend = LiveBackend(UdpLoopbackTransport(name="crashsoak-parent"), clock,
                          node_id=0, node_name="parent")
    user = backend.create_user_endpoint(config=ENDPOINT_CONFIG, rx_buffers=48)
    config = peer_am_config(retransmit_timeout_us=15_000.0,
                            dead_after_timeouts=3, hello_retry_us=10_000.0)
    ledger = _FateLedger()
    sent_ids: List[int] = []
    targets = scenario.crash_targets()
    deadline = clock.now_us() + scenario.time_limit_us
    completed = True

    with PeerProcess(backend.transport.address, node=1,
                     rto_us=config.retransmit_timeout_us,
                     dead_after=config.dead_after_timeouts,
                     hello_retry_us=config.hello_retry_us) as peer:
        peer.spawn()
        peer.wire_parent(user)
        am = LiveAm(0, user, config)
        am.connect_peer(1, 0)
        backend.trace.subscribe(ledger.on_sender_event)

        def pump() -> None:
            backend.service()
            am.service()

        def wait_alive() -> bool:
            while clock.now_us() < deadline:
                pump()
                if am.snapshot()[1]["alive"] and not am.snapshot()[1]["reconnecting"]:
                    return True
            return False

        crash_idx = 0
        for i in range(scenario.messages):
            if clock.now_us() >= deadline:
                completed = False
                break
            if crash_idx < scenario.crashes and i == targets[crash_idx]:
                crash_idx += 1
                ledger.crash_times.append(clock.now_us())
                peer.kill()
                if progress is not None:
                    progress(f"{scenario.name}: SIGKILL #{crash_idx} "
                             f"(pid reaped) before id {i}")
            data = stream_payload(i, PAYLOAD_BYTES)
            sent_ids.append(i)
            try:
                args, echoed = am.rpc(1, 1, args=(i,), data=data, pump=pump,
                                      limit_us=max(0.0, deadline - clock.now_us()))
                ledger.deliver(args[0], echoed, PAYLOAD_BYTES)
            except UNetError:
                ledger.abandoned_ids.append(i)
                if peer.proc is not None and peer.proc.poll() is not None:
                    # the child really is dead: bring up the next
                    # incarnation and wait for its HELLO to land
                    peer.respawn()
                    peer.retarget(user)
                    if not wait_alive():
                        completed = False
                        break
        if completed and len(ledger.recovery_times) < len(ledger.crash_times):
            # the last kill's handshake may still be settling
            wait_alive()
        completion = clock.now_us() if completed else scenario.time_limit_us
        am.shutdown()
        result = _crash_result(
            scenario, "sigkill-udp", ledger, sent_ids, completed,
            "the wall-clock limit", am, peer.kills, (backend,), completion)
    backend.close()
    return result


# ---------------------------------------------------------------- reporting
def render_crash_table(results: Sequence[CrashSoakResult]) -> str:
    # the name columns are as wide as their widest entry: a row's columns
    # start where the header's do
    name = max([12] + [len(r.scenario) for r in results])
    substrate = max([10] + [len(r.substrate) for r in results])
    header = (f"{'scenario':<{name}} {'substrate':<{substrate}} {'sent':>5} {'deliv':>6} "
              f"{'dup':>4} {'aband':>6} {'kills':>6} {'recovery(ms)':>14} "
              f"{'stale':>6} {'ok':>4}")
    lines = [header, "-" * len(header)]
    for r in results:
        if r.recovery_times_us:
            rec = (f"{min(r.recovery_times_us) / 1000.0:.1f}-"
                   f"{max(r.recovery_times_us) / 1000.0:.1f}")
        else:
            rec = "-"
        lines.append(
            f"{r.scenario:<{name}} {r.substrate:<{substrate}} {r.sent:>5} {r.delivered:>6} "
            f"{r.duplicated:>4} {r.abandoned:>6} {r.restarts:>6} {rec:>14} "
            f"{r.stale_epoch_drops:>6} {'yes' if r.ok else 'NO':>4}")
    for r in results:
        if r.recovery_times_us:
            lines.append(
                f"  {r.scenario}[{r.substrate}]: recovery mean "
                f"{r.mean_recovery_us / 1000.0:.1f}ms over "
                f"{len(r.recovery_times_us)} restarts")
    return "\n".join(lines)


def _recovery_snapshot(results: Sequence[CrashSoakResult]) -> dict:
    """Suite-wide recovery-time snapshot for trend tracking across
    commits: every restart's kill -> first-post-restart-delivery time,
    pooled over all runs."""
    samples = sorted(t for r in results for t in r.recovery_times_us)
    return {
        "restarts": len(samples),
        "min_us": samples[0] if samples else 0.0,
        "mean_us": (sum(samples) / len(samples)) if samples else 0.0,
        "max_us": samples[-1] if samples else 0.0,
    }


def crash_payload(results: Sequence[CrashSoakResult]) -> dict:
    """The CI artifact: every run's message-fate accounting."""
    return {
        "format": CRASH_ARTIFACT.format,
        "ok": all(r.ok for r in results),
        "recovery": _recovery_snapshot(results),
        "results": [r.to_dict() for r in results],
    }


#: CI telemetry, uploaded on success and failure; the live and sigkill
#: runs are wall-clock, so it is archived, never committed or compared
CRASH_ARTIFACT = Artifact(
    format="repro-crash-soak/1",
    schema={
        "ok": bool,
        "recovery": {"restarts": int, "min_us": float, "mean_us": float,
                     "max_us": float},
        "results": [{
            "scenario": str, "substrate": str, "completed": bool,
            "violations": [str],
            "fates": {"sent": int, "delivered": int, "duplicated": int,
                      "abandoned": int},
            "restarts": int, "recovery_times_us": [float],
            "mean_recovery_us": (float, None),
            "stale_epoch_drops": int, "peer_dead_drops": int,
            "retransmissions": int, "completion_time_us": float, "ok": bool,
        }],
    },
    non_empty=("results",),
)

SUITE = Suite(
    scenarios=CRASH_SCENARIOS,
    run=lambda scenario, mode, seed, progress: run_crash_scenario(scenario, progress),
    render=render_crash_table,
    overrides=frozenset({"messages"}),
    artifact=CRASH_ARTIFACT,
    payload=lambda results, seed: crash_payload(results),
)
