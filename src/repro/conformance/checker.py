"""The differential checker: one case, three executions, one verdict.

``run_case`` drives an identical workload and fault schedule through
the reference model and each named substrate — by default the ATM and
FE ones; any ``networks.LIVE`` name adds U-Net/OS on real sockets —
then diffs the AM-level observable traces.  Every substrate runs
through one rig, :func:`run_substrate`, on whatever
``networks.build(name)`` returns: the same :class:`CaseRig` and traffic
process on a simulator or on a live cluster's wall-clock runner.  The
diff covers:

* **deliveries** — dispatch order and RPC completions compared exactly
  (go-back-N semantics are timing-independent);
* **drops** — observed drop classes must be a subset of what the
  reference semantics allow for this case (a roomy receiver must show
  zero; quarantine/unknown-tag never appear in a clean run);
* **retransmissions** — compared within a tolerance band (timing
  differs across substrates; the *need* to retransmit does not);
* **fired schedule** — every occurrence-0 fault must hit the same
  packet on every execution, which is the checker checking its own
  premise that schedules are substrate-invariant;
* **online invariants** — window gate, credit gate, and dispatch
  continuity, caught by the probe at the exact violating event.

The ``fabric`` preset has no reference implementation; it has an
arithmetic oracle instead.  :func:`run_fabric_case` drives a seeded
node-crash soak of NIC collectives (:mod:`~repro.faults.fabricsoak`)
whose every allreduce value must be the full or the survivor sum.

``inject_bug`` installs any :data:`BUGS` row — a deliberately broken
seam of the AM protocol core or of the NIC collective engine (e.g. the
off-by-one credit gate, the stale-subtree heal) — so the harness can
prove it detects, and the shrinker can minimize, a real semantic
regression.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Sequence, Union

from .. import networks
from ..am.core import AmCore, handshake_settled
from ..collectives.engine import REDUCE_UP, NicCollectiveEngine
from ..core import EndpointConfig
from ..core.errors import UNetError
from ..faults.crash import EndpointLifecycle, LifecycleStage
from ..faults.inject import attach_pipeline
from ..faults.scripted import ScriptedStage
from ..faults.stream import stream_payload
from ..networks import SubstrateUnavailable
from ..telemetry import total
from .model import run_reference
from .observe import ObservationProbe, ObservedTrace
from .schedule import ConformanceCase

if TYPE_CHECKING:
    from ..faults.fabricsoak import FabricScenario, FabricSoakResult

__all__ = ["Divergence", "CaseReport", "CaseRig", "FabricReport", "run_substrate",
           "run_case", "run_fabric_case", "diff_case", "render_report", "BUGS",
           "inject_bug", "SUBSTRATES", "SubstrateUnavailable", "check_substrate"]

#: the simulated (always-runnable) substrates and the default set; the
#: wall-clock ones, ``networks.LIVE``, join a run by name
SUBSTRATES = ("atm", "ethernet")

#: drain after the workload completes, so tail retransmissions and
#: acks settle before counters are read
_DRAIN_US = 1_000_000.0

#: retransmission timeouts in a row without a dispatch after which an
#: unfinished run is wedged and stops short of its time limit.  The
#: longest dispatch-free stretch of any completing case in the CI sweeps
#: (every preset on atm and ethernet, seeds 0-9) is 2.8 RTOs, so 64 is
#: a margin of 23x, and above the 15 RTOs of one backoff to ``rto_max_us``
_WEDGED_RTOS = 64


@dataclass(frozen=True)
class Divergence:
    """One observable disagreement between an execution and the spec."""

    kind: str
    substrate: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.substrate}] {self.kind}: {self.detail}"


@dataclass
class CaseReport:
    """Everything one differential run produced."""

    case: ConformanceCase
    ref: ObservedTrace
    traces: Dict[str, ObservedTrace]
    divergences: List[Divergence] = field(default_factory=list)
    bug: Optional[str] = None

    @property
    def substrates(self) -> tuple:
        """The substrate names this report was produced against."""
        return tuple(self.traces)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def first_divergence(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None


# --------------------------------------------------------------- bug library
# Every patch replaces one spec seam of a class: an AM bug patches the
# protocol core, so a single entry breaks the simulated and the live
# driver alike; a fabric bug patches the NIC collective engine.
def _buggy_credit_blocked(self, peer) -> bool:
    """The classic off-by-one: sends while remote credit is exactly 0."""
    return (self.config.credit_flow and peer.remote_credit is not None
            and peer.remote_credit < 0)  # BUG: spec says <= 0


def _buggy_acked_seqs(self, peer, ack: int):
    """Cumulative-ack fencepost: also acks the packet the receiver is
    still *waiting for*, so a dropped packet is never retransmitted."""
    from ..am.protocol import seq_add, seq_lt

    return [seq for seq in peer.unacked if seq_lt(seq, seq_add(ack, 1))]  # BUG: < ack


def _buggy_epoch_fence(self, claimed, current) -> bool:
    """Epoch fence off by one: a packet exactly one incarnation stale is
    accepted, so the dead incarnation's last retransmissions reach the
    fresh one's sequence space."""
    from ..am.protocol import EPOCH_MOD
    from ..am.spec import epoch_is_stale

    if claimed is not None and (current - claimed) % EPOCH_MOD == 1:
        return False  # BUG: one-stale traffic admitted
    return epoch_is_stale(claimed, current)


def _buggy_reconnect_plan(self, peer, horizon, restarted):
    """At-most-once violated: nothing is completed *or* abandoned at
    reconnect, so every outstanding send stays unacked and is replayed
    into the new incarnation's numbering."""
    return [], []  # BUG: spec abandons everything when the peer restarted


def _buggy_sack_plan(self, outstanding, ack, bits):
    """SACK bitmap interpreted off by one: bit *i* read as ``ack + i``
    instead of ``ack + 1 + i``, so the sender SACKs the very packet the
    receiver is missing — and the missing packet, being "SACKed", is
    skipped by both selective retransmit and the RTO head pick while
    some already-delivered packet is retransmitted forever."""
    from ..am.protocol import SACK_BITMAP_BITS, SEQ_MOD, seq_add, seq_lt

    claimed = {seq_add(ack, i)  # BUG: spec says ack + 1 + i
               for i in range(SACK_BITMAP_BITS) if (bits >> i) & 1}
    if not claimed:
        return [], []
    highest = max(claimed, key=lambda s: (s - ack) % SEQ_MOD)
    sacked = [s for s in outstanding if s in claimed]
    holes = [s for s in outstanding
             if s not in claimed and seq_lt(s, highest)]
    return sacked, holes


def _buggy_ecn_echo(self, peer):
    """Congestion echoes silently dropped: the receiver notes CE marks
    but never reflects them, leaving the sender blind to congestion."""
    return False  # BUG: spec drains one pending echo per outbound packet


_install_epoch = NicCollectiveEngine.install_epoch


def _buggy_install_epoch(self, epoch, members) -> None:
    """The classic tree-healing mistake: when the epoch installs the
    re-ranked tree, pending reduce states keep the subtree sums
    collected under the *old* tree instead of forgetting everything but
    their own contribution.  A node the heal moved under a new parent
    then contributes twice — once inside a stale subtree sum, once over
    the new edge — and the root's total silently double-counts it."""
    tree = self._by_kind[REDUCE_UP]
    stale = {gen: dict(state.contrib) for gen, state in tree.states.items()}
    _install_epoch(self, epoch, members)
    for gen, contrib in stale.items():
        state = tree.states.get(gen)
        if state is None:
            continue
        state.contrib.update(contrib)  # BUG: spec keeps only its own
        state.sent_up = False
        self._try(tree, gen)


#: named, intentionally broken protocol variants the harness must catch:
#: the class a row patches, its seams, and the config presets where its
#: machinery is engaged (a sweep with the bug runs exactly those)
BUGS: Dict[str, dict] = {
    "credit-gate": {
        "description": "send admitted while remote credit is exactly 0 "
                       "(gate tests < 0 instead of <= 0)",
        "cls": AmCore,
        "patches": {"_credit_blocked": _buggy_credit_blocked},
        "configs": ("credit",),
    },
    "ack-horizon": {
        "description": "cumulative ack off by one: the packet the receiver "
                       "is waiting for is treated as acknowledged, so a "
                       "dropped packet is never retransmitted",
        "cls": AmCore,
        "patches": {"_acked_seqs": _buggy_acked_seqs},
        "configs": ("fixed", "adaptive", "credit"),
    },
    "epoch-fence": {
        "description": "epoch fence accepts traffic exactly one "
                       "incarnation stale, so a restarted receiver "
                       "processes the dead incarnation's retransmissions",
        "cls": AmCore,
        "patches": {"_epoch_stale": _buggy_epoch_fence},
        "configs": ("crash",),
    },
    "replay-horizon": {
        "description": "reconnect plan neither completes nor abandons "
                       "outstanding sends, replaying them into the new "
                       "incarnation instead of honoring at-most-once",
        "cls": AmCore,
        "patches": {"_reconnect_plan": _buggy_reconnect_plan},
        "configs": ("crash",),
    },
    "sack-bitmap-shift": {
        "description": "SACK bitmap read off by one (bit i taken as ack+i "
                       "instead of ack+1+i): the sender marks the "
                       "receiver's missing packet as SACKed and starves "
                       "it of retransmission",
        "cls": AmCore,
        "patches": {"_sack_plan": _buggy_sack_plan},
        "configs": ("sack",),
    },
    "ecn-echo-drop": {
        "description": "congestion echoes are never sent: the receiver "
                       "notes CE marks but the sender never hears about "
                       "them and never backs off",
        "cls": AmCore,
        "patches": {"_ecn_echo": _buggy_ecn_echo},
        "configs": ("ecn",),
    },
    "heal-reroot": {
        "description": "epoch install keeps reduce contributions collected "
                       "under the pre-heal tree; re-parented nodes are "
                       "double-counted",
        "cls": NicCollectiveEngine,
        "patches": {"install_epoch": _buggy_install_epoch},
        "configs": ("fabric",),
    },
}


@contextmanager
def inject_bug(name: Optional[str]):
    """Temporarily install a named bug into the class its row patches,
    and so into every driver built on it (simulated and live)."""
    if name is None:
        yield
        return
    if name not in BUGS:
        raise ValueError(f"unknown bug {name!r}; choose from {sorted(BUGS)}")
    cls, patches = BUGS[name]["cls"], BUGS[name]["patches"]
    saved = {attr: getattr(cls, attr) for attr in patches}
    try:
        for attr, fn in patches.items():
            setattr(cls, attr, fn)
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cls, attr, fn)


# ------------------------------------------------------------------- running
class CaseRig:
    """One case execution, whatever the clock.

    Builds the case's two hosts on ``net`` (a simulated network or a
    live cluster: :func:`repro.networks.build`), with the network's AM
    driver on them; attaches the observation probe and the
    content-addressed fault pipelines (at each backend's delivery hook,
    the same on either clock) and registers the payload-checking
    handlers; drives the case's traffic as one process (:meth:`drive`);
    and reduces what was observed to the :class:`ObservedTrace`,
    restoring the hooks.
    """

    def __init__(self, case: ConformanceCase, name: str, net) -> None:
        from ..hw import PENTIUM_120

        self.case = case
        host0, host1 = net.add_host("n0", PENTIUM_120), net.add_host("n1", PENTIUM_120)
        backend0, backend1 = host0.backend, host1.backend
        ep0 = host0.create_endpoint(
            config=EndpointConfig(num_buffers=64, buffer_size=2048,
                                  send_queue_depth=64, recv_queue_depth=64),
            rx_buffers=32)
        ep1 = host1.create_endpoint(
            config=EndpointConfig(num_buffers=case.rx_buffers + 24, buffer_size=2048,
                                  send_queue_depth=64,
                                  recv_queue_depth=case.recv_queue_depth),
            rx_buffers=case.rx_buffers)
        ch0, ch1 = net.connect(ep0, ep1)
        self.am0 = am0 = net.am_class(0, ep0, config=case.am_config(receiver=False))
        self.am1 = am1 = net.am_class(1, ep1, config=case.am_config(receiver=True))
        am0.connect_peer(1, ch0)
        am1.connect_peer(0, ch1)
        self.probe = ObservationProbe(name, requester_node=0,
                                      config_window=am0.config.window)
        self.probe.attach(backend0)
        self.probe.attach(backend1)
        # the scripted stage at node 1 sees the request path, the one at
        # node 0 the reply path — keyed by packet identity, not arrival
        # index.  Lifecycle triggers ride after the scripted stage: a
        # scripted drop never reaches the victim, so it must not fire a
        # crash either
        self.fwd_stage = ScriptedStage(case.fwd_faults(), backend1.wire)
        self.rev_stage = ScriptedStage(case.rev_faults(), backend0.wire)
        self.fwd_events = case.fwd_lifecycle()
        self.fwd_life = None
        fwd = [self.fwd_stage]
        if self.fwd_events:
            lifecycle = EndpointLifecycle(crash=am1.crash, restart=am1.restart)
            self.fwd_life = LifecycleStage(self.fwd_events, backend1.wire,
                                           lifecycle.fire)
            fwd.append(self.fwd_life)
        self.pipelines = (
            attach_pipeline(backend1, fwd, prefix="conformance.fwd"),
            attach_pipeline(backend0, [self.rev_stage], prefix="conformance.rev"))
        self.integrity_failures: List[int] = []
        self.rpc_errors: List[str] = []
        am1.register_handler(1, self.check_payload)
        am1.register_handler(2, self._echo_rpc)

    def check_payload(self, ctx) -> None:
        i = ctx.args[0]
        if (ctx.data != stream_payload(i, len(ctx.data))
                or len(ctx.data) != self.case.messages[i].size):
            self.integrity_failures.append(i)

    def _echo_rpc(self, ctx):
        self.check_payload(ctx)
        return ctx.reply(args=(ctx.args[0] * 2 + 1,))

    def check_reply(self, i: int, args) -> None:
        if args[0] != i * 2 + 1:
            self.rpc_errors.append(f"rpc {i} returned {args[0]}, wanted {i * 2 + 1}")

    def settled(self) -> bool:
        """Crash cases end at *fate resolution*, not last send: every
        lifecycle event fired, the reconnect handshake closed, and no
        send is still awaiting an ack or the abandon verdict."""
        if self.fwd_life is not None and len(self.fwd_life.fired) < len(self.fwd_events):
            return False
        return handshake_settled(self.am0, self.am1)

    def drive(self, net) -> Generator:
        """Process: the case's traffic from node 0, on ``net``'s clock.
        Returns the completion time, or None when the sender declared
        the peer dead and refused the remaining sends — an outcome the
        diff reports, not a harness failure."""
        try:
            for i, message in enumerate(self.case.messages):
                data = stream_payload(i, message.size)
                if message.rpc:
                    args, _d = yield from net.rpc(self.am0, 1, 2, (i,), data)
                    self.check_reply(i, args)
                else:
                    yield from net.request(self.am0, 1, 1, (i,), data)
        except UNetError:
            return None
        while self.case.lifecycle and not self.settled():
            yield 200.0
        return net.sim.now

    @staticmethod
    def completed(process) -> bool:
        return bool(process.triggered) and process.ok and process.value is not None

    def finish(self, process, limit_us: float) -> ObservedTrace:
        for pipeline in self.pipelines:
            pipeline.restore()
        completed = self.completed(process)
        probe = self.probe
        for line in self.rpc_errors:
            probe.violations.append(f"rpc: {line}")
        if self.integrity_failures:
            probe.violations.append(
                f"integrity: corrupted payload reached the handler for ids "
                f"{sorted(set(self.integrity_failures))[:8]}")
        trace = probe.finish(completed, process.value if completed else limit_us,
                             fired=self.fwd_stage.fired + self.rev_stage.fired,
                             snapshots={"am0": self.am0.snapshot(),
                                        "am1": self.am1.snapshot()},
                             lifecycle_fired=(self.fwd_life.fired
                                              if self.fwd_life is not None else ()))
        ams = (self.am0, self.am1)
        trace.rexmit = total(ams, "retransmissions")
        trace.timeouts = total(ams, "timeouts")
        trace.dup_rx = total(ams, "duplicates")
        trace.credit_stalls = total(ams, "credit_stalls")
        trace.ecn_marks = total(ams, "ecn_marks")
        trace.ecn_echoes = total(ams, "ecn_echoes")
        trace.ecn_backoffs = total(ams, "ecn_backoffs")
        return trace


def run_substrate(case: ConformanceCase, substrate: str,
                  bug: Optional[str] = None) -> ObservedTrace:
    """Run ``case`` on one substrate and collect its observable trace.

    The same rig on either clock: the traffic process runs on the
    network's simulator or on the live cluster's wall-clock runner, one
    retransmission timeout at a time, until it ends, the case's time
    limit passes, or it is wedged (no dispatch for :data:`_WEDGED_RTOS`
    slices).  An ended run goes on to the time limit and a completed one
    settles before the trace is read
    (:meth:`~repro.core.base.SimulatedNetwork.settle`; a live cluster
    lets tail acks land before its timers stop)."""
    with inject_bug(bug), networks.build(substrate) as net:
        rig = CaseRig(case, substrate, net)
        sim, ams = net.sim, (rig.am0, rig.am1)
        deadline = sim.now + case.time_limit_us
        process = sim.process(rig.drive(net), name="conformance.traffic")
        rto, idle, dispatched = rig.am0.config.retransmit_timeout_us, 0, 0
        while not process.triggered and sim.now < deadline and idle < _WEDGED_RTOS:
            net.run(min(deadline, sim.now + rto), ams)
            idle = idle + 1 if len(rig.probe.dispatched) == dispatched else 0
            dispatched = len(rig.probe.dispatched)
        if process.triggered:
            net.run(deadline, ams)
        if rig.completed(process):
            net.settle(ams, min(deadline, sim.now + _DRAIN_US))
        return rig.finish(process, case.time_limit_us)


# ------------------------------------------------------------------- diffing
def diff_case(case: ConformanceCase, ref: ObservedTrace,
              traces: Dict[str, ObservedTrace],
              relaxed: Sequence[str] = ()) -> List[Divergence]:
    """Every observable disagreement between executions and the spec.

    Substrates named in ``relaxed`` run on a wall clock: their
    timing-derived observables (the retransmission band) are not
    compared, because when the OS scheduler ran the doorbell loop is
    not part of the spec.  Everything semantic — termination, dispatch
    order, reply sets, drop classes, occurrence-0 fault hits, and the
    online invariants — is still compared exactly.

    Crash cases diff on *invariants*, not the exact dispatch prefix:
    which in-flight sends were already dispatched when the victim died
    is honest timing, different on every substrate.  What is
    substrate-invariant: each id resolves to a fate, nothing dispatches
    twice or out of order, the lifecycle schedule lands on the same
    packets, and the restart-triggering retransmission is always fenced.
    """
    relaxed = set(relaxed)
    crash = bool(case.lifecycle)
    ecn = case.am_config().congestion == "ecn"
    out: List[Divergence] = []
    for name, obs in traces.items():
        for violation in obs.violations:
            kind, _, detail = violation.partition(": ")
            out.append(Divergence(kind, name, detail or violation))
        if obs.completed != ref.completed:
            out.append(Divergence(
                "termination", name,
                f"substrate {'completed' if obs.completed else 'did not complete'} "
                f"but the reference model {'did' if ref.completed else 'did not'} "
                f"({len(obs.dispatched)}/{len(case.messages)} dispatched "
                f"by t={obs.completion_time_us:.0f}us)"))
            continue  # downstream diffs are noise on a hung run
        if crash:
            if not obs.completed:
                continue
            # a message may legally be *both* dispatched and abandoned (it
            # reached the victim's handler an instant before the crash,
            # but its ack died with the incarnation — at-most-once says
            # the sender must assume the worst); it may never be neither
            ids = set(range(len(case.messages)))
            fates = set(obs.dispatched) | set(obs.abandoned)
            if fates != ids:
                out.append(Divergence(
                    "fate", name,
                    f"every send must resolve to dispatched or abandoned: "
                    f"unaccounted ids {sorted(ids - fates)}, phantom ids "
                    f"{sorted(fates - ids)} "
                    f"(dispatched={sorted(set(obs.dispatched))}, "
                    f"abandoned={sorted(set(obs.abandoned))})"))
            if obs.dispatched != sorted(set(obs.dispatched)):
                out.append(Divergence(
                    "dispatch-order", name,
                    f"dispatches must be strictly increasing message ids across "
                    f"the incarnation boundary, got {obs.dispatched}"))
            if obs.lifecycle_keys() != ref.lifecycle_keys():
                out.append(Divergence(
                    "lifecycle-schedule", name,
                    f"lifecycle faults hit {obs.lifecycle_keys()} on the substrate "
                    f"but {ref.lifecycle_keys()} in the model — the kill schedule "
                    f"was not substrate-invariant"))
        else:
            if obs.dispatched != ref.dispatched:
                index = next((i for i, (a, b) in enumerate(zip(obs.dispatched, ref.dispatched))
                              if a != b), min(len(obs.dispatched), len(ref.dispatched)))
                out.append(Divergence(
                    "dispatch-order", name,
                    f"first mismatch at position {index}: substrate "
                    f"{obs.dispatched[index:index + 6]} vs reference "
                    f"{ref.dispatched[index:index + 6]}"))
            if sorted(obs.replies) != sorted(ref.replies):
                out.append(Divergence(
                    "reply-set", name,
                    f"substrate completed rpcs {sorted(obs.replies)} vs reference "
                    f"{sorted(ref.replies)}"))
        if obs.fired_keys(0) != ref.fired_keys(0):
            out.append(Divergence(
                "fired-schedule", name,
                f"occurrence-0 faults hit {obs.fired_keys(0)} on the substrate "
                f"but {ref.fired_keys(0)} in the model — the schedule was not "
                f"substrate-invariant"))
        allowed = set(ref.drop_classes)
        if crash:
            allowed |= {"stale_epoch_drops", "peer_dead_drops"}
        if case.overrun_possible():
            allowed |= {"recv_queue_drops", "no_buffer_drops"}
        observed = {k for k, v in obs.drop_classes.items() if v}
        illegal = observed - allowed
        if illegal:
            out.append(Divergence(
                "drop-class", name,
                f"drop classes {sorted(illegal)} observed "
                f"({ {k: obs.drop_classes[k] for k in sorted(illegal)} }) but the "
                f"reference semantics allow only {sorted(allowed) or 'none'}"))
        if crash:
            ref_stale = ref.drop_classes.get("stale_epoch_drops", 0)
            obs_stale = obs.drop_classes.get("stale_epoch_drops", 0)
            if obs_stale < ref_stale:
                # the retransmission that triggers the restart is stamped
                # for the dead incarnation and must ALWAYS be fenced;
                # fewer stale drops than the model means the fence let
                # one through
                out.append(Divergence(
                    "stale-fence", name,
                    f"only {obs_stale} stale-epoch fence drops observed; the "
                    f"reference run fences at least {ref_stale} (the restart "
                    f"trigger itself is always one of them)"))
            continue
        if ecn:
            # marks are content-addressed (occurrence 0 only) and never
            # shed by a roomy receiver, so the simulated substrates must
            # note exactly the marks the model predicts; a wall-clock
            # substrate may legitimately differ in occurrence counting,
            # but congestion can never appear from (or vanish into) thin
            # air — and every noted mark must produce an echo and at
            # least one backoff before the run settles
            if name not in relaxed and obs.ecn_marks != ref.ecn_marks:
                out.append(Divergence(
                    "ecn-marks", name,
                    f"{obs.ecn_marks} congestion marks noted but the "
                    f"reference model predicts {ref.ecn_marks}"))
            if name in relaxed and bool(obs.ecn_marks) != bool(ref.ecn_marks):
                out.append(Divergence(
                    "ecn-marks", name,
                    f"{obs.ecn_marks} congestion marks noted but the "
                    f"reference model predicts {ref.ecn_marks} — zero and "
                    f"nonzero must agree even under relaxed timing"))
            if ref.ecn_marks and not obs.ecn_echoes:
                out.append(Divergence(
                    "ecn-echo", name,
                    f"the reference model predicts {ref.ecn_marks} marks "
                    f"and at least one echo, but no echo was ever sent"))
            if ref.ecn_marks and not obs.ecn_backoffs and not case.rev_faults():
                out.append(Divergence(
                    "ecn-backoff", name,
                    f"the reference model predicts at least one sender "
                    f"backoff for {ref.ecn_marks} marks (no reverse-path "
                    f"fault can lose the echo), but none happened"))
        if obs.completed and ref.completed and name not in relaxed:
            floor = sum(1 for f in obs.fired if f.action == "drop")
            ceiling = 4 * max(ref.rexmit, floor, 1) + 16
            if not floor <= obs.rexmit <= ceiling:
                out.append(Divergence(
                    "rexmit-band", name,
                    f"{obs.rexmit} retransmissions outside the tolerance band "
                    f"[{floor}, {ceiling}] (reference needed {ref.rexmit}, "
                    f"{floor} scheduled drops fired)"))
    names = [n for n, t in traces.items() if t.completed]
    for i in range(1, len(names)):
        a, b = traces[names[0]], traces[names[i]]
        if not crash and a.dispatched != b.dispatched:
            # crash cases legitimately disagree on the dispatch prefix
            # (how far the victim got before dying is timing); their
            # cross-substrate contract is the per-substrate fate check
            out.append(Divergence(
                "substrate-mismatch", f"{names[0]}/{names[i]}",
                "the two substrates disagree on dispatch order"))
    return out


def check_substrate(name: str) -> None:
    """Refuse a substrate this machine cannot run.

    A :data:`SUBSTRATES` name runs in the simulator.  A ``networks.LIVE``
    name runs on real sockets, and raises :class:`SubstrateUnavailable`
    here when this machine lacks its transport: a replay must fail
    loudly, not re-verify on whatever subset happens to work.
    """
    if name in networks.LIVE:
        networks.LIVE[name].transport_kind()
    elif name not in SUBSTRATES:
        raise ValueError(f"unknown substrate {name!r}; "
                         f"choose from {SUBSTRATES + tuple(networks.LIVE)}")


def run_case(case: ConformanceCase, substrates: Sequence[str] = SUBSTRATES,
             bug: Optional[str] = None) -> CaseReport:
    """The full differential run: reference model + each substrate.

    A live name relaxes timing: its retransmission band is not diffed.
    """
    ref = run_reference(case)
    traces = {name: run_substrate(case, name, bug=bug) for name in substrates}
    relaxed = [name for name in substrates if name in networks.LIVE]
    return CaseReport(case=case, ref=ref, traces=traces,
                      divergences=diff_case(case, ref, traces, relaxed=relaxed),
                      bug=bug)


# ---------------------------------------------------------- the fabric preset
@dataclass
class FabricReport:
    """One healing case: the scenario its seed drew and the soak's
    verdict on it against the arithmetic oracle."""

    seed: int
    scenario: "FabricScenario"
    result: "FabricSoakResult"
    bug: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result.ok


def run_fabric_case(seed: int, bug: Optional[str] = None) -> FabricReport:
    """One seeded node-crash healing case of the ``fabric`` preset.

    Every allreduce value is fully determined by the members that
    legally contributed: a round sums the full membership or the
    post-crash survivors, nothing else.  The soak holds every completed
    round to that oracle, plus agreement, exactly-once and termination.
    Even seeds run on the ATM fat tree, odd ones on the FE one.

    Victims are 1..12 of a 16-node fanout-4 tree: removing any of them
    re-parents a node across an old subtree boundary, where keeping
    stale subtree sums (``heal-reroot``) is observable.  A victim whose
    removal only renumbers its own siblings reproduces the *full* sum,
    which the at-most-once contract legally allows for the in-flight
    round.
    """
    from ..faults.fabricsoak import FabricScenario, run_fabric_scenario

    scenario = FabricScenario(
        name=f"heal-case-{seed}",
        description="conformance healing case",
        fabric=("atm-clos", "fe-clos")[seed % 2], leaves=4, spines=2, hosts_per_leaf=4,
        rounds=3, crash_node=1 + seed % 12, crash_at_us=150.0 + 40.0 * (seed % 7))
    with inject_bug(bug):
        return FabricReport(seed, scenario, run_fabric_scenario(scenario, seed=seed), bug)


# ----------------------------------------------------------------- reporting
def render_report(report: Union[CaseReport, FabricReport], context: bool = True) -> str:
    """Human-readable verdict, with full context on the first divergence."""
    if isinstance(report, FabricReport):
        scenario = report.scenario
        return "\n".join(
            [f"fabric case seed={report.seed} on {scenario.fabric} "
             f"(crash node {scenario.crash_node} at t={scenario.crash_at_us:.0f}us"
             + (f", bug={report.bug}" if report.bug else "")
             + f"): {'ok' if report.ok else 'DIVERGED'}"]
            + [f"    {violation}" for violation in report.result.violations])
    lines = [report.case.describe()]
    if report.bug:
        lines.append(f"  injected bug: {report.bug} — {BUGS[report.bug]['description']}")
    for name, obs in {report.ref.substrate: report.ref, **report.traces}.items():
        lines.append(f"  {name:9s}: completed={obs.completed} "
                     f"dispatched={len(obs.dispatched)} replies={len(obs.replies)} "
                     f"rexmit={obs.rexmit} dup_rx={obs.dup_rx} "
                     f"stalls={obs.credit_stalls} drops={obs.drop_classes or '{}'} "
                     f"t={obs.completion_time_us / 1000.0:.2f}ms")
    if report.ok:
        lines.append("  verdict: no divergences")
        return "\n".join(lines)
    lines.append(f"  verdict: {len(report.divergences)} divergence(s)")
    for d in report.divergences:
        lines.append(f"    !! {d}")
    first = report.first_divergence()
    if context and first is not None and first.substrate in report.traces:
        obs = report.traces[first.substrate]
        if obs.event_tail:
            lines.append(f"  last observable events on {first.substrate}:")
            for kind, fields in list(obs.event_tail)[-12:]:
                t = fields.get("t")
                stamp = f"{t:10.1f}us " if isinstance(t, float) else " " * 12
                brief = {k: v for k, v in fields.items() if k != "t"}
                lines.append(f"    {stamp}{kind} {brief}")
        if obs.substrate_tail:
            lines.append(f"  last substrate service steps on {first.substrate}:")
            for step in obs.substrate_tail[-8:]:
                lines.append(f"    {step}")
    return "\n".join(lines)
