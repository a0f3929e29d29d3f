"""The differential checker: one case, three executions, one verdict.

``run_case`` drives an identical workload and fault schedule through
the ATM substrate, the FE substrate, and the reference model, then
diffs the AM-level observable traces:

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

``inject_bug`` installs a deliberately broken state machine (e.g. the
off-by-one credit gate) so the harness can prove it detects — and the
shrinker can minimize — a real semantic regression.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from .. import networks
from ..am import AmEndpoint
from ..am.core import AmCore, handshake_settled
from ..core import EndpointConfig
from ..core.errors import UNetError
from ..core.substrates import get_substrate, register_substrate
from ..faults.crash import EndpointLifecycle, lifecycle_stage_factory
from ..faults.inject import attach_pipeline
from ..faults.scripted import scripted_stage_factory
from ..faults.stream import stream_payload
from ..sim import Simulator
from .model import RefTrace, run_reference
from .observe import ObservationProbe, ObservedTrace
from .schedule import ConformanceCase

__all__ = ["Divergence", "CaseReport", "CaseRig", "run_substrate", "run_case",
           "diff_case", "render_report", "BUGS", "inject_bug", "SUBSTRATES"]

#: the default (always-runnable) substrate set; wall-clock substrates
#: like "live" join a run by name via the registry
SUBSTRATES = ("atm", "ethernet")

#: wall-clock drain after the workload completes, so tail
#: retransmissions and acks settle before counters are read
_DRAIN_US = 1_000_000.0


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
    ref: RefTrace
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
# Every patch replaces one spec seam of the protocol core, so a single
# entry breaks the simulated and the live driver alike.
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


#: named, intentionally broken protocol variants the harness must catch
BUGS: Dict[str, dict] = {
    "credit-gate": {
        "description": "send admitted while remote credit is exactly 0 "
                       "(gate tests < 0 instead of <= 0)",
        "patches": {"_credit_blocked": _buggy_credit_blocked},
        "configs": ("credit",),
    },
    "ack-horizon": {
        "description": "cumulative ack off by one: the packet the receiver "
                       "is waiting for is treated as acknowledged, so a "
                       "dropped packet is never retransmitted",
        "patches": {"_acked_seqs": _buggy_acked_seqs},
        "configs": ("fixed", "adaptive", "credit"),
    },
    "epoch-fence": {
        "description": "epoch fence accepts traffic exactly one "
                       "incarnation stale, so a restarted receiver "
                       "processes the dead incarnation's retransmissions",
        "patches": {"_epoch_stale": _buggy_epoch_fence},
        "configs": ("crash",),
    },
    "replay-horizon": {
        "description": "reconnect plan neither completes nor abandons "
                       "outstanding sends, replaying them into the new "
                       "incarnation instead of honoring at-most-once",
        "patches": {"_reconnect_plan": _buggy_reconnect_plan},
        "configs": ("crash",),
    },
    "sack-bitmap-shift": {
        "description": "SACK bitmap read off by one (bit i taken as ack+i "
                       "instead of ack+1+i): the sender marks the "
                       "receiver's missing packet as SACKed and starves "
                       "it of retransmission",
        "patches": {"_sack_plan": _buggy_sack_plan},
        "configs": ("sack",),
    },
    "ecn-echo-drop": {
        "description": "congestion echoes are never sent: the receiver "
                       "notes CE marks but the sender never hears about "
                       "them and never backs off",
        "patches": {"_ecn_echo": _buggy_ecn_echo},
        "configs": ("ecn",),
    },
}


@contextmanager
def inject_bug(name: Optional[str]):
    """Temporarily install a named bug into the protocol core, and so
    into every driver built on it (simulated and live)."""
    if name is None:
        yield
        return
    if name not in BUGS:
        raise ValueError(f"unknown bug {name!r}; choose from {sorted(BUGS)}")
    patches = BUGS[name]["patches"]
    saved = {attr: getattr(AmCore, attr) for attr in patches}
    try:
        for attr, fn in patches.items():
            setattr(AmCore, attr, fn)
        yield
    finally:
        for attr, fn in saved.items():
            setattr(AmCore, attr, fn)


# ------------------------------------------------------------------- running
class CaseRig:
    """What one case execution shares on every substrate.

    Given the two AM endpoints and their backends, however the substrate
    built them: attach the observation probe, build the content-addressed
    fault stages (the runner installs them at its substrate's ingress),
    register the payload-checking handler, and — once the runner's
    traffic loop is over — reduce what was observed to the
    :class:`ObservedTrace`.  What stays with each runner is how time
    advances: a generator the simulator schedules, or a pump loop
    against the wall clock.
    """

    def __init__(self, case: ConformanceCase, name: str, am0, am1,
                 backend0, backend1) -> None:
        self.case = case
        self.am0, self.am1 = am0, am1
        self.probe = ObservationProbe(name, requester_node=0,
                                      config_window=am0.config.window)
        for am, backend in ((am0, backend0), (am1, backend1)):
            self.probe.attach_am(am)
            self.probe.attach_endpoint(am.user.endpoint)
            self.probe.attach_demux(backend.demux)
        # the scripted stage at node 1 sees the request path, the one at
        # node 0 the reply path — keyed by packet identity, not arrival
        # index
        self.fwd_stage = scripted_stage_factory(backend1, case.fwd_faults())
        self.rev_stage = scripted_stage_factory(backend0, case.rev_faults())
        self.fwd_events = case.fwd_lifecycle()
        self.fwd_life = None
        if self.fwd_events:
            lifecycle = EndpointLifecycle(crash=am1.crash, restart=am1.restart)
            self.fwd_life = lifecycle_stage_factory(backend1, self.fwd_events,
                                                    lifecycle.fire)
        self.integrity_failures: List[int] = []
        self.rpc_errors: List[str] = []
        am1.register_handler(1, self.check_payload)

    @property
    def fwd_stages(self) -> list:
        """Node 1's ingress stages, in order: lifecycle triggers ride
        after the scripted stage, because a scripted drop never reaches
        the victim and so must not fire a crash either."""
        return [s for s in (self.fwd_stage, self.fwd_life) if s is not None]

    def check_payload(self, ctx) -> None:
        i = ctx.args[0]
        if (ctx.data != stream_payload(i, len(ctx.data))
                or len(ctx.data) != self.case.messages[i].size):
            self.integrity_failures.append(i)

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

    def finish(self, completed: bool, completion: float) -> ObservedTrace:
        probe = self.probe
        for line in self.rpc_errors:
            probe.violations.append(f"rpc: {line}")
        if self.integrity_failures:
            probe.violations.append(
                f"integrity: corrupted payload reached the handler for ids "
                f"{sorted(set(self.integrity_failures))[:8]}")
        snapshots = {"am0": self.am0.snapshot(), "am1": self.am1.snapshot()}
        trace = probe.finish(completed, completion,
                             fired=self.fwd_stage.fired + self.rev_stage.fired,
                             snapshots=snapshots,
                             lifecycle_fired=(self.fwd_life.fired
                                              if self.fwd_life is not None else ()))
        trace.rexmit = sum(p["retransmissions"] for snap in snapshots.values()
                           for p in snap.values())
        trace.timeouts = sum(p["timeouts"] for snap in snapshots.values()
                             for p in snap.values())
        trace.dup_rx = sum(p["duplicates"] for snap in snapshots.values()
                           for p in snap.values())
        trace.credit_stalls = sum(p["credit_stalls"] for snap in snapshots.values()
                                  for p in snap.values())
        trace.ecn_marks = sum(p.get("ecn_marks", 0) for snap in snapshots.values()
                              for p in snap.values())
        trace.ecn_echoes = sum(p.get("ecn_echoes", 0) for snap in snapshots.values()
                               for p in snap.values())
        trace.ecn_backoffs = sum(p.get("ecn_backoffs", 0) for snap in snapshots.values()
                                 for p in snap.values())
        return trace


def run_substrate(case: ConformanceCase, substrate: str,
                  bug: Optional[str] = None) -> ObservedTrace:
    """Run ``case`` on one simulated substrate and collect its observable trace."""
    from ..hw import PENTIUM_120

    with inject_bug(bug):
        sim = Simulator()
        net = networks.get(substrate).build(sim)
        h0 = net.add_host("n0", PENTIUM_120)
        h1 = net.add_host("n1", PENTIUM_120)
        sender_cfg = EndpointConfig(num_buffers=64, buffer_size=2048,
                                    send_queue_depth=64, recv_queue_depth=64)
        receiver_cfg = EndpointConfig(num_buffers=case.rx_buffers + 24, buffer_size=2048,
                                      send_queue_depth=64,
                                      recv_queue_depth=case.recv_queue_depth)
        ep0 = h0.create_endpoint(config=sender_cfg, rx_buffers=32)
        ep1 = h1.create_endpoint(config=receiver_cfg, rx_buffers=case.rx_buffers)
        ch0, ch1 = net.connect(ep0, ep1)
        am0 = AmEndpoint(0, ep0, config=case.am_config(receiver=False))
        am1 = AmEndpoint(1, ep1, config=case.am_config(receiver=True))
        am0.connect_peer(1, ch0)
        am1.connect_peer(0, ch1)

        rig = CaseRig(case, substrate, am0, am1, h0.backend, h1.backend)
        rig.probe.attach_trace(h1.backend.trace)
        pipelines = [
            attach_pipeline(h1.backend, rig.fwd_stages, prefix="conformance.fwd"),
            attach_pipeline(h0.backend, [rig.rev_stage], prefix="conformance.rev"),
        ]

        def rpc_handler(ctx):
            rig.check_payload(ctx)
            yield from ctx.reply(args=(ctx.args[0] * 2 + 1,))

        am1.register_handler(2, rpc_handler)

        aborted: List[str] = []

        def traffic():
            try:
                for i, message in enumerate(case.messages):
                    data = stream_payload(i, message.size)
                    if message.rpc:
                        args, _d = yield from am0.rpc(1, 2, args=(i,), data=data)
                        rig.check_reply(i, args)
                    else:
                        yield from am0.request(1, 1, args=(i,), data=data)
            except UNetError as exc:
                # the sender declared the peer dead: the remaining sends
                # are refused and the run did not complete — an outcome
                # the diff reports, not a harness failure
                aborted.append(str(exc))
                return sim.now
            while case.lifecycle and not rig.settled():
                yield 200.0
            return sim.now

        with net:
            process = sim.process(traffic(), name="conformance.traffic")
            sim.run(until=case.time_limit_us)
            completed = bool(process.triggered) and process.ok and not aborted
            completion = process.value if completed else case.time_limit_us
            if completed:
                am0.shutdown()
                am1.shutdown()
                sim.run(until=min(case.time_limit_us, sim.now + _DRAIN_US))

        trace = rig.finish(completed, completion)
        for pipeline in pipelines:
            pipeline.restore()
        return trace


# ------------------------------------------------------------------- diffing
def _diff_crash(case: ConformanceCase, ref: RefTrace, obs: ObservedTrace,
                name: str) -> List[Divergence]:
    """The crash-recovery delivery contract, checked per substrate.

    A message may legally be *both* dispatched and abandoned (it reached
    the victim's handler an instant before the crash, but its ack died
    with the incarnation — the sender cannot know, and at-most-once says
    it must assume the worst).  What it may never be is neither.
    """
    out: List[Divergence] = []
    ids = set(range(len(case.messages)))
    fates = set(obs.dispatched) | set(obs.abandoned)
    if fates != ids:
        missing = sorted(ids - fates)
        phantom = sorted(fates - ids)
        out.append(Divergence(
            "fate", name,
            f"every send must resolve to dispatched or abandoned: "
            f"unaccounted ids {missing}, phantom ids {phantom} "
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
    if obs.fired_keys(0) != ref.fired_keys(0):
        out.append(Divergence(
            "fired-schedule", name,
            f"occurrence-0 faults hit {obs.fired_keys(0)} on the substrate "
            f"but {ref.fired_keys(0)} in the model"))
    allowed = (set(ref.drop_classes)
               | {"stale_epoch_drops", "peer_dead_drops"})
    if case.overrun_possible():
        allowed |= {"recv_queue_drops", "no_buffer_drops"}
    observed = {k for k, v in obs.drop_classes.items() if v}
    illegal = observed - allowed
    if illegal:
        out.append(Divergence(
            "drop-class", name,
            f"drop classes {sorted(illegal)} observed but the recovery "
            f"semantics allow only {sorted(allowed)}"))
    ref_stale = ref.drop_classes.get("stale_epoch_drops", 0)
    obs_stale = obs.drop_classes.get("stale_epoch_drops", 0)
    if obs_stale < ref_stale:
        # the retransmission that triggers the restart is stamped for
        # the dead incarnation and must ALWAYS be fenced; fewer stale
        # drops than the model means the fence let one through
        out.append(Divergence(
            "stale-fence", name,
            f"only {obs_stale} stale-epoch fence drops observed; the "
            f"reference run fences at least {ref_stale} (the restart "
            f"trigger itself is always one of them)"))
    return out


def diff_case(case: ConformanceCase, ref: RefTrace,
              traces: Dict[str, ObservedTrace],
              relaxed: Sequence[str] = ()) -> List[Divergence]:
    """Every observable disagreement between executions and the spec.

    Substrates named in ``relaxed`` run on a wall clock: their
    timing-derived observables (the retransmission band) are not
    compared, because when the OS scheduler ran the doorbell loop is
    not part of the spec.  Everything semantic — termination, dispatch
    order, reply sets, drop classes, occurrence-0 fault hits, and the
    online invariants — is still compared exactly.
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
            # Crash cases diff on *invariants*, not the exact dispatch
            # prefix: which in-flight sends were already dispatched when
            # the victim died is honest timing, different on every
            # substrate.  What is substrate-invariant: each id resolves
            # to a fate, nothing dispatches twice or out of order, the
            # lifecycle schedule lands on the same packets, and the
            # restart-triggering retransmission is always fenced.
            if obs.completed and ref.completed:
                out.extend(_diff_crash(case, ref, obs, name))
            continue
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


def run_case(case: ConformanceCase, substrates: Sequence[str] = SUBSTRATES,
             bug: Optional[str] = None) -> CaseReport:
    """The full differential run: reference model + each substrate.

    Substrate names resolve through the registry, so ``"live"`` /
    ``"live-unix"`` / ``"live-udp"`` work here once :mod:`repro.live`
    is importable; their ``relaxed_timing`` flag feeds the diff.
    """
    ref = run_reference(case)
    traces: Dict[str, ObservedTrace] = {}
    relaxed = []
    for name in substrates:
        spec = get_substrate(name)
        traces[name] = spec.runner(case, bug=bug)
        if spec.relaxed_timing:
            relaxed.append(name)
    return CaseReport(case=case, ref=ref, traces=traces,
                      divergences=diff_case(case, ref, traces, relaxed=relaxed),
                      bug=bug)


# -------------------------------------------------------------- registration
for _name in SUBSTRATES:
    register_substrate(_name, partial(run_substrate, substrate=_name),
                       description=f"simulated {networks.get(_name).label}")


# ----------------------------------------------------------------- reporting
def render_report(report: CaseReport, context: bool = True) -> str:
    """Human-readable verdict, with full context on the first divergence."""
    lines = [report.case.describe()]
    if report.bug:
        lines.append(f"  injected bug: {report.bug} — {BUGS[report.bug]['description']}")
    ref = report.ref
    lines.append(f"  reference: dispatched={len(ref.dispatched)} replies={len(ref.replies)} "
                 f"rexmit={ref.rexmit} drops={ref.drop_classes or '{}'} "
                 f"fired={len(ref.fired)} ticks={ref.ticks}")
    for name, obs in report.traces.items():
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
