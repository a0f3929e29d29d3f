"""Fabric fault-tolerance soak: spine failover, healing trees, partitions.

The conformance and unit layers prove the failover *mechanisms* in
isolation; this suite drives whole clusters of NIC-resident collectives
through scripted fabric faults (:mod:`~repro.faults.fabric`) and checks
the contract end to end:

* ``spine-kill`` — 64 nodes on an ATM Clos lose a whole spine mid
  allreduce.  Every VC crossing the spine re-routes; every in-flight
  collective completes over the survivors with the *correct* sum and
  zero duplicate deliveries; the epoch never moves (transparent
  failover, no heal needed).
* ``trunk-flap`` — an FE Clos suffers rolling leaf-spine trunk flaps
  while allreduce rounds keep running; the MAC re-learn analogue keeps
  every round completing and exact.
* ``partition-heal`` — a leaf is cut off an ATM Clos.  Every member
  (both sides) raises the typed
  :class:`~repro.collectives.engine.CollectiveAborted` in bounded sim
  time — never a hang — signaling across the cut raises
  :class:`~repro.core.errors.NoPathError`, and after the trunks heal
  :meth:`CollectiveGroup.resume` re-opens the group and rounds complete
  again.
* ``node-crash`` — the SIGKILL analogue: a NIC engine dies instantly
  mid allreduce.  The group heals an epoch-fenced tree over the
  survivors; every survivor agrees on every round's value and each
  value is either the full or the survivor sum (exactly-once per
  member, never a double-counted contribution).

Recovery time is measured per scenario: from the final fault transition
until every expected participant has completed a round past it — the
slowest member, the one blocked until the heal or reroute landed, sets
the number.
Everything is simulated and seeded — no wall clock, no ambient RNG —
so the emitted ``BENCH_fabric.json`` is byte-reproducible; CI
regenerates and diffs it and ``bench --compare`` gates the headline
recovery metrics.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import networks
from ..artifact import Artifact, Headline
from ..sim import Simulator
from ..suite import DEFAULT_SEED, Suite
from ..telemetry import total
from .fabric import FabricFaultInjector, Partition, SpineFailure, TrunkFlap

__all__ = [
    "FABRIC_ARTIFACT",
    "FABRIC_SCENARIOS",
    "FabricScenario",
    "FabricSoakResult",
    "run_fabric_scenario",
    "fabric_payload",
    "render_fabric_table",
]

#: post-resume rounds log under this offset so their expected values
#: never collide with drifted pre-abort generation indices
_POST_ROUND_BASE = 1000
#: simulated time a scenario gets before it counts as not completed
TIME_LIMIT_US = 10_000_000.0


@dataclass
class FabricScenario:
    """One reproducible fabric-fault soak."""

    name: str
    description: str
    #: "atm-clos" | "fe-clos"
    fabric: str
    leaves: int
    spines: int
    hosts_per_leaf: int
    #: allreduce rounds each node drives (ignored by partition flows,
    #: which loop until the abort lands)
    rounds: int = 4
    #: idle gap between a node's rounds
    round_gap_us: float = 200.0
    #: fresh fault stages (empty for pure node-crash runs)
    stages: Callable[[], List] = field(default_factory=lambda: (lambda: []))
    #: crash this engine at crash_at_us (the SIGKILL analogue); None = no crash
    crash_node: Optional[int] = None
    crash_at_us: float = 0.0
    #: partition flow: expect a group-wide abort, then resume after the heal
    expect_abort: bool = False
    #: rounds after resume (partition flow only)
    post_rounds: int = 2
    #: earliest sim time the coordinator may call resume (past the heal)
    resume_at_us: float = 0.0

    @property
    def nodes(self) -> int:
        return self.leaves * self.hosts_per_leaf


@dataclass
class FabricSoakResult:
    """Verdicts, counters, and recovery timing of one soak run."""

    scenario: str
    fabric: str
    nodes: int
    completed: bool
    violations: List[str]
    rounds_completed: int
    #: sim time of the final fault transition (crash or trunk change)
    fault_final_us: float
    #: first all-member round completion after the final transition
    recovery_us: float
    #: mean latency of rounds run entirely after the final transition
    post_recovery_mean_us: float
    reroutes: int
    blackholed: int
    retransmissions: int
    stale_epoch_drops: int
    heals: int
    aborts: int
    epoch: int
    transitions_applied: int = 0
    #: events the simulator processed (exact; the driver times the run)
    sim_events: int = 0

    @property
    def ok(self) -> bool:
        return self.completed and not self.violations

    def to_row(self) -> dict:
        return {
            "completed": self.completed,
            "rounds_completed": self.rounds_completed,
            "recovery_us": round(self.recovery_us, 3),
            "post_recovery_mean_us": round(self.post_recovery_mean_us, 3),
            "reroutes": self.reroutes,
            "blackholed": self.blackholed,
            "retransmissions": self.retransmissions,
            "stale_epoch_drops": self.stale_epoch_drops,
            "heals": self.heals,
            "aborts": self.aborts,
            "epoch": self.epoch,
            "transitions_applied": self.transitions_applied,
            "violations": len(self.violations),
        }


# --------------------------------------------------------------- scenarios
def _spine_kill_stages() -> List:
    return [SpineFailure(spine=0, at_us=40.0)]


def _trunk_flap_stages() -> List:
    # rolling flaps: two different leaf uplinks blink in staggered
    # cycles, so successive rounds see different survivor sets
    return [
        TrunkFlap(a=0, b=4, start_us=30.0, period_us=2000.0,
                  down_us=800.0, cycles=2),
        TrunkFlap(a=1, b=5, start_us=1030.0, period_us=2000.0,
                  down_us=800.0, cycles=2),
    ]


def _partition_stages() -> List:
    return [Partition(leaves=(0,), at_us=300.0, heal_us=30_000.0)]


FABRIC_SCENARIOS: Dict[str, FabricScenario] = {
    s.name: s
    for s in (
        FabricScenario(
            "spine-kill",
            "64-node ATM Clos loses spine 0 mid allreduce; VCs re-route, "
            "every round completes exactly",
            fabric="atm-clos", leaves=8, spines=4, hosts_per_leaf=8,
            rounds=4, stages=_spine_kill_stages),
        FabricScenario(
            "trunk-flap",
            "32-node FE Clos under rolling leaf-spine trunk flaps; MAC "
            "re-learn keeps rounds exact",
            fabric="fe-clos", leaves=4, spines=3, hosts_per_leaf=8,
            rounds=6, round_gap_us=1000.0, stages=_trunk_flap_stages),
        FabricScenario(
            "partition-heal",
            "16-node ATM Clos partitioned at a leaf: typed abort on every "
            "member, no path across the cut, resume after heal",
            fabric="atm-clos", leaves=4, spines=2, hosts_per_leaf=4,
            stages=_partition_stages, expect_abort=True,
            post_rounds=2, resume_at_us=35_000.0),
        FabricScenario(
            "node-crash",
            "16-node ATM Clos, one NIC engine SIGKILLed mid allreduce; "
            "the tree heals, survivors agree, zero duplicates",
            fabric="atm-clos", leaves=4, spines=2, hosts_per_leaf=4,
            rounds=4, crash_node=5, crash_at_us=250.0),
    )
}


# ----------------------------------------------------------------- running
def _contribution(seed: int, node: int, rnd: int) -> int:
    return (seed % 97) + 3 * node + rnd


def _build(scenario: FabricScenario):
    from ..collectives import wire_collectives
    from ..hw import PENTIUM_120

    # the row's class at the scenario's own shape, not the row's n-host one
    fabric = networks.get(scenario.fabric).cls(Simulator(), leaves=scenario.leaves,
                                               spines=scenario.spines,
                                               hosts_per_leaf=scenario.hosts_per_leaf)
    hosts = [fabric.add_host(f"n{i}", PENTIUM_120)
             for i in range(scenario.nodes)]
    engines, group = wire_collectives(fabric, hosts, healing=True)
    return fabric, hosts, engines, group


def run_fabric_scenario(scenario: FabricScenario, seed: int = DEFAULT_SEED,
                        progress=None) -> FabricSoakResult:
    """Run one fabric-fault soak and verify the fault-tolerance contract."""
    from ..collectives import CollectiveAborted
    from ..collectives.engine import CollectiveError
    from ..core.errors import NoPathError

    fabric, hosts, engines, group = _build(scenario)
    sim = fabric.sim
    injector = FabricFaultInjector(sim, fabric, scenario.stages())
    nodes = scenario.nodes
    violations: List[str] = []

    #: node -> list of (round_index, start_us, end_us, value)
    log: Dict[int, List[Tuple[int, float, float, int]]] = {
        n: [] for n in range(nodes)}
    abort_at: Dict[int, float] = {}

    def round_once(node: int, rnd: int):
        start = sim.now
        data = struct.pack("=q", _contribution(seed, node, rnd))
        result = yield from engines[node].allreduce(data, op="sum", dtype="q")
        log[node].append((rnd, start, sim.now, struct.unpack("=q", result)[0]))

    def driver(node: int):
        if scenario.expect_abort:
            rnd = 0
            while True:
                try:
                    yield from round_once(node, rnd)
                except CollectiveAborted:
                    abort_at[node] = sim.now
                    return
                rnd += 1
                yield scenario.round_gap_us
        else:
            for rnd in range(scenario.rounds):
                try:
                    yield from round_once(node, rnd)
                except CollectiveAborted:
                    abort_at[node] = sim.now
                    return
                except CollectiveError:
                    return  # own engine crashed: the host call dies with it
                yield scenario.round_gap_us

    def post_driver(node: int):
        for k in range(scenario.post_rounds):
            yield from round_once(node, _POST_ROUND_BASE + k)
            yield scenario.round_gap_us

    processes = {n: sim.process(driver(n), name=f"fabricsoak.n{n}")
                 for n in range(nodes)}
    post_processes: Dict[int, object] = {}

    crash_time: List[float] = []
    if scenario.crash_node is not None:
        def chaos():
            victim = engines[scenario.crash_node]
            yield scenario.crash_at_us
            # kill mid-collective: liveness evidence is send-driven, so a
            # victim that dies idle would only be noticed at the next
            # packet addressed to it — the interesting (and guaranteed
            # detectable) case is silence with traffic in flight
            while not victim.pending:
                yield 5.0
            victim.crash()
            crash_time.append(sim.now)
            if progress is not None:
                progress(f"{scenario.name}: engine {scenario.crash_node} "
                         f"killed at t={sim.now:.0f}us")
        sim.process(chaos(), name="fabricsoak.chaos")

    if scenario.expect_abort:
        def coordinator():
            while not group.aborted:
                yield 100.0
            while len(abort_at) < nodes:
                yield 100.0
            # every member saw the typed abort; the cut must also be
            # visible to signaling
            try:
                fabric.connect_collective(hosts[0].backend, hosts[-1].backend)
                violations.append("partition: connect_collective across the "
                                  "cut did not raise NoPathError")
            except NoPathError:
                pass
            if progress is not None:
                progress(f"{scenario.name}: all {nodes} members aborted by "
                         f"t={sim.now:.0f}us")
            while sim.now < scenario.resume_at_us:
                yield 200.0
            live = group.resume()
            for node in live:
                post_processes[node] = sim.process(
                    post_driver(node), name=f"fabricsoak.post{node}")
        sim.process(coordinator(), name="fabricsoak.coordinator")

    with fabric:
        sim.run(until=TIME_LIMIT_US)

    # ---------------------------------------------------------- verdicts
    expected_live = [n for n in range(nodes) if n != scenario.crash_node]
    if scenario.expect_abort:
        done = all(p.triggered for p in processes.values()) \
            and len(post_processes) == nodes \
            and all(p.triggered for p in post_processes.values())
        if len(abort_at) < nodes:
            silent = sorted(set(range(nodes)) - set(abort_at))
            violations.append(f"abort: members {silent[:8]} never raised "
                              f"CollectiveAborted — a partition must abort "
                              f"every member in bounded time")
    else:
        done = all(processes[n].triggered for n in expected_live)
        if group.aborted:
            violations.append("abort: the group aborted on a survivable "
                              "fault")
    if not done:
        violations.insert(0, f"termination: soak incomplete at "
                             f"t={TIME_LIMIT_US:.0f}us")

    by_round: Dict[int, Dict[int, Tuple[float, float, int]]] = {}
    for node, entries in log.items():
        for rnd, start, end, value in entries:
            by_round.setdefault(rnd, {})[node] = (start, end, value)

    full = {rnd: sum(_contribution(seed, n, rnd) for n in range(nodes))
            for rnd in by_round}
    survivor = {rnd: sum(_contribution(seed, n, rnd) for n in expected_live)
                for rnd in by_round}
    for rnd in sorted(by_round):
        cells = by_round[rnd]
        values = {v for _, _, v in cells.values()}
        if len(values) > 1:
            violations.append(f"agreement: round {rnd} returned divergent "
                              f"values {sorted(values)[:4]}")
            continue
        value = values.pop()
        allowed = ({full[rnd]} if scenario.crash_node is None
                   else {full[rnd], survivor[rnd]})
        if value not in allowed:
            violations.append(f"exactness: round {rnd} returned {value}, "
                              f"expected one of {sorted(allowed)} — a "
                              f"contribution was lost or double-counted")

    total_logged = sum(len(entries) for entries in log.values())
    engine_completions = sum(e.reduces_completed for e in engines)
    if engine_completions != total_logged:
        violations.append(f"exactly-once: engines delivered "
                          f"{engine_completions} results for {total_logged} "
                          f"host completions")

    # ----------------------------------------------------------- recovery
    if scenario.crash_node is not None:
        fault_final = crash_time[0] if crash_time else scenario.crash_at_us
    elif injector.fired:
        fault_final = max(t for t, _, _, _ in injector.fired)
    else:
        fault_final = 0.0
    complete_rounds = {rnd: cells for rnd, cells in by_round.items()
                       if set(cells) >= set(expected_live)}
    # recovery: the fault is over when every expected member completes
    # a round *begun* after the final transition — such a round can only
    # finish once any needed reroute or heal has landed, so the slowest
    # member (the one blocked waiting for it) sets the number
    firsts: List[float] = []
    stuck: List[int] = []
    for node in expected_live:
        after = [end for _, start, end, _ in log[node] if start > fault_final]
        if after:
            firsts.append(min(after))
        else:
            stuck.append(node)
    recovery = max(firsts) - fault_final if firsts and not stuck else 0.0
    if stuck and done:
        violations.append(f"recovery: members {stuck[:8]} never completed a "
                          f"round after the final fault transition")
    post_latencies = [
        max(e for _, e, _ in cells.values())
        - min(s for s, _, _ in cells.values())
        for rnd, cells in sorted(complete_rounds.items())
        if min(s for s, _, _ in cells.values()) > fault_final]
    post_mean = (sum(post_latencies) / len(post_latencies)
                 if post_latencies else 0.0)

    result = FabricSoakResult(
        scenario=scenario.name,
        fabric=scenario.fabric,
        nodes=nodes,
        completed=done,
        violations=violations,
        rounds_completed=len(complete_rounds),
        fault_final_us=fault_final,
        recovery_us=recovery,
        post_recovery_mean_us=post_mean,
        reroutes=getattr(fabric, "reroutes", 0),
        blackholed=total(fabric, "blackholed"),
        retransmissions=sum(e.retransmissions for e in engines),
        stale_epoch_drops=sum(e.stale_epoch_drops for e in engines),
        heals=len(group.heals),
        aborts=len(group.abort_times),
        epoch=group.epoch,
        transitions_applied=injector.transitions_applied,
        sim_events=sim.events_processed,
    )
    return result


# ------------------------------------------------------------------ report
_ROW_SCHEMA = {
    "completed": bool, "rounds_completed": int, "recovery_us": float,
    "post_recovery_mean_us": float, "reroutes": int, "blackholed": int,
    "retransmissions": int, "stale_epoch_drops": int, "heals": int,
    "aborts": int, "epoch": int, "transitions_applied": int,
    "violations": int,
}


def _headlines(payload: dict) -> List[Headline]:
    """Recovery time and steady-state round latency per fault scenario."""
    return [(f"{entry['scenario']}.{key}", "lower", entry["row"][key])
            for entry in payload["scenarios"]
            for key in ("recovery_us", "post_recovery_mean_us")]


#: ``BENCH_fabric.json``: simulated and seeded, so CI regenerates it and
#: gates it with ``diff``
FABRIC_ARTIFACT = Artifact(
    format="repro-bench-fabric/1",
    schema={
        "seed": int,
        "scenarios": [{
            "scenario": str,
            "description": str,
            "fabric": str,
            "nodes": int,
            "row": _ROW_SCHEMA,
        }],
    },
    headlines=_headlines,
    non_empty=("scenarios",),
)


def fabric_payload(results: Sequence[FabricSoakResult], seed: int) -> dict:
    """Assemble the BENCH_fabric payload from a suite run."""
    scenarios = []
    for r in results:
        spec = FABRIC_SCENARIOS.get(r.scenario)
        scenarios.append({
            "scenario": r.scenario,
            "description": spec.description if spec is not None else "",
            "fabric": r.fabric,
            "nodes": r.nodes,
            "row": r.to_row(),
        })
    return {"format": FABRIC_ARTIFACT.format, "seed": seed,
            "scenarios": scenarios}


def render_fabric_table(results: Sequence[FabricSoakResult]) -> str:
    """One row per scenario plus the recovery headline."""
    from ..analysis.report import format_table

    rows = []
    for r in results:
        rows.append([
            r.scenario, r.fabric, r.nodes,
            "ok" if r.ok else "FAIL",
            r.rounds_completed,
            f"{r.recovery_us / 1000.0:.2f}",
            f"{r.post_recovery_mean_us / 1000.0:.2f}",
            r.reroutes, r.heals, r.aborts, r.retransmissions,
        ])
    return format_table(
        ("scenario", "fabric", "nodes", "invariants", "rounds",
         "recovery_ms", "post_round_ms", "reroutes", "heals", "aborts",
         "rexmit"),
        rows,
        title="Fabric fault tolerance: failover, healing trees, partitions",
    )


SUITE = Suite(
    scenarios=FABRIC_SCENARIOS,
    run=lambda scenario, mode, seed, progress: run_fabric_scenario(
        scenario, seed=seed, progress=progress),
    render=render_fabric_table,
    overrides=frozenset({"seed"}),
    artifact=FABRIC_ARTIFACT,
    payload=fabric_payload,
)
