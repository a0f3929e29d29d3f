"""Timing core: calibration loop, spans, repetitions, metric assembly.

A run is set-up, then identical *repetitions* of a workload.  A
repetition is a few *phases*; a calibration loop that uses only the
stdlib runs between them, and each phase is counted in calibration
iterations instead of seconds, so that the speed of the box cancels out.
``speed_index`` is the median over repetitions of ops per calibration
iteration.  Per-layer numbers come from separate repetitions (one of
them under cProfile) that never overlap the timed ones.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: timed repetitions per run; the run's --seconds is split evenly over them
REPS = 7
#: a repetition at scale 1.0 is sized to take about this long on the
#: 2-core box the workloads were sized on
NOMINAL_REP_S = 2.0
#: the calibration loop runs between phases for this share of the phase
#: it follows, within these limits (seconds)
CALIBRATION_SHARE = 0.35
CALIBRATION_MIN_S = 0.1
CALIBRATION_MAX_S = 0.8
#: ``setup_s`` is reported in seconds of a box on which the calibration
#: loop makes this many iterations per second (about this box when quiet)
REFERENCE_ITERS_PER_S = 1.2e6
#: a calibration this recent still describes the box (harness glue only
#: ran since): the next phase reuses it as its "before"
CALIBRATION_FRESH_S = 0.02
#: repetitions of a --trace 1 run that feed counters and harness.* figures
TRACE_RUN_REPS = 3
SETUP_ROUNDS = 3


def load_spec() -> dict:
    """The metric declarations: BENCHMARK.json is their only home."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------- calibration
class Yardstick:
    """The calibration loop: what host time is measured against.

    Heap push/pop and tuple allocation, the event kernel's instruction
    mix, while walking a 2 MB ring of small objects in scattered order.
    Deliberately nothing from ``repro``: an optimisation of the program
    must not move the yardstick.  The ring is there because the box
    slows down in more than one way: measured here, a loop that stays in
    the L1 cache lost 12 % of its speed in a contended half hour in which
    the workloads lost 11-27 %, so the ratio sagged by up to 14 %; with
    the ring the loop lost 28 % and the ratio stayed within -7..+5 %.
    """

    NODES = 1 << 14

    def __init__(self) -> None:
        n = self.NODES
        ring = [[i, None, float(i)] for i in range(n)]
        for i, node in enumerate(ring):
            # a full-period walk: multiplier = 1 mod 4, odd increment
            node[1] = ring[(i * 40501 + 12345) % n]
        self._node = ring[0]

    def rate(self, duration_s: float) -> float:
        """Iterations per second, measured for about ``duration_s``."""
        node = self._node
        heap: list = []
        push, pop = heapq.heappush, heapq.heappop
        done = 0
        start = time.perf_counter()
        deadline = start + duration_s
        while True:
            for i in range(2000):
                node = node[1]
                push(heap, (node[0] & 1023, done + i, (node, node[2])))
                if len(heap) > 64:
                    pop(heap)
            done += 2000
            now = time.perf_counter()
            if now >= deadline:
                self._node = node
                return done / (now - start)

    def rate_after(self, work_s: float) -> float:
        """Calibrate for a fixed share of the stretch of work just timed."""
        return self.rate(min(CALIBRATION_MAX_S,
                             max(CALIBRATION_MIN_S, CALIBRATION_SHARE * work_s)))


# ------------------------------------------------------------------- spans
@dataclass
class Span:
    id: int
    parent: Optional[int]
    kind: str
    name: str
    start_s: float
    end_s: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class Spans:
    """In-memory span log: workload -> rep -> phase -> call.

    ``call`` spans (one per call into a public function of the program)
    are only kept while ``keep_calls`` is set, which the harness does for
    the traced repetition alone; timed repetitions record their handful
    of phase spans and nothing else.
    """

    def __init__(self, yardstick: Optional[Yardstick] = None) -> None:
        self.rows: List[Span] = []
        self.yardstick = yardstick
        self.keep_calls = False
        #: run the calibration loop around every phase (timed reps only)
        self.calibrating = False
        self._stack: List[Span] = []
        self._origin = time.perf_counter()
        self._calibrated = (-1.0, 0.0)  # (when it ended, iterations/s)

    @contextlib.contextmanager
    def span(self, kind: str, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        row = Span(len(self.rows), parent, kind, name,
                   time.perf_counter() - self._origin, attrs=attrs)
        self.rows.append(row)
        self._stack.append(row)
        try:
            yield row
        finally:
            row.end_s = time.perf_counter() - self._origin
            self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[Span]:
        """One timed configuration inside a repetition.

        Host time of a repetition is the sum of its phases; what the
        workload does between them (building checks, reading counters)
        is not timed.  In a timed repetition the calibration loop runs
        before and after each phase, for about a third of the phase's
        own length, so each stretch of work is scaled by the speed of the
        box at that moment (it drifts by 2x within a run on a shared
        box, and by less within a second).

        Every phase starts from a fully collected heap.  The collector
        triggers on allocation counts, so from there it runs at the same
        points of every repetition, and so do the ``close()`` calls it
        makes on the parked generators of a dropped simulator, which
        cProfile counts: call counts per op then repeat exactly.
        """
        gc.collect()
        if not self.calibrating:
            with self.span("phase", name) as row:
                yield row
            return
        ended, before = self._calibrated
        if time.perf_counter() - ended > CALIBRATION_FRESH_S:
            before = self.yardstick.rate(CALIBRATION_MIN_S)
        with self.span("phase", name) as row:
            yield row
        after = self.yardstick.rate_after(row.duration_s)
        self._calibrated = (time.perf_counter(), after)
        row.attrs["cal_iters_per_s"] = (before + after) / 2.0

    def call(self, name: str, **attrs):
        """Span around one call into the program; free when not tracing."""
        if self.keep_calls:
            return self.span("call", name, **attrs)
        return contextlib.nullcontext()

    def add_call(self, name: str, start: float, end: float) -> None:
        """A call the workload timed itself (``perf_counter`` stamps)."""
        if self.keep_calls:
            parent = self._stack[-1].id if self._stack else None
            self.rows.append(Span(len(self.rows), parent, "call", name,
                                  start - self._origin, end - self._origin))

    def dump(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = [{"id": s.id, "parent": s.parent, "kind": s.kind,
                  "name": s.name, "start_s": s.start_s, "end_s": s.end_s,
                  "attrs": s.attrs} for s in self.rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, spans=spans), fh)
            fh.write("\n")


# ------------------------------------------------------------- repetitions
@dataclass
class Rep:
    """What one repetition of a workload did (filled in by the workload)."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: simulated microseconds spent on the ops (0 on the live workload)
    sim_us: float = 0.0
    #: raw totals, e.g. ``{"sim.events": 123456}``; the harness divides
    counters: Dict[str, float] = field(default_factory=dict)
    #: finished per-layer figures, e.g. ``{"ethernet.hub_rtt_us": 56.9}``
    figures: Dict[str, float] = field(default_factory=dict)
    #: per-call samples pooled over repetitions, e.g. RPC latencies
    samples: Dict[str, List[float]] = field(default_factory=dict)
    # set by the harness from the repetition's phase spans
    #: host seconds inside phases
    host_s: float = 0.0
    #: the same time counted in calibration-loop iterations
    cal_iters: float = 0.0

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.host_s

    @property
    def speed_index(self) -> float:
        return self.ops / self.cal_iters * 1e6


class Workload:
    """One set of inputs.  Subclasses live in ``perfbench.workloads``."""

    name = ""
    #: what one op is, for the README and the trace header
    op = ""
    #: metric -> (key of ``Rep.samples``, quantile), pooled over repetitions
    sample_figures: Dict[str, Tuple[str, float]] = {}

    def prepare(self, seed: int, scale: float) -> None:
        """Set-up: inputs from the seed and a warm-up at the smallest sizes."""
        raise NotImplementedError

    def repetition(self, spans: Spans) -> Rep:
        raise NotImplementedError

    def environment(self) -> Dict[str, object]:
        """Workload-specific facts for the result header."""
        return {}


def run_rep(workload: Workload, spans: Spans, name: str,
            call: Callable = lambda fn, *args: fn(*args)) -> Rep:
    """One repetition under a ``rep`` span, timed from its phase spans.

    ``call`` runs the repetition; the traced one passes
    ``cProfile.Profile.runcall``.
    """
    with spans.span("rep", name) as row:
        first_phase = len(spans.rows)
        rep = call(workload.repetition, spans)
    if rep.ops <= 0:
        raise RuntimeError(f"{workload.name}: a repetition completed no op")
    for phase in spans.rows[first_phase:]:
        if phase.kind == "phase":
            rep.host_s += phase.duration_s
            rep.cal_iters += phase.duration_s * phase.attrs.get("cal_iters_per_s", 0.0)
    row.attrs.update(ops=rep.ops, failed=rep.failed, host_s=rep.host_s)
    return rep


def timed_reps(workload: Workload, spans: Spans, count: int) -> List[Rep]:
    """``count`` untraced repetitions with the calibration loop running."""
    spans.calibrating = True
    try:
        return [run_rep(workload, spans, f"rep{index}") for index in range(count)]
    finally:
        spans.calibrating = False


def measure_setup(load: Callable[[], Workload], yardstick: Yardstick, seed: int,
                  scale: float, started: float
                  ) -> Tuple[Workload, List[float], List[float]]:
    """Import the workload, then set it up ``SETUP_ROUNDS`` times.

    Returns (workload, ``setup_s`` samples, raw wall-second samples).
    Imports happen once per process, so every
    sample is the time since ``started`` that the imports took plus one
    :meth:`Workload.prepare`.  Like a phase, each stretch is bracketed
    by the calibration loop, and ``setup_s`` is its length in
    calibration iterations divided by :data:`REFERENCE_ITERS_PER_S`:
    seconds on a box of fixed speed, not of this box at this moment.
    """
    import_s = time.perf_counter() - started  # interpreter start-up so far
    rate = yardstick.rate(CALIBRATION_MIN_S)
    start = time.perf_counter()
    workload = load()
    import_s += time.perf_counter() - start
    after = yardstick.rate_after(import_s)
    import_iters = import_s * (rate + after) / 2.0
    rate = after
    samples, wall = [], []
    for round_ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        workload.prepare(seed, scale)
        prepare_s = time.perf_counter() - start
        after = yardstick.rate_after(prepare_s)
        samples.append((import_iters + prepare_s * (rate + after) / 2.0)
                       / REFERENCE_ITERS_PER_S)
        wall.append(import_s + prepare_s)
        rate = after
    return workload, samples, wall


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


# ---------------------------------------------------------------- assembly
def end_to_end(reps: List[Rep], setup_samples: List[float]) -> Dict[str, float]:
    """Every end-to-end metric of a run."""
    return {
        "setup_s": statistics.median(setup_samples),
        "speed_index": statistics.median(rep.speed_index for rep in reps),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(reps: List[Rep], traced: Rep, setup_wall: List[float],
              layer_figures: Dict[str, float],
              probe_figures: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer value this run produced, by metric name."""
    first = reps[0]
    rates = [rep.ops_per_s for rep in reps]
    host_s = statistics.median(rep.host_s for rep in reps)
    attempted = sum(rep.attempted for rep in reps)
    out = {f"{name}_per_op": total / first.ops
           for name, total in first.counters.items()}
    out.update(first.figures)
    out.update(layer_figures)
    out.update(probe_figures)
    out["sim.events_per_s"] = first.counters.get("sim.events", 0) / host_s
    out["sim_us_per_op"] = first.sim_us / first.ops
    out["failed_ops_share"] = sum(rep.failed for rep in reps) / attempted
    out["harness.setup_wall_s"] = statistics.median(setup_wall)
    out["harness.ops_per_s"] = statistics.median(rates)
    out["harness.host_us_per_op"] = 1e6 / statistics.median(rates)
    out["harness.cal_iters_per_s"] = statistics.median(
        rep.cal_iters / rep.host_s for rep in reps)
    out["harness.rep_spread"] = (max(rates) - min(rates)) / statistics.median(rates)
    out["harness.trace_overhead_ratio"] = traced.host_s / host_s
    return out


def sample_figures(workload: Workload, reps: List[Rep]) -> Dict[str, float]:
    """The workload's percentile figures over samples pooled from ``reps``."""
    pooled: Dict[str, List[float]] = {}
    for rep in reps:
        for name, values in rep.samples.items():
            pooled.setdefault(name, []).extend(values)
    return {metric: percentile(sorted(pooled[sample]), q)
            for metric, (sample, q) in workload.sample_figures.items()}


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def emit(spec_rows: List[dict], values: Dict[str, float],
         missing_is_zero: bool) -> Dict[str, dict]:
    """The ``metrics`` object of the result line, in declaration order.

    Per-layer metrics a workload does not exercise (``atm.*`` on the
    live workload, ``live.*`` on the simulated ones) read 0; an
    end-to-end metric must always be measured.
    """
    out: Dict[str, dict] = {}
    for row in spec_rows:
        name = row["name"]
        if name in values:
            value = values[name]
        elif missing_is_zero:
            value = 0.0
        else:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        out[name] = {"value": value, "unit": row["unit"]}
    undeclared = sorted(set(values) - {row["name"] for row in spec_rows})
    if undeclared:
        raise KeyError(f"measured but not declared in BENCHMARK.json: {undeclared}")
    return out

