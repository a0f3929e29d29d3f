"""Host cost per layer: calls into ``src/repro`` and heap entries per op.

Wall time on a shared machine swings by tens of percent between
identical runs; the number of Python frames a run enters and the number
of entries its simulator dispatches do not.  This module runs a fixed
set of simulated workloads under the profiler and records, per
workload row, the calls into ``src/repro`` per op by package and the
heap entries (``Simulator.events_processed``) per op.
``repro bench --host`` writes the rows to ``BENCH_host.json``; CI
regenerates the file and ``diff``s it, so a change that puts a frame
back on a hot path, or removes one, is a diff of that file.

Counting rules, the same for the artifact and for the host-call tests
that import :func:`count_calls`: a ``call`` event counts when its code
lives in ``src/repro``; code objects named ``<...>`` (comprehensions,
generator expressions, lambdas) are skipped, because 3.12 inlines
comprehensions and the count must be the same on every supported
Python; the collector is run before and held off during the count, so
no finaliser lands in it.  A generator resumed is a call too.  A
profile hook set before the count (``sys.setprofile``, such as
``scripts/exec_census.py``'s) is set again after it; the profiler
replaces it for the count's duration.
"""

from __future__ import annotations

import cProfile
import gc
import os
import sys
from collections import Counter
from types import CodeType
from typing import Callable, Dict, List, Tuple

import repro

from ..artifact import Artifact

__all__ = ["ARTIFACT", "count_calls", "per_function", "by_package",
           "run_host_bench", "render_host_bench"]

_SRC = os.path.dirname(repro.__file__) + os.sep

#: ``(path under src/repro, first line, function name)`` -> calls
CallCounts = Counter


def count_calls(run: Callable[[], object]) -> CallCounts:
    """``run()`` under the profiler: the calls it made into ``src/repro``,
    by ``(path, first line, name)``, with no collection during the count.

    The profiler is ``cProfile``'s C one (a Python ``sys.setprofile``
    hook sees the same calls at six times the cost); its call count per
    code object is the number of ``call`` events the hook would see."""
    profiler = cProfile.Profile()
    hook = sys.getprofile()
    gc.collect()
    gc.disable()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
        sys.setprofile(hook)
        gc.enable()
    counts: CallCounts = Counter()
    for entry in profiler.getstats():
        code = entry.code
        if (isinstance(code, CodeType) and code.co_filename.startswith(_SRC)
                and not code.co_name.startswith("<")):
            counts[code.co_filename[len(_SRC):], code.co_firstlineno,
                   code.co_name] += entry.callcount
    return counts


def per_function(counts: CallCounts, per: float) -> str:
    """The per-function table a failed ceiling prints: calls per ``per`` ops."""
    return "\n".join(f"{count / per:10.2f}  {path}:{line} {name}"
                     for (path, line, name), count in counts.most_common())


def by_package(counts: CallCounts) -> Dict[str, int]:
    """Calls by package of ``src/repro`` (a top-level module is its own
    package: ``telemetry``, ``networks``), sorted by name."""
    totals: Counter = Counter()
    for (path, _line, _name), count in counts.items():
        head = path.split(os.sep, 1)[0]
        totals[head[:-3] if head.endswith(".py") else head] += count
    return dict(sorted(totals.items()))


# ------------------------------------------------------------------ the rows
#: ops per row: round trips, messages, keys, collective rounds
PINGPONG_ROUNDS = 20
STREAM_MESSAGES = 50
STREAM_SIZE = 1498
PINGPONG_SIZE = 40
RADIX_NODES = 16
RADIX_KEYS_PER_NODE = 16
#: 4 passes of 256 buckets: the cheapest 16-node sort to count (a pass's
#: histogram exchange, not its keys, is what it costs)
RADIX_BITS = 8
NIC_NODES = 32
NIC_ROUNDS = 4
#: the warm-up barrier, then NIC_ROUNDS barriers and NIC_ROUNDS all-reduces
NIC_COUNTED_ROUNDS = 1 + 2 * NIC_ROUNDS


def _nic_round_program(runtime):
    """SPMD body of the NIC-collective row: a warm-up barrier, then
    :data:`NIC_ROUNDS` barriers and :data:`NIC_ROUNDS` all-reduces of
    the node ids; returns the reduced sum."""
    import numpy as np

    values = runtime.heap.allocate("v", 4, np.int64)
    yield from runtime.barrier()
    for _ in range(NIC_ROUNDS):
        yield from runtime.barrier()
    for _ in range(NIC_ROUNDS):
        values[:] = runtime.node
        yield from runtime.all_reduce("v", op="sum")
    return int(values[0])


def _pingpong(config: str) -> Tuple[CallCounts, int, int]:
    from .microbench import FIGURE5_CONFIGS, measure_rtt

    with FIGURE5_CONFIGS[config]() as setup:
        counts = count_calls(lambda: measure_rtt(setup, PINGPONG_SIZE,
                                                 rounds=PINGPONG_ROUNDS))
        return counts, setup.sim.events_processed, PINGPONG_ROUNDS


def _stream(config: str) -> Tuple[CallCounts, int, int]:
    from .microbench import FIGURE6_CONFIGS, measure_bandwidth

    with FIGURE6_CONFIGS[config]() as setup:
        counts = count_calls(lambda: measure_bandwidth(setup, STREAM_SIZE,
                                                       messages=STREAM_MESSAGES))
        return counts, setup.sim.events_processed, STREAM_MESSAGES


def _radix(substrate: str) -> Tuple[CallCounts, int, int]:
    from ..apps import RadixConfig, run_radix_sort
    from ..splitc import Cluster

    cluster = Cluster(RADIX_NODES, substrate=substrate)
    config = RadixConfig(RADIX_KEYS_PER_NODE, small_messages=False, radix_bits=RADIX_BITS)
    # run_radix_sort raises WrongResult on an unsorted heap: a row is
    # only ever recorded for a verified sort
    counts = count_calls(lambda: run_radix_sort(cluster, config))
    return counts, cluster.sim.events_processed, RADIX_NODES * RADIX_KEYS_PER_NODE


def _nic_round(substrate: str) -> Tuple[CallCounts, int, int]:
    from ..splitc import Cluster

    cluster = Cluster(NIC_NODES, substrate=substrate, collectives="nic")
    sums: List[int] = []
    counts = count_calls(lambda: sums.extend(cluster.run(_nic_round_program)))
    if sums != [sum(range(NIC_NODES))] * NIC_NODES:
        raise AssertionError(f"{substrate}: all-reduce gave {sums[:4]}..., "
                             f"expected {sum(range(NIC_NODES))} on every node")
    return counts, cluster.sim.events_processed, NIC_COUNTED_ROUNDS


#: row name -> (what one op is, the run)
ROWS: Dict[str, Tuple[str, Callable[[], Tuple[CallCounts, int, int]]]] = {
    **{f"fig5-pingpong/{c}": (f"{PINGPONG_SIZE}-byte round trip", lambda c=c: _pingpong(c))
       for c in ("hub", "bay28115", "fn100", "atm")},
    **{f"fig6-stream/{c}": (f"{STREAM_SIZE}-byte message", lambda c=c: _stream(c))
       for c in ("hub", "bay28115", "atm")},
    "radix-sort/16-fe-switch": ("key sorted", lambda: _radix("fe-switch")),
    **{f"nic-round/{s}": ("collective round", lambda s=s: _nic_round(s))
       for s in ("atm-clos", "fe-clos")},
}


def _per_op(value: int, ops: int) -> float:
    return round(value / ops, 3)


def run_host_bench(progress: Callable[[str], None] = lambda message: None) -> Dict:
    """Every row of :data:`ROWS`, as the ``BENCH_host.json`` payload."""
    rows = []
    for name, (op, run) in ROWS.items():
        counts, entries, ops = run()
        packages = by_package(counts)
        row = {
            "row": name,
            "op": op,
            "ops": ops,
            "calls_per_op": _per_op(sum(packages.values()), ops),
            "heap_entries_per_op": _per_op(entries, ops),
            "calls_per_op_by_package": {package: _per_op(calls, ops)
                                        for package, calls in packages.items()},
        }
        rows.append(row)
        progress(f"{name}: {row['calls_per_op']} calls, "
                 f"{row['heap_entries_per_op']} heap entries per {op}")
    return {"format": ARTIFACT.format, "rows": rows}


def _headlines(payload: Dict):
    return ([(f"{row['row']}.calls_per_op", "lower", row["calls_per_op"])
             for row in payload["rows"]]
            + [(f"{row['row']}.heap_entries_per_op", "lower", row["heap_entries_per_op"])
               for row in payload["rows"]])


#: ``BENCH_host.json``: exact counts only, so CI regenerates it and
#: gates it with ``diff`` like the simulated artifacts
ARTIFACT = Artifact(
    format="repro-bench-host/1",
    schema={"rows": [{"row": str, "op": str, "ops": int, "calls_per_op": float,
                      "heap_entries_per_op": float,
                      "calls_per_op_by_package": dict}]},
    headlines=_headlines,
    non_empty=("rows",),
)


def render_host_bench(payload: Dict) -> str:
    """Terminal summary: one line per row, the packages largest first."""
    from .report import format_table

    rows = []
    for row in payload["rows"]:
        packages = sorted(row["calls_per_op_by_package"].items(), key=lambda kv: -kv[1])
        rows.append([row["row"], row["op"], f"{row['calls_per_op']:.2f}",
                     f"{row['heap_entries_per_op']:.2f}",
                     ", ".join(f"{p} {v:.1f}" for p, v in packages[:4])])
    return format_table(("row", "op", "calls/op", "heap entries/op", "largest packages"),
                        rows, title="Host cost per op (calls into src/repro, exact)")
