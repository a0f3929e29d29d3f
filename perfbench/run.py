"""perfbench command line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        one run; the last line of stdout is the result object
    python3 perfbench/run.py --all [--runs R] [--seed N] --out FILE
        every workload, end-to-end and per-layer, one process per run,
        summarised into one file
    python3 perfbench/run.py --compare A.json B.json
        regressed / unchanged / unresolved per workload and metric

See README.md beside this file.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # run as a script, sys.path[0] is this directory, whose modules must
    # not shadow the stdlib; the repo root and the program take its place
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))

from perfbench import harness  # noqa: E402
from perfbench.workloads import WORKLOADS, load  # noqa: E402

#: the loosest tolerance ``repro validate`` allows a headline figure
PAPER_TOLERANCE_PCT = 10.0
#: wall ceiling of one child run of ``--all`` (the driver's is the same)
RUN_LIMIT_S = 180


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 started: float = _PROCESS_START) -> dict:
    """One run of one workload: its end-to-end metrics, or with ``trace``
    its per-layer metrics.

    Returns ``correct``, ``attempted``, ``failed``, ``metrics`` (name ->
    value) and ``environment``.  Set-up time counts from ``started``.
    """
    scale = seconds / harness.REPS / harness.NOMINAL_REP_S
    yardstick = harness.Yardstick()
    spans = harness.Spans(yardstick)
    with spans.span("workload", name, seed=seed, scale=scale) as row:
        with spans.span("setup", "setup"):
            workload, setup_samples, setup_wall = harness.measure_setup(
                lambda: load(name), yardstick, seed, scale, started)
        row.attrs["op"] = workload.op
        reps = harness.timed_reps(
            workload, spans, harness.TRACE_RUN_REPS if trace else harness.REPS)
        if trace:
            metrics = per_layer(workload, spans, reps, setup_wall)
        else:
            metrics = harness.end_to_end(reps, setup_samples)
    if trace:
        spans.dump(os.path.join(harness.OUT_DIR, f"trace-{name}.json"),
                   {"workload": name, "seed": seed, "op": workload.op})
    failed = sum(rep.failed for rep in reps)
    paper_error = reps[0].figures.get("paper_error_pct", 0.0)
    return {
        "correct": failed == 0 and paper_error <= PAPER_TOLERANCE_PCT,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": failed,
        "metrics": metrics,
        "environment": workload.environment(),
    }


def per_layer(workload: harness.Workload, spans: harness.Spans, reps,
              setup_wall) -> dict:
    """The per-layer block: one repetition under cProfile, then probes."""
    # imported here so that an end-to-end run's set-up time and memory
    # hold the imports of its own workload and no others
    from perfbench import layers, probes
    from perfbench.workloads.live import choose_transport

    profiler = cProfile.Profile()
    spans.keep_calls = True
    traced = harness.run_rep(workload, spans, "traced", profiler.runcall)
    spans.keep_calls = False
    with spans.span("probes", "probes"):
        probe_figures = probes.run_probes(choose_transport())
    values = harness.per_layer(
        reps, traced, setup_wall,
        layers.layer_figures(pstats.Stats(profiler), traced.ops), probe_figures)
    values.update(harness.sample_figures(workload, reps))
    return values


def result_line(spec: dict, result: dict, trace: bool) -> str:
    rows = spec["per_layer" if trace else "end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": harness.emit(rows, result["metrics"], missing_is_zero=trace),
    })


def run_all(args) -> int:
    """Every workload ``--runs`` times (seed, seed+1, ...) into ``--out``.

    Each run is a fresh interpreter running this file the way the driver
    does, once with ``--trace 0`` and once with ``--trace 1``: set-up time
    and peak memory belong to a process, so runs that shared one would
    report each other's imports and high-water marks.
    """
    from perfbench.compare import summarise

    document = {
        "format": "perfbench-result/2",
        "seconds": args.seconds,
        "environment": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "platform": platform.platform()},
        "workloads": {},
    }
    seeds = [args.seed + index for index in range(args.runs)]
    correct = True
    for name in WORKLOADS:
        lines = {"end_to_end": [], "per_layer": []}
        for seed in seeds:
            for trace, block in ((0, "end_to_end"), (1, "per_layer")):
                print(f"{name}: seed {seed} --trace {trace} ...", file=sys.stderr)
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", name, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", str(trace)],
                    stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
                environment, result = map(json.loads, done.stdout.splitlines()[-2:])
                correct = correct and done.returncode == 0 and result["correct"]
                document["environment"].update(environment["environment"])
                lines[block].append(result)
        document["workloads"][name] = dict(
            summarise(lines), seeds=seeds,
            attempted=sum(r["attempted"] for r in lines["end_to_end"]),
            failed=sum(r["failed"] for r in lines["end_to_end"]))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="The repository's gated benchmark; see perfbench/README.md.")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time of one run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(harness.OUT_DIR, "result.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    spec = harness.load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.compare:
        from perfbench.compare import compare_files

        return compare_files(args.compare[0], args.compare[1], spec)
    if not (args.all or args.workload):
        parser.error("one of --workload, --all or --compare is required")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: the program is missing ({ROOT}/src/repro)",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": result["environment"]}))
    print(result_line(spec, result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
