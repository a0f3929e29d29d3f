"""``--compare A.json B.json``: B against its base A, metric by metric.

Both files come from ``run.py --all``.  Every end-to-end metric gets a
verdict from its bound in BENCHMARK.json and the interquartile spread of
the samples behind each median:

* ``regressed``  — B is worse than A by more than the bound and by more
  than the wider of the two spreads;
* ``unresolved`` — not regressed, but a spread is wider than the bound
  (or a side has fewer than four runs), so "no worse" cannot be told
  from noise;
* ``unchanged``  — B is no worse than A by more than the bound.

Per-layer metrics have no bound and get no verdict, except the
simulated-time figures: those are exact for a seed, so any drift past
0.1 % is marked ``changed`` (a change meant only to speed the simulator
up must leave them identical).
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

#: medians of fewer runs than this have no spread worth the name
MIN_RUNS = 4
EXACT_TOLERANCE = 0.001
EXACT_SUFFIXES = ("rtt_us", "_mbps", "_round_us", "sim_us_per_op",
                  "paper_error_pct", "apps.rsortsm_s", "apps.rsortlg_s",
                  "collectives.host16_s", ".calls_per_op", "sim.events_per_op")


def summarise(lines: Dict[str, List[dict]]) -> dict:
    """Median, quartiles and count of every metric over the result lines
    of one workload (``{"end_to_end": [...], "per_layer": [...]}``).

    End-to-end metrics also keep the value of each run, so that a later
    reader can redo the statistics; per-layer metrics that read 0 on
    every run (layers the workload does not exercise) are left out.
    """
    summary: Dict[str, dict] = {}
    for block, results in lines.items():
        summary[block] = {}
        for name in results[0]["metrics"]:
            values = [result["metrics"][name]["value"] for result in results]
            if block == "per_layer" and not any(values):
                continue
            if len(values) >= 2:
                q1, _q2, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            row = {"median": statistics.median(values), "q1": q1, "q3": q3,
                   "n": len(values)}
            if block == "end_to_end":
                row["values"] = values
            summary[block][name] = row
    return summary


def spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if not a["median"] or min(a["n"], b["n"]) < MIN_RUNS:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if better == "lower" else -change
    noise = max(spread(a), spread(b))
    if worse > max(bound, noise):
        return "regressed"
    return "unresolved" if noise > bound else "unchanged"


def _ratio(a: dict, b: dict) -> str:
    if not a["median"]:
        return "      -"
    return f"{b['median'] / a['median']:7.3f}"


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        doc_b = json.load(fh)
    print(f"A (base) = {path_a}\nB        = {path_b}\nratio = B / A")
    regressed = 0
    for name, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(name)
        if entry_b is None:
            print(f"\n{name}: missing from B")
            continue
        note = ("" if entry_a["seeds"] == entry_b["seeds"]
                else "  (seeds differ: exact figures may too)")
        print(f"\n{name}{note}")
        print(f"  {'metric':<34}{'A median':>14}{'B median':>14}{'ratio':>8}"
              f"{'IQR A':>8}{'IQR B':>8}  verdict")
        for row in spec["end_to_end"]:
            a = entry_a["end_to_end"][row["name"]]
            b = entry_b["end_to_end"][row["name"]]
            result = verdict(a, b, row["better"], row["bound"])
            regressed += result == "regressed"
            print(f"  {row['name']:<34}{a['median']:>14.6g}{b['median']:>14.6g}"
                  f"{_ratio(a, b):>8}{spread(a):>8.1%}{spread(b):>8.1%}  "
                  f"{result} (bound {row['bound']:.1%}, {row['better']} is better)")
        for row in spec["per_layer"]:
            a = entry_a["per_layer"].get(row["name"])
            b = entry_b["per_layer"].get(row["name"])
            if a is None or b is None:
                continue  # not exercised by this workload
            mark = ""
            if row["name"].endswith(EXACT_SUFFIXES) and a["median"]:
                drift = abs(b["median"] - a["median"]) / abs(a["median"])
                mark = "changed" if drift > EXACT_TOLERANCE else "identical"
            print(f"  {row['name']:<34}{a['median']:>14.6g}{b['median']:>14.6g}"
                  f"{_ratio(a, b):>8}{'':>16}  {mark}")
    print(f"\n{regressed} end-to-end metric x workload pairs regressed")
    return 1 if regressed else 0
