"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list                # what can be regenerated
    python -m repro fig3                # U-Net/FE TX timeline
    python -m repro fig4                # U-Net/FE RX timelines
    python -m repro fig5 [--sizes ...]  # RTT vs size, all configs
    python -m repro fig6                # bandwidth vs size
    python -m repro table1 [--keys N]   # Split-C execution times
    python -m repro table2              # speedups 2 -> 8 nodes
    python -m repro fig7                # relative times, cpu/net split
    python -m repro rtt --config atm --size 40
    python -m repro bandwidth --config hub --size 1498
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import networks
from .suite import SUITES

__all__ = ["main"]

_EXPERIMENTS = {
    "fig3": "U-Net/FE transmit timeline (Figure 3)",
    "fig4": "U-Net/FE receive timelines (Figure 4)",
    "atm-timeline": "i960 firmware path timelines (no paper figure)",
    "journey": "end-to-end timeline of one message, every stage",
    "fig5": "round-trip latency vs message size (Figure 5)",
    "fig6": "bandwidth vs message size (Figure 6)",
    "table1": "Split-C execution times (Table 1)",
    "table2": "speedups 2 to 8 nodes (Table 2)",
    "fig7": "relative execution times, cpu/net split (Figure 7)",
    "rtt": "single round-trip measurement",
    "bandwidth": "single bandwidth measurement",
    "splitc": "run one Split-C benchmark in the event-level simulator",
    "soak": "soak suites: " + ", ".join(SUITES),
    "bench": "wall-clock benchmarks on the live U-Net/OS substrate",
    "conformance": "differential conformance: substrates vs the reference model",
    "report": "regenerate the full evaluation (all figures and tables)",
    "validate": "self-check every headline number against the paper",
    "list": "list available experiments",
}

_SPLITC_BENCHMARKS = ("rsortsm", "rsortlg", "ssortsm", "ssortlg", "mm")


def _cmd_list(_args) -> int:
    print("experiments:")
    for name, description in _EXPERIMENTS.items():
        print(f"  {name:12s} {description}")
    print("substrates (splitc --substrate; aliases in brackets):")
    for row in networks.NETWORKS.values():
        aliases = f" [{', '.join(row.aliases)}]" if row.aliases else ""
        limit = f", at most {row.max_hosts} hosts" if row.max_hosts else ""
        print(f"  {row.name:12s} {row.label}{aliases}{limit}")
    return 0


def _cmd_fig3(_args) -> int:
    from .analysis import figure3_timeline

    print(figure3_timeline().render(
        title="Figure 3 - U-Net/FE TX timeline, 40-byte message (paper: 4.2 us)"))
    return 0


def _cmd_fig4(_args) -> int:
    from .analysis import figure4_timeline

    print(figure4_timeline(40).render(
        title="Figure 4a - RX timeline, 40 bytes (paper: 4.1 us)"))
    print()
    print(figure4_timeline(100).render(
        title="Figure 4b - RX timeline, 100 bytes (paper: 5.6 us)"))
    return 0


def _cmd_journey(args) -> int:
    from .analysis import render_journey

    print(render_journey(args.substrate, args.size))
    return 0


def _cmd_atm_timeline(args) -> int:
    from .analysis import atm_trace_transfer

    tx, rx = atm_trace_transfer(args.size)
    print(tx.render(title=f"U-Net/ATM i960 TX path, {args.size}-byte message"))
    print()
    print(rx.render(title=f"U-Net/ATM i960 RX path, {args.size}-byte message"))
    return 0


def _cmd_figure(args) -> int:
    from .analysis import FIGURES, ascii_plot, format_table

    if getattr(args, "svg", None):
        from .analysis import save_figure_svg

        print(f"wrote {save_figure_svg(args.figure, args.svg, sizes=args.sizes)}")
        return 0
    fig = FIGURES[args.figure]
    sizes = args.sizes or fig.sizes
    series = fig.series(sizes)
    rows = [[size] + [series[name][i][1] for name in fig.configs]
            for i, size in enumerate(sizes)]
    print(format_table(["bytes"] + list(fig.configs), rows,
                       title=f"{fig.title} ({fig.unit})"))
    print()
    print(ascii_plot({n: [(float(s), v) for s, v in pts] for n, pts in series.items()},
                     xlabel="bytes", ylabel=fig.unit))
    return 0


def _cmd_table1(args) -> int:
    from .analysis import BENCHMARKS, format_table, table1, table1_des

    if getattr(args, "des", False):
        keys = args.keys if args.keys != 512 * 1024 else 2048  # scaled default
        entries = table1_des(keys_per_node=keys)
        names = list(dict.fromkeys(e.benchmark for e in entries))
        node_counts = sorted({e.nodes for e in entries})
        index = {(e.benchmark, e.nodes, e.substrate): e for e in entries}
        headers = ["Benchmark"] + [f"{n}n {s}" for n in node_counts for s in ("FE", "ATM")]
        rows = [
            [name] + [index[(name, n, s)].seconds * 1000 for n in node_counts for s in ("FE", "ATM")]
            for name in names
        ]
        print(format_table(
            headers, rows,
            title=f"Table 1 (event-level DES, scaled: {keys} keys/node) - milliseconds",
        ))
        return 0
    entries = table1(keys_per_node=args.keys)
    index = {(e.benchmark, e.nodes, e.substrate): e for e in entries}
    rows = []
    for name in BENCHMARKS:
        rows.append([name] + [index[(name, n, s)].seconds for n in (2, 4, 8) for s in ("FE", "ATM")])
    print(format_table(
        ("Benchmark", "2n FE", "2n ATM", "4n FE", "4n ATM", "8n FE", "8n ATM"),
        rows,
        title=f"Table 1 - Split-C execution times (s), {args.keys} keys/node",
    ))
    return 0


def _cmd_table2(args) -> int:
    from .analysis import format_table, table1, table2

    rows = table2(table1(keys_per_node=args.keys))
    print(format_table(("Benchmark", "ATM", "FE"), rows,
                       title="Table 2 - speedup from 2 to 8 nodes"))
    return 0


def _cmd_fig7(args) -> int:
    from .analysis import BENCHMARKS, figure7, table1

    bars = figure7(table1(keys_per_node=args.keys))
    print("Figure 7 - relative execution times (normalized to 2-node ATM; C=cpu, n=net)")
    for name in BENCHMARKS:
        print(f"\n{name}:")
        for bar in bars:
            if bar["benchmark"] != name:
                continue
            total = bar["relative_total"]
            frac = bar["relative_cpu"] / total if total else 0.0
            chars = max(1, int(round(min(total, 2.5) * 30)))
            cpu_chars = int(round(frac * chars))
            print(f"  {bar['substrate']:>3} {bar['nodes']}n |"
                  f"{'C' * cpu_chars}{'n' * (chars - cpu_chars)}  {total:.2f}")
    return 0


def _cmd_point(args) -> int:
    """One point of Figure 5 (``rtt``) or Figure 6 (``bandwidth``)."""
    from .analysis import FIGURES

    fig = FIGURES[args.figure]
    if args.config not in fig.configs:
        print(f"unknown config {args.config!r}; choose from {sorted(fig.configs)}", file=sys.stderr)
        return 2
    value = fig.measure(args.config, args.size)
    print(f"{args.config} {args.size}B {fig.quantity}: {value:.1f} {fig.unit}")
    return 0


def _cmd_splitc(args) -> int:
    from .analysis import run_des
    from .apps import MatmulConfig, WrongResult
    from .splitc import Cluster

    if args.benchmark not in _SPLITC_BENCHMARKS:
        print(f"unknown benchmark {args.benchmark!r}; choose from {_SPLITC_BENCHMARKS}",
              file=sys.stderr)
        return 2
    for flag in ("nodes", "keys", "blocks", "block_size"):
        if getattr(args, flag) < 1:
            print(f"--{flag.replace('_', '-')} must be at least 1", file=sys.stderr)
            return 2
    try:
        cluster = Cluster(args.nodes, substrate=args.substrate,
                          collectives=args.collectives)
    except networks.TooManyHosts as exc:
        print(exc, file=sys.stderr)
        return 2
    mm = MatmulConfig(blocks=args.blocks, block_size=args.block_size, prefetch=args.prefetch)
    try:
        result = run_des(args.benchmark, cluster, args.keys, mm)
    except WrongResult as exc:
        print(f"{args.benchmark} on {exc}", file=sys.stderr)
        return 1
    cpu = sum(result.per_node_cpu_us) / args.nodes
    net = sum(result.per_node_net_us) / args.nodes
    busy = (cpu + net) or 1.0
    print(f"{args.benchmark} on {args.nodes}-node {args.substrate}: "
          f"{result.elapsed_us / 1000:.2f} ms "
          f"(cpu {cpu / busy * 100:.0f}% / net {net / busy * 100:.0f}%), "
          f"verified: True")
    if args.stats:
        from .analysis import cluster_stats, render_stats

        print(render_stats(cluster_stats(cluster)))
    return 0


def _cmd_soak(args) -> int:
    """The one soak driver: every suite is a record in ``repro.suite``."""
    import dataclasses

    from .analysis.report import engine_rate_line
    from .live.clock import WallClock
    from .suite import DEFAULT_SEED, OVERRIDES, load_suite

    suite = load_suite(args.suite)
    refused = [flag for flag in OVERRIDES
               if getattr(args, flag) is not None and not suite.honours(flag)]
    if refused:
        print(f"the {args.suite} suite does not honour "
              f"{', '.join('--' + flag for flag in refused)}", file=sys.stderr)
        return 2
    names = args.scenario or [n for n in suite.scenarios
                              if n not in suite.skipped_by_default]
    unknown = [n for n in names if n not in suite.scenarios]
    if unknown:
        print(f"unknown scenario(s) {unknown}; choose from "
              f"{sorted(suite.scenarios)}", file=sys.stderr)
        return 2
    scenarios = [suite.scenarios[n] for n in names]
    if args.messages is not None:
        if args.messages <= 0:
            print("--messages must be positive", file=sys.stderr)
            return 2
        scenarios = [dataclasses.replace(s, messages=args.messages) for s in scenarios]
    mode = None if args.mode == "compare" else args.mode
    if mode is not None and args.output:
        print("--output writes every mode of the grid; drop --mode", file=sys.stderr)
        return 2
    for scenario in scenarios:
        if mode is not None and mode not in suite.modes(scenario):
            print(f"the {args.suite} suite's {scenario.name} scenario has no mode "
                  f"{mode!r}; choose from {list(suite.modes(scenario))}", file=sys.stderr)
            return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    clock = WallClock()
    results, sim_wall_us = [], 0.0
    for scenario in scenarios:
        started = clock.now_us()
        batch = suite.grid(scenario, mode, seed, lambda m: print(f"  {m}"))
        if any(r.sim_events for r in batch):  # live runs have no engine to rate
            sim_wall_us += clock.now_us() - started
        results.extend(batch)
    if not results:
        print("no scenarios ran", file=sys.stderr)
        return 2
    print(suite.render(results))
    if sim_wall_us > 0.0:
        print(engine_rate_line(sum(r.sim_events for r in results),
                               sim_wall_us / 1e6))
    for r in results:
        label = getattr(r, "mode", None)
        for violation in r.violations:
            print(f"  !! {r.scenario}{f'[{label}]' if label else ''}: {violation}")
    if args.stats:
        print(suite.stats(results))
    if args.output:
        suite.artifact.write(args.output, suite.payload(results, seed))
        print(f"wrote {args.output}")
    return 0 if suite.passed(results) else 1


def _cmd_bench(args) -> int:
    """Wall-clock benchmark rig on the live U-Net/OS substrate."""
    if args.compare:
        from .analysis.benchcmp import (
            SnapshotError, compare_bench_files, render_compare,
        )

        try:
            deltas, problems = compare_bench_files(
                args.compare[0], args.compare[1], threshold=args.threshold)
        except SnapshotError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(render_compare(deltas, problems, threshold=args.threshold))
        return 0 if not problems else 1
    if args.collectives:
        from .analysis.report import engine_rate_line
        from .collectives.bench import (
            ARTIFACT, NODE_COUNTS, render_collectives_bench, run_collectives_bench,
        )
        from .live.clock import WallClock

        clock = WallClock()
        payload = run_collectives_bench(
            node_counts=tuple(args.nodes) if args.nodes else NODE_COUNTS,
            progress=lambda m: print(f"  {m}"),
        )
        wall_s = clock.now_us() / 1e6
        print(render_collectives_bench(payload))
        print(engine_rate_line(sum(e["sim_events"] for e in payload["engine"]),
                               wall_s))
        output = "BENCH_collectives.json"
    elif args.host:
        from .analysis.hostcost import ARTIFACT, render_host_bench, run_host_bench

        payload = run_host_bench(progress=lambda m: print(f"  {m}"))
        print(render_host_bench(payload))
        output = "BENCH_host.json"
    elif not args.live:
        print("the simulated figures live under `fig5` / `fig6`; pass --live "
              "to run the wall-clock rig on real sockets", file=sys.stderr)
        return 2
    else:
        if args.doorbell == "event":
            print("bench --live --doorbell event would time busy-polling: the "
                  "timed AM phases pump the doorbell loop by hand and never "
                  "park in epoll; choose busy-poll or batched, which change "
                  "the data path", file=sys.stderr)
            return 2
        from .live import available_transport_kinds, render_bench, run_bench
        from .live.bench import ARTIFACT

        kinds = available_transport_kinds()
        kind = args.transport if args.transport != "auto" else (kinds[0] if kinds else None)
        if kind is None or kind not in kinds:
            msg = (f"live transport {args.transport!r} is not available on this "
                   f"machine (available: {list(kinds) or 'none'})")
            if args.skip_missing:
                print(f"skipped: {msg}")
                return 0
            print(msg, file=sys.stderr)
            return 2
        payload = run_bench(
            kind,
            rtt_samples=args.rtt_samples,
            bw_messages=args.bw_messages,
            incast_senders=args.senders,
            incast_messages=args.incast_messages,
            burst_messages=args.burst_messages,
            burst_size=args.burst_size,
            doorbell_mode=args.doorbell,
            progress=lambda m: print(f"  {m}"),
        )
        print(render_bench(payload))
        output = "BENCH_live.json"
    if args.output is not None:
        output = args.output
    if output:
        ARTIFACT.write(output, payload)
        print(f"wrote {output}")
    return 0


def _cmd_conformance(args) -> int:
    """Differential conformance sweep / single-case replay."""
    from .conformance import (
        BUGS, CONFIG_PRESETS, REPRODUCER, SUBSTRATES, SubstrateUnavailable,
        check_substrate, generate_case, load_artifact_meta, render_report,
        run_case, run_fabric_case, shrink_case,
    )

    substrates = tuple(args.substrate) if args.substrate else SUBSTRATES
    if args.bug and args.bug not in BUGS:
        print(f"unknown bug {args.bug!r}; choose from {sorted(BUGS)}", file=sys.stderr)
        return 2

    if args.replay:
        meta = load_artifact_meta(args.replay)
        # the artifact's recorded substrate set is the replay contract;
        # an explicit --substrate overrides it knowingly
        replay_substrates = (tuple(args.substrate) if args.substrate
                             else tuple(meta["substrates"] or ()) or substrates)
        bug = args.bug or meta["bug"]
        try:
            for name in replay_substrates:
                check_substrate(name)
        except (SubstrateUnavailable, ValueError) as exc:
            print(f"replay refused: {exc}", file=sys.stderr)
            print(f"the artifact records its divergence against "
                  f"{list(replay_substrates)}; silently re-verifying on a "
                  f"subset would not reproduce it", file=sys.stderr)
            return 3
        report = run_case(meta["case"], substrates=replay_substrates, bug=bug)
        print(render_report(report))
        return 0 if report.ok else 1

    try:
        for name in substrates:
            check_substrate(name)
    except (SubstrateUnavailable, ValueError) as exc:
        print(f"cannot sweep: {exc}", file=sys.stderr)
        return 2

    configs = tuple(args.config) if args.config else tuple(CONFIG_PRESETS)
    if args.bug:
        # a bug only shows where its machinery is engaged
        engaged = BUGS[args.bug]["configs"]
        configs = tuple(c for c in configs if c in engaged) or engaged
    failures = []
    ran = 0
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        for config_name in configs:
            if config_name == "fabric":
                report = run_fabric_case(seed, bug=args.bug)
            else:
                case = generate_case(seed, config_name, n_messages=args.messages)
                report = run_case(case, substrates=substrates, bug=args.bug)
            ran += 1
            if report.ok:
                if args.verbose:
                    print(render_report(report, context=False))
                continue
            failures.append(report)
            print(render_report(report))
            if args.shrink and config_name != "fabric":
                print(f"  shrinking (budget {args.budget} runs)...")
                result = shrink_case(report, substrates=substrates, budget=args.budget,
                                     progress=lambda m: print(f"    {m}"))
                print(f"  minimized {result.original_size} -> {result.case.size} events "
                      f"in {result.attempts} attempts; divergence kinds: "
                      f"{', '.join(result.kinds)}")
                print(render_report(result.report))
                if args.artifact:
                    REPRODUCER.write(args.artifact, result.to_payload())
                    print(f"  reproducer written to {args.artifact} "
                          f"(replay: python -m repro conformance --replay {args.artifact})")
            if args.fail_fast:
                break
        if args.fail_fast and failures:
            break
    verdict = "no divergences" if not failures else f"{len(failures)} divergent case(s)"
    print(f"conformance: {ran} differential runs over {list(configs)} "
          f"on {list(substrates)}: {verdict}")
    return 0 if not failures else 1


def _cmd_validate(_args) -> int:
    from .analysis import render_validation, validate_reproduction

    claims = validate_reproduction()
    print(render_validation(claims))
    return 0 if all(c.passed for c in claims) else 1


def _cmd_report(args) -> int:
    """Everything, in paper order."""
    banner = "=" * 72
    sections = [
        ("Figure 3 - U-Net/FE transmit timeline", _cmd_fig3, None),
        ("Figure 4 - U-Net/FE receive timelines", _cmd_fig4, None),
        ("Figure 5 - round-trip latency", _cmd_figure, "fig5"),
        ("Figure 6 - bandwidth", _cmd_figure, "fig6"),
        ("Table 1 - Split-C execution times", _cmd_table1, None),
        ("Table 2 - speedups", _cmd_table2, None),
        ("Figure 7 - relative times, cpu/net split", _cmd_fig7, None),
    ]
    for title, fn, figure in sections:
        print(banner)
        print(title)
        print(banner)
        fn(argparse.Namespace(sizes=None, keys=args.keys, figure=figure))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from 'ATM and Fast Ethernet Network "
                    "Interfaces for User-level Communication' (HPCA 1997).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help=_EXPERIMENTS["list"]).set_defaults(func=_cmd_list)
    sub.add_parser("fig3", help=_EXPERIMENTS["fig3"]).set_defaults(func=_cmd_fig3)
    sub.add_parser("fig4", help=_EXPERIMENTS["fig4"]).set_defaults(func=_cmd_fig4)
    pat = sub.add_parser("atm-timeline", help=_EXPERIMENTS["atm-timeline"])
    pat.add_argument("--size", type=int, default=40)
    pat.set_defaults(func=_cmd_atm_timeline)
    pj = sub.add_parser("journey", help=_EXPERIMENTS["journey"])
    pj.add_argument("--substrate", default="fe", choices=("fe",) + tuple(
        name for name, row in networks.NETWORKS.items() if len(row.nis) == 1))
    pj.add_argument("--size", type=int, default=40)
    pj.set_defaults(func=_cmd_journey)
    for name in ("fig5", "fig6"):
        p = sub.add_parser(name, help=_EXPERIMENTS[name])
        p.add_argument("--sizes", type=int, nargs="+")
        p.add_argument("--svg", metavar="FILE", help="write an SVG chart instead of text")
        p.set_defaults(func=_cmd_figure, figure=name)
    for name, fn in (("table1", _cmd_table1), ("table2", _cmd_table2), ("fig7", _cmd_fig7)):
        p = sub.add_parser(name, help=_EXPERIMENTS[name])
        p.add_argument("--keys", type=int, default=512 * 1024,
                       help="keys per node for the sort benchmarks")
        if name == "table1":
            p.add_argument("--des", action="store_true",
                           help="measure in the event-level simulator at reduced scale")
        p.set_defaults(func=fn)
    for name, figure, size in (("rtt", "fig5", 40), ("bandwidth", "fig6", 1498)):
        p = sub.add_parser(name, help=_EXPERIMENTS[name])
        p.add_argument("--config", default="hub")
        p.add_argument("--size", type=int, default=size)
        p.set_defaults(func=_cmd_point, figure=figure)
    ps = sub.add_parser("splitc", help=_EXPERIMENTS["splitc"])
    ps.add_argument("benchmark", help=f"one of {', '.join(_SPLITC_BENCHMARKS)}")
    ps.add_argument("--nodes", type=int, default=4)
    ps.add_argument("--substrate", default="fe-switch", choices=networks.names())
    ps.add_argument("--collectives", default="host", choices=("host", "nic"),
                    help="barrier/broadcast/reduce implementation: host-"
                         "coordinated node-0 scheme or NIC-resident trees")
    ps.add_argument("--keys", type=int, default=2048, help="keys per node (sorts)")
    ps.add_argument("--blocks", type=int, default=4, help="blocks per side (mm)")
    ps.add_argument("--block-size", type=int, default=16, help="block side (mm)")
    ps.add_argument("--prefetch", action="store_true", help="split-phase fetches (mm)")
    ps.add_argument("--stats", action="store_true", help="dump simulation counters")
    ps.set_defaults(func=_cmd_splitc)
    pk = sub.add_parser("soak", help=_EXPERIMENTS["soak"])
    pk.add_argument("--suite", default="chaos", choices=tuple(SUITES),
                    help="chaos soaks the wire; overload soaks the receiver's "
                         "service capacity (incast, sick endpoints); crash "
                         "kills and restarts the receiver mid-stream; "
                         "multitenant churns hundreds of QoS-classed tenants "
                         "through misbehave/crash/recover cycles; transport "
                         "races go-back-N vs SACK vs ECN through bursty loss, "
                         "reordering, and an incast bottleneck; fabric kills "
                         "spines, flaps trunks, partitions and heals Clos "
                         "fabrics under NIC-resident collectives")
    pk.add_argument("--scenario", action="append",
                    help="scenario name (repeatable; default: every scenario of the suite)")
    # every override defaults to None, so the driver can tell "given" from
    # "absent" and refuse the ones the chosen suite does not honour
    pk.add_argument("--mode",
                    help="run each scenario under this one of its modes "
                         "(default: compare, every mode on one seed): chaos "
                         "fixed|adaptive; overload drop|backpressure|quarantine, "
                         "incast drop|drop+credit; transport gbn|sack|ecn")
    pk.add_argument("--messages", type=int,
                    help="override messages per scenario (default: each scenario's own)")
    pk.add_argument("--seed", type=int, help="fault-pattern master seed (default 0xC0FFEE)")
    pk.add_argument("--stats", action="store_true", default=None,
                    help="dump fault-pipeline / per-endpoint telemetry")
    pk.add_argument("--output", metavar="FILE",
                    help="write the suite's JSON artifact here")
    pk.set_defaults(func=_cmd_soak)
    pn = sub.add_parser("bench", help=_EXPERIMENTS["bench"])
    pn.add_argument("--live", action="store_true",
                    help="run on real OS sockets and the wall clock")
    pn.add_argument("--transport", default="auto", choices=("auto", "unix", "udp"),
                    help="live transport (auto prefers AF_UNIX when available)")
    pn.add_argument("--output", metavar="FILE",
                    help="write the schema-validated JSON payload here (default: "
                         "BENCH_live.json or BENCH_collectives.json; '' to skip)")
    pn.add_argument("--rtt-samples", type=int, default=40,
                    help="measured round trips per message size")
    pn.add_argument("--bw-messages", type=int, default=200,
                    help="messages per bandwidth point")
    pn.add_argument("--senders", type=int, default=4,
                    help="incast fan-in (sender count)")
    pn.add_argument("--incast-messages", type=int, default=100,
                    help="messages per incast sender")
    pn.add_argument("--burst-messages", type=int, default=20000,
                    help="messages for the burst fast-path A/B")
    pn.add_argument("--burst-size", type=int, default=256,
                    help="payload bytes for the burst fast-path A/B")
    pn.add_argument("--doorbell", default="busy-poll",
                    choices=("busy-poll", "event", "batched"),
                    help="doorbell discipline for the AM-level phases: "
                         "busy-poll or batched (event is refused: the timed "
                         "phases pump by hand and never park; the burst A/B "
                         "always compares per-syscall vs batched)")
    pn.add_argument("--skip-missing", action="store_true",
                    help="exit 0 (not 2) when no live transport exists here")
    pn.add_argument("--collectives", action="store_true",
                    help="run the deterministic collective-latency sweep "
                         "(host vs NIC trees on fat-tree clusters) instead "
                         "of the live rig")
    pn.add_argument("--host", action="store_true",
                    help="count calls into src/repro and heap entries per op "
                         "on the simulated rows (exact, diffable) and write "
                         "BENCH_host.json")
    pn.add_argument("--nodes", type=int, nargs="+", default=None,
                    help="node counts for --collectives (default 8 32 128 256)")
    pn.add_argument("--compare", nargs=2, metavar=("BASELINE", "CANDIDATE"),
                    default=None,
                    help="diff two BENCH snapshots instead of running: exit 1 "
                         "when a headline metric regresses past --threshold")
    pn.add_argument("--threshold", type=float, default=0.15,
                    help="allowed bad-direction drift fraction for --compare")
    pn.set_defaults(func=_cmd_bench)
    pc = sub.add_parser("conformance", help=_EXPERIMENTS["conformance"])
    pc.add_argument("--seeds", type=int, default=10,
                    help="number of generated cases per config preset")
    pc.add_argument("--seed-base", type=int, default=0, help="first seed of the sweep")
    pc.add_argument("--messages", type=int, default=12, help="workload length per case")
    # conformance.CONFIG_PRESETS and fabric, spelled here so that parsing
    # loads no harness
    pc.add_argument("--config", action="append",
                    choices=("fixed", "adaptive", "credit", "crash",
                             "sack", "ecn", "fabric"),
                    help="config preset (repeatable; default: the six "
                         "AM-level presets; fabric adds the collective-"
                         "healing oracle cases)")
    # conformance.SUBSTRATES, spelled here so that parsing loads no harness
    pc.add_argument("--substrate", action="append",
                    choices=("atm", "ethernet") + tuple(networks.LIVE),
                    help="substrate (repeatable; default: atm + ethernet; "
                         "the live* names run on real sockets)")
    pc.add_argument("--bug", default=None,
                    help="inject a named protocol bug (the harness must catch it)")
    pc.add_argument("--shrink", action="store_true",
                    help="minimize each failing case to its smallest reproducer")
    pc.add_argument("--budget", type=int, default=160,
                    help="max differential runs the shrinker may spend per failure")
    pc.add_argument("--artifact", metavar="FILE", default=None,
                    help="write the shrunk reproducer JSON here")
    pc.add_argument("--replay", metavar="FILE", default=None,
                    help="re-run one saved reproducer instead of sweeping")
    pc.add_argument("--fail-fast", action="store_true",
                    help="stop the sweep at the first divergent case")
    pc.add_argument("--verbose", action="store_true", help="print passing cases too")
    pc.set_defaults(func=_cmd_conformance)
    pr2 = sub.add_parser("report", help=_EXPERIMENTS["report"])
    pr2.add_argument("--keys", type=int, default=512 * 1024)
    pr2.set_defaults(func=_cmd_report)
    sub.add_parser("validate", help=_EXPERIMENTS["validate"]).set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
