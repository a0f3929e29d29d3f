#!/usr/bin/env python3
"""Execution census: which functions of ``src/repro`` no workload enters.

``tests/test_reach.py`` finds code that nothing *mentions*; it matches by
simple name, so a dead ``report`` beside a live one passes it.  This
script finds code that nothing *runs*: it puts a profiling
``sitecustomize`` hook on ``PYTHONPATH`` ahead of the tree's ``src``,
runs every command of :data:`COMMANDS` in the tree (subprocesses inherit
the hook), maps the ``call`` events under ``src/repro`` to each ``def``
found by an AST walk, and prints the functions no command entered,
grouped by module.

Run it on a copy of the tree (perfbench writes ``perfbench/out``, the
soaks and benches their artifacts)::

    git archive HEAD | tar -x -C /tmp/tree
    python scripts/exec_census.py /tmp/tree /tmp/census > never.txt

and ``diff`` two trees' outputs: a function that shows up only after a
change is code the change left without a workload.  Not part of tier-1
or CI; a full run takes tens of minutes.  Not fully profiled: a child
killed by SIGKILL never writes its hits (``live/peer.py::_child_main``
shows as never entered), and a wall-clock run slow enough under the
profiler may fail — the exit code of every command is printed to
stderr, so compare those between trees too.  Code that runs only
inside a ``hostcost.count_calls`` window (``bench --host``, the
host-call pins) stays invisible: the window's own profiler replaces the
hook while it counts, and sets it back after.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shlex
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

_SMALL_LIVE = ("--rtt-samples 50 --bw-messages 200 --incast-messages 50 "
               "--burst-messages 200 --output ''")

#: the workloads, one shell-free command line each, run from the tree's
#: root with ``{py}`` the interpreter and ``{out}`` a scratch directory
COMMANDS = [
    *(f"{{py}} -m repro {name}" for name in (
        "fig3", "fig4", "atm-timeline", "fig5", "fig7", "rtt", "bandwidth",
        "table1", "table2", "validate", "list")),
    "{py} -m repro fig5 --svg {out}/fig5.svg",
    "{py} -m repro fig6 --svg {out}/fig6.svg",
    "{py} -m repro table1 --des",
    *(f"{{py}} -m repro journey --substrate {row}" for row in (
        "fe-hub", "fe-switch", "fe-beowulf", "fe-clos", "atm", "atm-clos")),
    *(f"{{py}} -m repro splitc rsortsm --stats --substrate {row}" for row in (
        "fe-hub", "fe-switch", "fe-beowulf", "fe-clos", "atm", "atm-clos", "mixed")),
    "{py} -m repro splitc rsortsm --substrate atm-clos --collectives nic",
    "{py} -m repro splitc rsortsm --substrate fe-clos --collectives nic",
    *(f"{{py}} -m repro splitc ssortsm --nodes 4 --keys 4096 --substrate {row} "
      "--collectives nic" for row in ("atm-clos", "fe-clos")),
    *(f"{{py}} -m repro splitc {app}" for app in ("rsortlg", "mm")),
    "{py} -m repro splitc ssortsm --keys 4096",
    "{py} -m repro splitc ssortlg --keys 4096",
    "{py} -m repro splitc mm --prefetch",
    "{py} -m repro soak",
    *(f"{{py}} -m repro soak --suite {suite} --output {{out}}/{suite}.json"
      for suite in ("crash", "fabric")),
    "{py} -m repro soak --suite transport --stats --output {out}/transport.json",
    "{py} -m repro soak --suite chaos --stats",
    "{py} -m repro soak --suite overload --stats",
    *(f"{{py}} -m repro soak --suite multitenant --scenario {name}"
      for name in ("churn-fe", "churn-atm", "churn-live")),
    "{py} -m repro soak --suite multitenant --scenario churn-bench --seed 7 "
    "--stats --output {out}/multitenant.json",
    *(f"{{py}} -m repro bench --compare {name} {name}" for name in (
        "BENCH_collectives.json", "BENCH_fabric.json", "BENCH_host.json",
        "BENCH_live.json", "BENCH_multitenant.json", "BENCH_transport.json")),
    "{py} -m repro bench --collectives --output {out}/collectives.json",
    "{py} -m repro bench --host --output {out}/host.json",
    *(f"{{py}} -m repro bench --live --doorbell {mode} {_SMALL_LIVE}"
      for mode in ("busy-poll", "batched")),
    f"{{py}} -m repro bench --live --transport udp {_SMALL_LIVE}",
    "{py} -m repro conformance --seeds 6",
    "{py} -m repro conformance --config fabric --seeds 8",
    *(f"{{py}} -m repro conformance --seeds 6 --bug {bug} --fail-fast" for bug in (
        "credit-gate", "ack-horizon", "epoch-fence", "replay-horizon",
        "sack-bitmap-shift", "ecn-echo-drop")),
    "{py} -m repro conformance --config fabric --seeds 8 --bug heal-reroot --fail-fast",
    "{py} -m repro conformance --seeds 6 --bug credit-gate --shrink "
    "--artifact {out}/shrunk.json",
    "{py} -m repro conformance --replay {out}/shrunk.json",
    *(f"{{py}} -m repro conformance --seeds 6 --substrate atm --substrate {row}"
      for row in ("live", "live-unix", "live-udp", "live-batched", "live-event")),
    "{py} -m pytest -q -p no:cacheprovider --benchmark-disable benchmarks",
    *(f"{{py}} perfbench/run.py --workload {w} --seconds 1 --trace 1 --out {{out}}/pb"
      for w in ("unet-pingpong", "unet-stream", "splitc-apps", "clos-collectives",
                "live-loopback")),
]

#: seconds one command may take before it counts as failed
TIMEOUT_S = 1800.0

#: the hook: on when CENSUS_SRC / CENSUS_OUT are set, it records every
#: Python function entered under CENSUS_SRC and writes the set at exit
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

_src = os.environ.get("CENSUS_SRC")
_out = os.environ.get("CENSUS_OUT")
if _src and _out:
    _seen = {}

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in _seen:
                _seen[id(code)] = code

    def _dump():
        sys.setprofile(None)
        hits = sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                       for c in _seen.values() if c.co_filename.startswith(_src)})
        with open(os.path.join(_out, "hits-%d.json" % os.getpid()), "w") as f:
            json.dump(hits, f)

    atexit.register(_dump)
    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''


def run_commands(tree: Path, out: Path) -> None:
    """Run :data:`COMMANDS` in ``tree`` under the hook; hits land in ``out/hits``."""
    hook, hits = out / "hook", out / "hits"
    hook.mkdir(parents=True, exist_ok=True)
    hits.mkdir(exist_ok=True)
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{src}",
               CENSUS_SRC=str(src / "repro"), CENSUS_OUT=str(hits))
    for line in COMMANDS:
        argv = shlex.split(line.format(py=shlex.quote(sys.executable), out=out))
        start = time.monotonic()
        try:
            code = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        print(f"exit {code} in {time.monotonic() - start:6.1f}s: {line}", file=sys.stderr)


def definitions(package: Path):
    """``(path, first line, name, qualified name)`` of every ``def`` under
    ``package``.  A decorated function's code starts at its first
    decorator, so both lines identify it."""
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    lines = {child.lineno, *(d.lineno for d in child.decorator_list)}
                    yield str(path), lines, child.name, prefix + child.name
                    yield from walk(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + child.name + ".")
                else:
                    yield from walk(child, prefix)

        yield from walk(tree, "")


def never_entered(tree: Path, hits_dir: Path):
    """module -> qualified names of the defs no hit file records."""
    hits = set()
    for path in hits_dir.glob("hits-*.json"):
        hits.update((f, line, name) for f, line, name in json.loads(path.read_text()))
    package = (tree / "src" / "repro").resolve()
    missing = defaultdict(list)
    for path, lines, name, qualname in definitions(package):
        if not any((path, line, name) in hits for line in lines):
            missing[Path(path).relative_to(package.parent).as_posix()].append(qualname)
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="a copy of the repository to run in")
    parser.add_argument("out", type=Path, help="scratch directory for the hook and hits")
    args = parser.parse_args(argv)
    tree, out = args.tree.resolve(), args.out.resolve()
    run_commands(tree, out)
    missing = never_entered(tree, out / "hits")
    total = sum(1 for _ in definitions(tree / "src" / "repro"))
    for module in sorted(missing):
        print(f"{module}:")
        for qualname in missing[module]:
            print(f"  {qualname}")
    print(f"{sum(map(len, missing.values()))} of {total} functions never entered",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
