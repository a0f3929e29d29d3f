"""Determinism audit: the whole stack replays bit-for-bit from a seed.

Every conformance verdict, soak result, and shrunk reproducer relies on
the simulation being a pure function of its seed.  Two layers of
defense: (1) end-to-end audits that run the same seed twice and demand
byte-identical telemetry; (2) a lint pass over ``src/repro`` banning
the ambient-nondeterminism primitives (wall clocks, the module-level
``random`` API) from simulation code — randomness must flow through the
named-stream :class:`~repro.sim.rng.RngRegistry` and time through the
simulator clock.  The same AST walk keeps ``src/repro`` to one idiom for
a plain sleep (``yield delay``, never a directly yielded ``.timeout()``)
and the device packages to one idiom for a blocking sub-step
(``yield from step()``, never a directly yielded ``sim.process(...)``)
and, with the fault stages, one for a single delay nobody waits on
(``sim.call_in``, never a dropped ``sim.process(...)`` of a
one-``yield`` generator); and it holds ``src/repro`` to one JSON
artifact writer and one schema walker (``repro/artifact.py``), the
simulated soaks to no ``repro.live`` import, the fault stages to no
substrate import, and a class's counters to a ``COUNTERS`` declaration
rather than a hand-written method.
"""

import ast
import json
import pathlib

import pytest

import repro

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent


def _telemetry(trace):
    """Canonical byte form of everything a run observably produced."""
    return json.dumps({
        "dispatched": trace.dispatched,
        "replies": trace.replies,
        "rexmit": trace.rexmit,
        "drops": trace.drop_classes,
        "completion": trace.completion_time_us,
        "snapshots": trace.snapshots,
        "events": [(k, sorted(f.items())) for k, f in trace.event_tail],
        "steps": trace.substrate_tail,
    }, sort_keys=True, default=repr).encode()


@pytest.mark.parametrize("substrate", ["atm", "ethernet"])
def test_same_seed_gives_byte_identical_telemetry(substrate):
    from repro.conformance import generate_case, run_substrate

    case = generate_case(13, "credit")
    first = _telemetry(run_substrate(case, substrate))
    second = _telemetry(run_substrate(case, substrate))
    assert first == second


def test_reference_model_is_a_pure_function_of_the_case():
    from repro.conformance import generate_case, run_reference

    case = generate_case(21, "adaptive")
    runs = [run_reference(case) for _ in range(3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_rng_registry_streams_are_stable_and_independent():
    from repro.sim import RngRegistry

    a = RngRegistry(42).stream("conformance.workload")
    b = RngRegistry(42).stream("conformance.workload")
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]
    # drawing from one stream must not perturb a sibling
    reg = RngRegistry(42)
    lhs = reg.stream("faults")
    _ = [reg.stream("workload").random() for _ in range(5)]
    rhs = RngRegistry(42).stream("faults")
    burned = [rhs.random() for _ in range(5)]
    assert [lhs.random() for _ in range(5)] == burned


# ------------------------------------------------------------------ linting
#: (module attribute call) pairs that smuggle ambient nondeterminism
#: into what must be a seed-determined simulation
_BANNED_CALLS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "sleep"),
    ("random", "random"),
    ("random", "randint"),
    ("random", "randrange"),
    ("random", "choice"),
    ("random", "shuffle"),
    ("random", "seed"),
    ("os", "urandom"),
}

#: modules whose import alone signals wall-clock blocking: ``time``
#: obviously, and the readiness-wait APIs (``select``/``selectors``),
#: which park the process until real I/O happens
_BLOCKING_MODULES = {"time", "select", "selectors"}

#: Per-package determinism boundaries.  Key: top-level subpackage of
#: ``repro`` (``""`` for modules directly under it).  Value: the only
#: files in that package allowed to touch the ambient primitives — the
#: named seams behind which real time/randomness is confined.  The
#: live substrate runs on the wall clock by design, but every live
#: module except its Clock seam (and the event-doorbell seam, which
#: exists to block on socket readiness) must still receive time via
#: injection, or conformance cases could never run against a
#: ManualClock.
DETERMINISM_BOUNDARIES = {
    "live": {"clock.py", "doorbell.py"},
}


def _package_of(rel: pathlib.PurePath) -> str:
    return rel.parts[0] if len(rel.parts) > 1 else ""


def _is_boundary_module(path: pathlib.Path) -> bool:
    rel = path.relative_to(SRC_ROOT)
    allowed = DETERMINISM_BOUNDARIES.get(_package_of(rel), ())
    return str(pathlib.PurePath(*rel.parts[1:])) in allowed


def _banned_calls_in(path: pathlib.Path, source=None):
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                and (fn.value.id, fn.attr) in _BANNED_CALLS):
            yield f"{path.name}:{node.lineno}: {fn.value.id}.{fn.attr}()"


def _blocking_imports_in(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _BLOCKING_MODULES:
                    yield f"{path.name}:{node.lineno}: import {alias.name}"
        elif (isinstance(node, ast.ImportFrom)
                and node.module in _BLOCKING_MODULES):
            yield f"{path.name}:{node.lineno}: from {node.module} import ..."


def test_no_ambient_nondeterminism_outside_declared_boundaries():
    """``time.*()`` / module-level ``random.*()`` are banned in
    ``src/repro`` except in the per-package boundary modules declared
    above: anywhere else they would make soak verdicts and conformance
    artifacts unreplayable.  Seeded ``random.Random(...)`` instances,
    the RngRegistry, and injected Clock objects are the sanctioned
    sources."""
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if _is_boundary_module(path):
            continue
        rel = path.relative_to(SRC_ROOT)
        offenders.extend(f"{rel.parent / o}" for o in _banned_calls_in(path))
    assert not offenders, (
        "ambient nondeterminism outside a declared boundary (route "
        "randomness through RngRegistry, time through a Clock seam, or "
        "declare a boundary module in DETERMINISM_BOUNDARIES):\n  "
        + "\n  ".join(offenders))


def test_lint_catches_a_planted_offender():
    """The positive direction: the AST walk actually flags the ambient
    primitives (a lint that cannot fail proves nothing)."""
    planted = (
        "import time, random\n"
        "def f():\n"
        "    t = time.monotonic()\n"
        "    return t + random.random()\n"
    )
    hits = list(_banned_calls_in(pathlib.Path("planted.py"), source=planted))
    assert any("time.monotonic" in h for h in hits)
    assert any("random.random" in h for h in hits)


def test_boundary_allowlist_is_exact():
    """Every declared boundary module must exist and must actually use
    an ambient primitive — a banned call or a blocking-module import —
    or a stale entry becomes a blanket exemption waiting to hide a real
    offender."""
    for package, names in DETERMINISM_BOUNDARIES.items():
        for name in sorted(names):
            path = SRC_ROOT / package / name
            assert path.is_file(), f"stale boundary entry: {package}/{name}"
            assert (list(_banned_calls_in(path))
                    or list(_blocking_imports_in(path))), (
                f"boundary module {package}/{name} no longer touches any "
                f"ambient primitive; drop it from DETERMINISM_BOUNDARIES")


def test_wall_time_is_confined_to_boundary_modules():
    """No module outside a boundary may even import ``time`` or the
    readiness-wait APIs (``select``/``selectors``): the live substrate
    gets its notion of time through an injected Clock — which is what
    lets conformance drive LiveAm with a ManualClock in tests — and
    blocks on real I/O only inside the declared doorbell seam."""
    importers = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if _is_boundary_module(path):
            continue
        rel = path.relative_to(SRC_ROOT)
        importers.extend(f"{rel.parent / hit}"
                         for hit in _blocking_imports_in(path))
    assert not importers, (
        "wall time or readiness-wait imported outside a declared "
        "boundary module:\n  " + "\n  ".join(importers))


# ------------------------------------------------------- one idiom for a sleep
def _directly_yielded_timeouts_in(path: pathlib.Path, source=None):
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        call = node.value if isinstance(node, ast.Yield) else None
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "timeout"):
            yield f"{path.name}:{node.lineno}: yield ....timeout(...)"


def test_a_plain_sleep_is_a_yielded_delay():
    """``yield sim.timeout(d)`` builds an Event only to wait on it at
    once; ``yield d`` is the same wait (same heap entry, same order) with
    no object, and ``src/repro`` uses that one idiom.  A timeout that is
    stored, combined with ``any_of`` or returned stays legal."""
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT)
        offenders.extend(f"{rel.parent / o}"
                         for o in _directly_yielded_timeouts_in(path))
    assert not offenders, (
        "directly yielded timeout (write `yield delay`):\n  "
        + "\n  ".join(offenders))


def test_sleep_lint_catches_a_planted_offender_and_spares_stored_timeouts():
    planted = (
        "def f(self, sim):\n"
        "    yield self.sim.timeout(\n"
        "        self.gap_us)\n"
        "    finish = sim.timeout(3.0)\n"
        "    yield sim.any_of([finish, sim.timeout(9.0)])\n"
        "    yield finish\n"
        "    yield 2.0\n"
        "    return sim.timeout(0.0)\n"
    )
    hits = list(_directly_yielded_timeouts_in(pathlib.Path("planted.py"),
                                              source=planted))
    assert hits == ["planted.py:2: yield ....timeout(...)"]


# ------------------------------- a sub-step is a sub-generator, not a Process
#: Device packages whose per-cell / per-frame paths the rule covers.
SUBSTEP_LINT_PACKAGES = ("hw", "atm", "ethernet", "core")

#: ``"file.py:function"`` -> the one-line reason its nested process is
#: load-bearing (it must be interruptible on its own, or waited on by
#: more than its caller).  Empty since PR 15: every former site — the
#: three DMA transfers, the wire transmit, the interrupt handler, the
#: router's egress — blocks only its caller and is entered with
#: ``yield from``.
NESTED_PROCESS_ALLOWLIST = {}


def _yielded_nested_processes_in(path: pathlib.Path, source=None):
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            call = node.value if isinstance(node, ast.Yield) else None
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "process"):
                yield f"{path.name}:{fn.name}"


def test_a_blocking_sub_step_is_entered_with_yield_from():
    """``yield sim.process(step())`` makes a Process, a wake record and a
    completion Event, and three heap entries, only to block the caller
    until ``step()`` is done; ``yield from step()`` is the same wait on
    the caller's own frame.  ``sim.process(...)`` is for concurrency: a
    frame handler that overlaps the next frame, a firmware loop."""
    offenders = []
    for package in SUBSTEP_LINT_PACKAGES:
        for path in sorted((SRC_ROOT / package).rglob("*.py")):
            offenders.extend(f"{package}/{site}"
                             for site in _yielded_nested_processes_in(path)
                             if site not in NESTED_PROCESS_ALLOWLIST)
    assert not offenders, (
        "sub-step run as a nested Process (write `yield from step()`, or "
        "allowlist it with a reason):\n  " + "\n  ".join(offenders))
    assert all(reason.strip() for reason in NESTED_PROCESS_ALLOWLIST.values())


def test_sub_step_lint_catches_a_planted_offender_and_spares_concurrency():
    planted = (
        "class Nic:\n"
        "    def _tx(self, sim):\n"
        "        yield self.sim.process(\n"
        "            self.dma.transfer(64))\n"
        "        yield sim.process(self.wire(frame), name='w')\n"
        "    def _ok(self, sim):\n"
        "        yield from self.dma.transfer(64)\n"
        "        self.sim.process(self._rx_frame(frame))\n"
        "        handler = sim.process(self.handler())\n"
        "        yield sim.any_of([handler, sim.timeout(9.0)])\n"
        "        yield 2.0\n"
    )
    hits = list(_yielded_nested_processes_in(pathlib.Path("planted.py"),
                                             source=planted))
    assert hits == ["planted.py:_tx", "planted.py:_tx"]


# --------------------------- one delay and no waiter is a call_in, not a Process
#: ``"file.py:generator"`` -> why it must stay a process although it
#: sleeps once and nobody waits on it.  Empty: the device packages'
#: sites (``Dc21140._rx_collective`` and ``_tx_collective``) and the
#: fault layer's (a pipeline's delayed delivery, a slow receiver's
#: deferred recycle) became callbacks.
FIRE_AND_FORGET_ALLOWLIST = {}
#: the device packages, whose paths run per cell and per frame, and the
#: fault stages interposed on those paths
FIRE_AND_FORGET_PACKAGES = SUBSTEP_LINT_PACKAGES + ("faults",)


def _single_delay_generators(tree):
    """Generator functions that sleep once — one yielded non-call outside
    any loop — and otherwise at most ``yield store.put(...)``."""
    names = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        if any(isinstance(n, (ast.YieldFrom, ast.For, ast.While)) for n in nodes):
            continue
        yields = [n.value for n in nodes if isinstance(n, ast.Yield)]
        delays = [v for v in yields if not isinstance(v, ast.Call)]
        puts = [v for v in yields if isinstance(v, ast.Call)
                and isinstance(v.func, ast.Attribute) and v.func.attr == "put"]
        if len(delays) == 1 and len(delays) + len(puts) == len(yields):
            names.add(fn.name)
    return names


def _fire_and_forget_single_delays_in(path: pathlib.Path, source=None):
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    single = _single_delay_generators(tree)
    for node in ast.walk(tree):
        # an expression statement: the Process is dropped, so nobody waits on it
        call = node.value if isinstance(node, ast.Expr) else None
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "process" and call.args):
            continue
        started = call.args[0]
        if (isinstance(started, ast.Call) and isinstance(started.func, ast.Attribute)
                and started.func.attr in single):
            yield f"{path.name}:{started.func.attr}"


def test_a_single_delay_fire_and_forget_is_a_call_in():
    """``sim.process(self.step(x))`` dropped on the floor, where ``step``
    is ``yield delay`` and then plain code, is a start entry, the delay
    and a completion event — three heap entries and a generator for one
    modelled delay.  ``sim.call_in(delay, self.step_done, x)`` is the one
    entry; a trailing ``yield store.put(...)`` becomes ``try_put`` with
    the blocking ``put`` (unyielded: the store queues it) only when the
    store is full."""
    offenders = []
    for package in FIRE_AND_FORGET_PACKAGES:
        for path in sorted((SRC_ROOT / package).rglob("*.py")):
            offenders.extend(f"{package}/{site}"
                             for site in _fire_and_forget_single_delays_in(path)
                             if site not in FIRE_AND_FORGET_ALLOWLIST)
    assert not offenders, (
        "single-delay process nobody waits on (write `sim.call_in(delay, "
        "fn, ...)`, or allowlist it with a reason):\n  " + "\n  ".join(offenders))
    assert all(reason.strip() for reason in FIRE_AND_FORGET_ALLOWLIST.values())


def test_fire_and_forget_lint_catches_planted_offenders_and_spares_real_processes():
    planted = (
        "class Nic:\n"
        "    def _on_frame(self, frame):\n"
        "        self.sim.process(self._rx_collective(frame), name='collrx')\n"
        "        self.sim.process(self._tx_collective(frame))\n"
        "        self.sim.process(self._rx_frame(frame))\n"
        "        self.sim.process(self._ticker())\n"
        "        self.sim.process(self._two_waits())\n"
        "        waited = self.sim.process(self._rx_collective(frame))\n"
        "        return waited\n"
        "    def _rx_collective(self, frame):\n"
        "        yield self.timings.collective_op_us\n"
        "        self.collective_rx(frame.payload)\n"
        "    def _tx_collective(self, frame):\n"
        "        yield 2.0\n"
        "        yield self._tx_fifo.put(frame)\n"
        "    def _rx_frame(self, frame):\n"
        "        yield self.timings.rx_dma_start_us\n"
        "        yield from self.dma.transfer(64)\n"
        "    def _ticker(self):\n"
        "        while True:\n"
        "            yield self.period_us\n"
        "    def _two_waits(self):\n"
        "        yield 1.0\n"
        "        yield self.done_event()\n"
    )
    hits = list(_fire_and_forget_single_delays_in(pathlib.Path("planted.py"),
                                                  source=planted))
    assert hits == ["planted.py:_rx_collective", "planted.py:_tx_collective"]
    # the other direction: the same generators, waited on or looping, pass
    spared = planted.replace("        self.sim.process(self._rx_collective(frame), name='collrx')\n", "")
    spared = spared.replace("        self.sim.process(self._tx_collective(frame))\n", "")
    assert not list(_fire_and_forget_single_delays_in(pathlib.Path("planted.py"),
                                                      source=spared))


# ------------------------------------------- one AM protocol core, two drivers
#: The only method names the simulated and the live Active Message driver
#: may *both* define: the public API and the hook set through which
#: ``am/core.py`` reaches its driver.  Everything else the two substrates
#: share lives once, in the core — a name showing up on both drivers
#: outside this list is a transport feature being written twice.
DRIVER_MIRROR_ALLOWLIST = {
    # public API (blocking generator vs. polled call)
    "__init__", "request", "rpc",
    # the hand-off to U-Net (``yield from user.send`` vs. busy-retry)
    "_transmit", "_send_reply",
    # the core's hooks
    "_now", "_new_peer", "_send_now", "_retransmit_now", "_start_hello",
    "_credit_opened", "_rpc_complete", "_rpc_fail",
}


def _methods_of(source: str, class_name: str) -> set:
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    raise AssertionError(f"class {class_name} not found")


def _mirrored(sim_source: str, live_source: str, sim_class: str = "AmEndpoint",
              live_class: str = "LiveAm", allowlist=None) -> set:
    """Method names both classes define, outside the allowlist."""
    both = (_methods_of(sim_source, sim_class)
            & _methods_of(live_source, live_class))
    return both - (DRIVER_MIRROR_ALLOWLIST if allowlist is None else allowlist)


def test_am_drivers_share_only_the_hook_set():
    sim_source = (SRC_ROOT / "am" / "am.py").read_text(encoding="utf-8")
    live_source = (SRC_ROOT / "live" / "am.py").read_text(encoding="utf-8")
    assert len(DRIVER_MIRROR_ALLOWLIST) <= 15
    assert not _mirrored(sim_source, live_source), (
        "defined on both AmEndpoint and LiveAm — move the shared logic "
        "into am/core.py (or, for a new hook, extend the allowlist): "
        f"{sorted(_mirrored(sim_source, live_source))}")
    # no stale entries: each allowlisted name is still a driver's
    defined = (_methods_of(sim_source, "AmEndpoint")
               | _methods_of(live_source, "LiveAm"))
    assert DRIVER_MIRROR_ALLOWLIST <= defined


def test_mirror_lint_catches_a_planted_twin_and_spares_the_hooks():
    sim = ("class AmEndpoint:\n"
           "    def request(self): pass\n"
           "    def _process_ack(self, peer, ack): pass\n"
           "    def _dispatch_loop(self): pass\n")
    live = ("class LiveAm:\n"
            "    def request(self): pass\n"
            "    def _process_ack(self, peer, ack): pass\n"
            "    def service(self): pass\n")
    assert _mirrored(sim, live) == {"_process_ack"}
    assert not _mirrored(sim, live.replace("_process_ack", "_run_timers"))


# ------------------------------- one U-Net contract, three substrates
#: The only method names the simulated and the live application-side
#: endpoint may both define: what *blocks* (a generator the simulator
#: schedules vs. a polled call).  Everything that never waits lives
#: once, on ``core/api.py::UserEndpointBase``.
ENDPOINT_MIRROR_ALLOWLIST = {
    "__init__", "send", "kick", "_compose_buffers", "_alloc_tx_buffer",
}
#: what ``core/base.py::UNetBackend`` owns: no substrate re-spells the
#: endpoint lifecycle or the drop vocabulary
BACKEND_OWNED = {"create_endpoint", "destroy_endpoint", "drop_stats"}


def test_user_endpoints_share_only_what_blocks():
    sim_source = (SRC_ROOT / "core" / "api.py").read_text(encoding="utf-8")
    live_source = (SRC_ROOT / "live" / "backend.py").read_text(encoding="utf-8")
    mirrored = _mirrored(sim_source, live_source, "UserEndpoint",
                         "LiveUserEndpoint", ENDPOINT_MIRROR_ALLOWLIST)
    assert not mirrored, (
        "defined on both UserEndpoint and LiveUserEndpoint — if it never "
        f"waits it belongs on UserEndpointBase: {sorted(mirrored)}")
    assert ENDPOINT_MIRROR_ALLOWLIST <= (
        _methods_of(sim_source, "UserEndpoint")
        & _methods_of(live_source, "LiveUserEndpoint"))  # no stale entries


def _is_backend_subclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        ast.unparse(base).endswith("Backend") for base in node.bases)


def _backend_respellings_in(path: pathlib.Path, source=None):
    """``Class.method`` for every backend subclass that defines a method
    ``UNetBackend`` owns."""
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for node in filter(_is_backend_subclass, tree.body):
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name in BACKEND_OWNED:
                yield f"{node.name}.{item.name}"


def test_no_backend_respells_what_the_contract_owns():
    sources = sorted(SRC_ROOT.rglob("*.py"))
    offenders = [hit for path in sources for hit in _backend_respellings_in(path)]
    assert not offenders, (
        "inherit it from core/base.py::UNetBackend (a substrate that must "
        f"differ gets a hook there, not a copy): {offenders}")
    # the lint sees all three substrates' backends, LiveBackend included
    seen = {node.name for path in sources
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if _is_backend_subclass(node)}
    assert {"UNetAtmBackend", "UNetFeBackend", "LiveBackend"} <= seen


def test_contract_lints_catch_planted_offenders_and_spare_the_rest():
    sim = ("class UserEndpoint(UserEndpointBase):\n"
           "    def send(self): pass\n"
           "    def poll(self): pass\n"
           "    def recv(self): pass\n")
    live = ("class LiveUserEndpoint(UserEndpointBase):\n"
            "    def send(self): pass\n"
            "    def poll(self): pass\n"
            "    def send_burst(self): pass\n")
    args = ("UserEndpoint", "LiveUserEndpoint", ENDPOINT_MIRROR_ALLOWLIST)
    assert _mirrored(sim, live, *args) == {"poll"}
    assert not _mirrored(sim, live.replace("def poll", "def poll_many"), *args)
    planted = ("class UNetBackend(abc.ABC):\n"
               "    def drop_stats(self): pass\n"
               "class GigabitBackend(UNetBackend):\n"
               "    def kick(self, endpoint): pass\n"
               "    def drop_stats(self): pass\n"
               "class BondedBackend(base.GigabitBackend):\n"
               "    def destroy_endpoint(self, endpoint): pass\n")
    path = pathlib.Path("planted.py")
    assert list(_backend_respellings_in(path, source=planted)) == [
        "GigabitBackend.drop_stats", "BondedBackend.destroy_endpoint"]
    spared = planted.replace("    def drop_stats(self): pass\nclass Bonded", "class Bonded")
    spared = spared.replace("destroy_endpoint", "attach_rails")
    assert not list(_backend_respellings_in(path, source=spared))


#: what ``am/core.py`` may never import: it is the sans-I/O half, so no
#: wall time, no sockets, no simulator
_CORE_FORBIDDEN_MODULES = _BLOCKING_MODULES | {"socket", "threading", "asyncio"}


def _io_imports_in(path: pathlib.Path, source=None):
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] in _CORE_FORBIDDEN_MODULES or "sim" in parts or "live" in parts:
                yield f"{path.name}:{node.lineno}: {name}"


def test_the_am_core_is_free_of_io():
    """The core sits inside the ``am`` determinism boundary (the ambient
    bans above already cover it) and additionally may not reach a
    simulator, a socket or the live package: drivers bring those."""
    core = SRC_ROOT / "am" / "core.py"
    assert not list(_io_imports_in(core))
    assert "am" not in DETERMINISM_BOUNDARIES
    planted = ("import socket\nfrom ..sim import Simulator\n"
               "from ..live.clock import WallClock\nimport random\n")
    hits = list(_io_imports_in(pathlib.Path("planted.py"), source=planted))
    assert [h.split(": ")[1] for h in hits] == ["socket", "sim", "live.clock"]


# ------------------------------------------- one artifact writer, one walker
def _json_dumps_to_file_in(path: pathlib.Path, source=None):
    """``json.dump(...)`` calls: each one is a private artifact writer."""
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dump"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"):
            yield f"{path.name}:{node.lineno}: json.dump()"


def _schema_walkers_in(path: pathlib.Path, source=None):
    """Functions shaped like a schema validator: they take a ``spec`` to
    check a value against and an ``errors`` list to report into."""
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = {a.arg for a in node.args.args + node.args.kwonlyargs}
            if {"spec", "errors"} <= params:
                yield f"{path.name}:{node.lineno}: {node.name}()"


def test_one_artifact_writer_and_one_schema_walker():
    """Every JSON artifact is written and validated by ``repro.artifact``:
    a second ``json.dump`` is a writer that skips the schema check, a
    second walker is a validator free to drift from the first (four had,
    before they were merged)."""
    dumps, walkers = [], []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT)
        dumps.extend(f"{rel.parent / hit}" for hit in _json_dumps_to_file_in(path))
        walkers.extend(f"{rel.parent / hit}" for hit in _schema_walkers_in(path))
    assert [d.split(":")[0] for d in dumps] == ["artifact.py"], dumps
    assert [w.split(":")[0] for w in walkers] == ["artifact.py"], walkers


def test_artifact_lint_catches_planted_offenders_and_spares_readers():
    planted = (
        "import json\n"
        "def write_report(path, payload):\n"
        "    with open(path, 'w') as fh:\n"
        "        json.dump(payload, fh, indent=2)\n"
        "def _walk(value, spec, path, errors):\n"
        "    pass\n"
        "def load(path):\n"
        "    return json.load(open(path)), json.dumps({})\n"
        "def check(value, errors):\n"
        "    pass\n"
    )
    here = pathlib.Path("planted.py")
    assert [h.split(": ")[1] for h in _json_dumps_to_file_in(here, source=planted)] \
        == ["json.dump()"]
    assert [h.split(": ")[1] for h in _schema_walkers_in(here, source=planted)] \
        == ["_walk()"]


#: soak modules that run entirely inside the simulator: the driver times
#: them, so nothing in them may reach for the live package (wall clock)
_SIMULATED_SOAKS = ("soak.py", "overload.py", "transport.py", "fabricsoak.py",
                    "stream.py")


def _imports_from(path: pathlib.Path, packages, source=None):
    """Every import, function-local ones included, naming one of
    ``packages`` anywhere in its dotted module path."""
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if set(name.split(".")) & set(packages):
                yield f"{path.name}:{node.lineno}: {name}"


def test_simulated_soaks_import_nothing_from_the_live_package():
    for name in _SIMULATED_SOAKS:
        path = SRC_ROOT / "faults" / name
        assert path.is_file(), f"stale entry: faults/{name}"
        assert not list(_imports_from(path, {"live"})), name
    planted = ("def run():\n"
               "    from ..live.clock import WallClock\n"
               "    import repro.live\n"
               "    from ..sim import Simulator\n"
               "    from .delivery import check\n")
    hits = list(_imports_from(pathlib.Path("planted.py"), {"live"}, source=planted))
    assert [h.split(": ")[1] for h in hits] == ["live.clock", "repro.live"]


#: the fault stages: all they know of a wire format is the backend's
#: ``wire`` record, declared beside the substrate's PDU type
_FAULT_STAGES = ("perturb.py", "inject.py", "scripted.py", "crash.py", "receiver.py")
_SUBSTRATES = {"atm", "ethernet", "live"}


def test_fault_stages_import_no_substrate():
    """One place knows each wire format: the substrate.  A fault stage
    that imports ``Cell`` or ``EthernetFrame`` is a branch per substrate
    creeping back into the fault layer."""
    for name in _FAULT_STAGES:
        path = SRC_ROOT / "faults" / name
        assert path.is_file(), f"stale entry: faults/{name}"
        assert not list(_imports_from(path, _SUBSTRATES)), (
            f"faults/{name} imports a substrate: "
            f"{list(_imports_from(path, _SUBSTRATES))}")


def test_substrate_import_lint_catches_planted_imports_and_spares_the_rest():
    planted = ("from ..am.protocol import mark_ce\n"
               "from .perturb import Emit\n"
               "def forge(backend, rng):\n"
               "    from ..atm.cells import Cell\n"
               "    import repro.ethernet.frames\n"
               "    from ..sim.rng import RngRegistry\n"
               "from repro.live import LiveBackend\n")
    here = pathlib.Path("planted.py")
    hits = list(_imports_from(here, _SUBSTRATES, source=planted))
    assert sorted(h.split(": ")[1] for h in hits) == [
        "atm.cells", "repro.ethernet.frames", "repro.live"]
    spared = "\n".join(line for line in planted.splitlines()
                       if not any(package in line for package in _SUBSTRATES))
    assert not list(_imports_from(here, _SUBSTRATES, source=spared))


# ------------------------------------------- counters declared, not written
#: method names that build a counter dict by hand
_COUNTER_METHODS = {"counters", "stats", "telemetry", "snapshot", "drop_stats"}
#: the shared bodies that stay, each read by callers outside ``src/repro``
#: (the frozen perfbench, the conformance checker, the soak reports)
COUNTER_METHOD_ALLOWLIST = {"AmCore.snapshot", "PerturbationPipeline.stats"}


def _counter_methods_in(path: pathlib.Path, source=None):
    """``Class.method`` for every class that writes a counter method body."""
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name in _COUNTER_METHODS):
                    yield f"{node.name}.{item.name}"


def test_counters_are_declared_not_written():
    """A class names what it counts in ``COUNTERS`` and ``repro.telemetry``
    reads it; a hand-written ``counters()`` / ``stats()`` / ``telemetry()``
    is a private dict under private names, which is what the registry
    replaced (31 of them)."""
    found = [hit for path in sorted(SRC_ROOT.rglob("*.py"))
             for hit in _counter_methods_in(path)]
    assert set(found) == COUNTER_METHOD_ALLOWLIST, (
        "declare the counters (COUNTERS = (...)) instead of writing a "
        f"method: {sorted(set(found) - COUNTER_METHOD_ALLOWLIST)}")


def test_counter_lint_catches_a_planted_method_and_spares_declarations():
    planted = ("class Switch:\n"
               "    COUNTERS = ('forwarded',)\n"
               "    def counters(self):\n"
               "        return {'forwarded': self.forwarded}\n"
               "class Pool:\n"
               "    def stats(self):\n"
               "        return {}\n"
               "    def free(self, slot): pass\n"
               "def stats(layer):\n"
               "    return {}\n"
               "class Endpoint:\n"
               "    drop_stats = stats\n")
    here = pathlib.Path("planted.py")
    assert list(_counter_methods_in(here, source=planted)) == [
        "Switch.counters", "Pool.stats"]
    spared = planted.replace("def counters", "def forward").replace(
        "def stats(self)", "def take(self)")
    assert not list(_counter_methods_in(here, source=spared))


# ---------------------------------------------------------- one serialiser
#: the one class that serialises units onto a wire (``repro.hw.bus``)
SERIALISERS = {"Link"}


def _busy_until_classes_in(path: pathlib.Path, source=None):
    """Every class whose methods touch a ``_busy_until`` attribute: a
    private busy-until clock, i.e. a second wire model."""
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(inner, ast.Attribute) and inner.attr == "_busy_until"
                for inner in ast.walk(node)):
            yield node.name


def test_one_class_keeps_a_busy_until_clock():
    """Both NICs sit on one kind of wire, and one ``Link`` models it; a
    class that keeps its own ``_busy_until`` is a second link model."""
    found = {name for path in sorted(SRC_ROOT.rglob("*.py"))
             for name in _busy_until_classes_in(path)}
    assert found == SERIALISERS, (
        f"serialise through repro.hw.bus.Link instead: {sorted(found - SERIALISERS)}")


def test_serialiser_lint_catches_a_planted_clock_and_spares_the_rest():
    planted = ("class CellPipe:\n"
               "    def submit(self, cell):\n"
               "        start = max(self._busy_until, self.sim.now)\n"
               "class Switch:\n"
               "    def on_cell(self, cell):\n"
               "        self.ports[0].submit(cell)\n")
    here = pathlib.Path("planted.py")
    assert list(_busy_until_classes_in(here, source=planted)) == ["CellPipe"]
    spared = planted.replace("self._busy_until", "self.busy_until")
    assert not list(_busy_until_classes_in(here, source=spared))


# ------------------------------------------------ one class fails a trunk
#: the one class that takes a link down: both fabrics' ``set_trunk_state``
TRUNK_SWITCHERS = {"TrunkedFabric"}


def _up_assigners_in(path: pathlib.Path, source=None):
    """Every class (``<module>`` for a plain function) with a function
    that assigns a link's ``up``, ``Link.__init__`` apart: a second place
    where a trunk fails."""
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    functions = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [(node.name, fn) for fn in node.body if isinstance(fn, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            functions.append(("<module>", node))
    for owner, function in functions:
        if (owner, function.name) == ("Link", "__init__"):
            continue
        if any(isinstance(inner, ast.Attribute) and inner.attr == "up"
               for node in ast.walk(function)
               if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
               for target in getattr(node, "targets", None) or [node.target]
               for inner in ast.walk(target)):
            yield owner


def test_one_class_fails_a_trunk():
    """A trunk goes down in ``TrunkedFabric.set_trunk_state``, which
    fails both directions together and hands the change to the fabric's
    signaling plane; a class that flips ``up`` itself is a second one."""
    found = {name for path in sorted(SRC_ROOT.rglob("*.py"))
             for name in _up_assigners_in(path)}
    assert found == TRUNK_SWITCHERS, (
        f"fail trunks through TrunkedFabric.set_trunk_state instead: "
        f"{sorted(found - TRUNK_SWITCHERS)}")


def test_trunk_lint_catches_a_planted_flip_and_spares_the_rest():
    planted = ("class Link:\n"
               "    def __init__(self):\n"
               "        self.up = True\n"
               "class TrunkedFabric:\n"
               "    def set_trunk_state(self, a, b, up):\n"
               "        self._links[(a, b)].up = self._links[(b, a)].up = up\n"
               "class ClosFabric(TrunkedFabric):\n"
               "    def cut(self, a, b):\n"
               "        self._links[(a, b)].up = False\n"
               "def yank(link):\n"
               "    link.up: bool = False\n")
    here = pathlib.Path("planted.py")
    assert sorted(_up_assigners_in(here, source=planted)) == [
        "<module>", "ClosFabric", "TrunkedFabric"]
    spared = planted.replace("].up = False", "].down = True").replace(
        "link.up:", "link.down:")
    assert list(_up_assigners_in(here, source=spared)) == ["TrunkedFabric"]


# ------------------------------------------ one event stream, no hook slots
def _observer_assignments_in(path: pathlib.Path, source=None):
    """Every assignment to an ``observer`` attribute: a single-slot hook
    beside the NI's event stream (``backend.trace``)."""
    tree = ast.parse(source if source is not None
                     else path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(inner, ast.Attribute) and inner.attr == "observer"
               for target in targets for inner in ast.walk(target)):
            yield f"{path.name}:{node.lineno}"


def test_every_layer_reports_through_the_stream():
    """Whatever a layer does is a record on its host's ``backend.trace``
    and a consumer subscribes; an ``observer`` slot is a second,
    single-consumer channel beside it."""
    offenders = [f"{path.relative_to(SRC_ROOT).parent / hit}"
                 for path in sorted(SRC_ROOT.rglob("*.py"))
                 for hit in _observer_assignments_in(path)]
    assert not offenders, (
        "assigns an observer attribute (record onto backend.trace and "
        f"subscribe instead): {offenders}")


def test_observer_lint_catches_planted_hooks_and_spares_subscriptions():
    planted = ("class Am:\n"
               "    def __init__(self):\n"
               "        self.observer: object = None\n"
               "def wire(am, probe, demux):\n"
               "    am.observer = probe.on_am\n"
               "    demux.trace, demux.observer = am.trace, probe.on_tag\n"
               "    am.trace.subscribe(probe.on_record)\n"
               "    observer = probe.on_record\n"
               "    return am.observer\n")
    here = pathlib.Path("planted.py")
    assert sorted(_observer_assignments_in(here, source=planted)) == [
        "planted.py:3", "planted.py:5", "planted.py:6"]
    spared = planted.replace(".observer", ".on_event")
    assert not list(_observer_assignments_in(here, source=spared))
