"""Tier-1 wide leak check: what a test closes must really be closed.

One autouse fixture watches every test:

* every :class:`~repro.sim.Simulator` the test **closed** (directly, or
  through a network's / ``Cluster``'s ``close()`` or ``with``) must end
  with no live process, no heap and no armed :class:`~repro.sim.Lane`
  (calls held behind a lane's head are in flight where the heap does not
  show them) — the kernel's half — and, on every network built on it, no
  mapped buffer area, no bound channel, no demux row and no open VC.
  Armed timers are processes, heap entries or lane calls here, so the
  first three cover them;
* a test that ends with more open socket FDs than it started with fails;
* a simulator the test built and **never closed** is a finding too,
  unless the test's module is on :data:`NEVER_CLOSES` with its reason.
  The list starts non-empty — most of the suite predates ``close()`` —
  and is meant to shrink.

``pyproject.toml`` turns ``ResourceWarning`` into an error for the same
run, so a socket or map dropped without ``close()`` fails the test that
dropped it.
"""

import contextlib
import gc
import os
import stat
import weakref

import pytest

from repro.analysis.microbench import two_host_rig
from repro.atm.fabric import AtmFabric
from repro.ethernet.bonding import BeowulfNetwork
from repro.ethernet.network import _FeNetworkBase
from repro.fabric.mixed import MixedFabric
from repro.sim import Lane, Simulator

_BARE_KERNEL = ("drives the kernel or one device model on a bare Simulator: no network "
                "to close, and the toy processes it parks are the test's own")
_RIG_BY_HAND = ("builds a two-host rig through a module helper that hands back endpoints, "
                "not the network: closing it is a helper rewrite, one module at a time")
_AM_BY_HAND = ("wires AmEndpoints onto a hand-built network and inspects their private "
               "state after the run; the rig helper returns no network to close")
_MANY_RIGS = ("a property or fuzz test building one rig per example inside the test body; "
              "to be wrapped in ``with`` when the strategies are next touched")
_FABRIC_BY_HAND = ("builds fabrics and collective engines by hand to reach trunk links and "
                   "engine internals; needs a fixture that owns the fabric")

#: test modules (paths under ``tests/``) whose tests build simulators and
#: leave them to the garbage collector, each with why that is still so
NEVER_CLOSES = {
    **dict.fromkeys((
        "sim/test_bare_delay.py", "sim/test_engine.py", "sim/test_events_edge.py",
        "sim/test_properties.py", "sim/test_queues.py", "sim/test_store_machine.py",
        "hw/test_bus_memory_interrupts.py", "atm/test_phy_switch.py",
        "ethernet/test_medium.py", "ethernet/test_switch_nic.py",
        "ethernet/test_collision_limits.py", "ethernet/test_learning_switch.py",
        "core/test_descriptors_endpoint.py", "core/test_sharded_demux.py",
        "core/test_health.py", "core/test_tenancy.py", "core/test_cluster_health.py",
    ), _BARE_KERNEL),
    **dict.fromkeys((
        "atm/test_unet_atm.py", "atm/test_signaling.py", "atm/test_vc_interleaving.py",
        "ethernet/test_bonding.py", "ethernet/test_deferred_service.py",
    ), _RIG_BY_HAND),
    **dict.fromkeys((
        "am/test_am.py", "am/test_credit.py",
        "apps/test_matmul_prefetch.py",
    ), _AM_BY_HAND),
    "integration/test_am_loss_properties.py": _MANY_RIGS,
    **dict.fromkeys((
        "atm/test_fabric.py", "fabric/test_clos_fabrics.py", "fabric/test_fault_tolerance.py",
        "collectives/test_engine.py", "collectives/test_healing.py",
    ), _FABRIC_BY_HAND),
    "analysis/test_analysis.py": "measures on FIGURE5/6_CONFIGS rigs the way the frozen "
                                 "perfbench workloads do: built, measured, dropped unclosed",
    "integration/test_determinism.py": "same: repeats measure_rtt on unclosed FIGURE5 rigs, "
                                       "bitwise, which is the perfbench path",
    "hw/test_buffer_store.py": "one test drops an endpoint with an exported view to the "
                               "garbage collector on purpose: that is what it checks",
    "test_tutorial.py": "TUTORIAL section 1 teaches the kernel idioms on bare simulators",
}

_NETWORK_ROOTS = (AtmFabric, _FeNetworkBase, BeowulfNetwork, MixedFabric)


class _Watch:
    """What one test built: simulators counted, the closed ones kept (a
    closed machine is small), networks and lanes held weakly (a dead one
    holds nothing)."""

    def __init__(self):
        self.built = 0
        self.closed = []
        self.networks = []
        self.lanes = []


_watch = None


def _record_built(cls, note):
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        if _watch is not None:
            note(_watch, self)
        original(self, *args, **kwargs)

    cls.__init__ = __init__


def _count_sim(watch, sim):
    watch.built += 1


def _note_network(watch, network):
    watch.networks.append(weakref.ref(network))


def _note_lane(watch, lane):
    watch.lanes.append(weakref.ref(lane))


_record_built(Simulator, _count_sim)
_record_built(Lane, _note_lane)
for _cls in _NETWORK_ROOTS:
    _record_built(_cls, _note_network)

_close = Simulator.close


def _recorded_close(sim):
    first = not sim.closed
    report = _close(sim)  # raises, recording nothing, when called from inside a process
    if first and _watch is not None:
        _watch.closed.append(sim)
    return report


_recorded_close.__doc__ = _close.__doc__
Simulator.close = _recorded_close


def _socket_fds():
    fds = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            if stat.S_ISSOCK(os.stat(f"/proc/self/fd/{name}").st_mode):
                fds.add(int(name))
        except OSError:
            pass  # the listing's own descriptor, already gone
    return fds


def _closed_but_holding(sim, networks, lanes):
    """What a closed simulator's machine still holds, as findings."""
    held = []
    if sim._live:
        held.append(f"{len(sim._live)} live process(es)")
    if "_queue" in vars(sim):
        held.append("a heap")
    armed = [lane for lane in lanes if lane._sim is sim and lane._head is not None]
    if armed:
        held.append(f"{len(armed)} armed lane(s) holding "
                    f"{sum(1 + len(lane._held or ()) for lane in armed)} call(s)")
    for network in networks:
        if network.sim is not sim:
            continue
        label = type(network).__name__
        if getattr(network, "_vc_routes", None):
            held.append(f"{label}: {len(network._vc_routes)} open VC(s)")
        for host in network.hosts:
            backend = host.backend
            if len(backend.demux):
                held.append(f"{backend.name}: {len(backend.demux)} demux row(s)")
            for endpoint in backend.endpoints:
                if not endpoint.buffers.closed:
                    held.append(f"{backend.name} ep{endpoint.id}: a mapped buffer area "
                                f"({endpoint.buffers.num_buffers - endpoint.buffers.free_count} "
                                "slot(s) allocated)")
                if endpoint.channels:
                    held.append(f"{backend.name} ep{endpoint.id}: "
                                f"{len(endpoint.channels)} bound channel(s)")
    return held


@pytest.fixture(autouse=True)
def leak_check(request):
    global _watch
    have_proc = os.path.isdir("/proc/self/fd")
    sockets_before = _socket_fds() if have_proc else set()
    _watch = watch = _Watch()
    try:
        yield
    finally:
        _watch = None
    findings = []
    networks = [network for network in (ref() for ref in watch.networks) if network is not None]
    lanes = [lane for lane in (ref() for ref in watch.lanes) if lane is not None]
    for sim in watch.closed:
        findings += [f"closed simulator still holds {what}"
                     for what in _closed_but_holding(sim, networks, lanes)]
    module = os.path.relpath(str(request.node.fspath), os.path.dirname(__file__))
    unclosed = watch.built - len(watch.closed)
    if unclosed and module not in NEVER_CLOSES:
        findings.append(f"{unclosed} simulator(s) built and never closed, and "
                        f"{module} is not on tests/conftest.py::NEVER_CLOSES")
    if have_proc and _socket_fds() - sockets_before:
        del watch, networks, lanes
        gc.collect()  # a cycle may be all that holds a socket nobody uses
        leaked = _socket_fds() - sockets_before
        if leaked:
            findings.append(f"socket FD(s) {sorted(leaked)} still open")
    assert not findings, "leak check:\n  " + "\n  ".join(findings)


@pytest.fixture
def closing():
    """``closing(net)`` returns ``net`` entered for the rest of the test:
    everything entered is closed when the test ends, before ``leak_check``
    looks."""
    with contextlib.ExitStack() as stack:
        yield stack.enter_context


@pytest.fixture
def two_hosts():
    """:func:`repro.analysis.microbench.two_host_rig`, every rig it built
    closed when the test ends (before ``leak_check`` looks)."""
    with contextlib.ExitStack() as rigs:
        yield lambda *args, **kwargs: rigs.enter_context(two_host_rig(*args, **kwargs))
