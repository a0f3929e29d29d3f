"""Options lint: a default nobody overrides is a constant, not a knob.

Every defaulted parameter and every defaulted dataclass / NamedTuple
field in ``src/repro`` doubles the configurations a test must cover, so
each one must be set somewhere by a workload: by a call in ``src``,
``benchmarks`` or ``perfbench``.  Tests and examples are not callers: a
knob only they turn is still one nothing needs.  The census below is an
AST walk over those three trees.  A call names its target by the last
component of what it calls (``f(...)``, ``x.f(...)``, ``Cls(...)``,
``super().__init__(...)``, ``partial(f, ...)``), and sets a parameter by
keyword or by position; a call to an attribute that ``src/repro`` binds
to a partial (``self.name = partial(self.method, a)``, then
``obj.name(b, k=c)``) sets ``method``'s parameters past the bound ones;
``replace(obj, field=...)`` sets that field on every dataclass that
declares it.  An argument forwarded unchanged from
a defaulted parameter of ``src/repro`` (``f(x=x)``) sets its target only
if that parameter is itself set, so a default carried down a chain of
calls is still one unturned knob.

What the walk cannot see — a call through ``**row``, ``getattr`` or a
registry — and the kinds of default that stay on purpose are named in
:data:`KEPT`, each with its reason (DESIGN.md, "Options"):

1. set by a caller the census cannot see (``**`` rows, registries,
   callbacks); these count as set for what they forward;
2. device-model selectors (CPU, timings, bus, PHY, switch model, link
   rate, forwarding and propagation delays);
3. fields of calibration records;
4. state dataclasses whose defaults are initial state;
5. the experiment configs that soaks and tests compare;
6. signatures perfbench calls or reads;
7. test seams: kept only where a test substitutes a fake or a shorter
   run (a hand-stepped monitor, fewer sizes or iterations, a smaller
   PDU), or reaches a state a workload reaches but a test cannot afford
   to drive (a 128-node-deep tree on a few nodes, a missed deadline).
"""

import ast
import functools
import gc
import pathlib

import repro

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_ROOT.parents[1]
CALLER_TREES = ("src", "benchmarks", "perfbench")

(SET_UNSEEN, DEVICE_MODEL, CALIBRATION, INITIAL_STATE, EXPERIMENT, PERFBENCH,
 TEST_SEAM) = range(1, 8)


def _each(category, owner, *params):
    return {f"{owner}.{param}": category for param in params}


#: ``module:qualname.param`` -> reason category (module docstring)
KEPT = {
    # set where the walk cannot see: ``add_host(**where)`` and an
    # event's callback list
    **_each(SET_UNSEEN, "repro.ethernet.network:RoutedFeNetwork._where", "segment"),
    **_each(SET_UNSEEN, "repro.fabric.fe_clos:ClosFeNetwork._where", "leaf", "propagation_us"),
    **_each(SET_UNSEEN, "repro.sim.events:Process._resume", "trigger"),
    # ``networks.Network.build``'s ``cls(sim, **self.shape(n))``
    **_each(SET_UNSEEN, "repro.fabric.atm_clos:ClosAtmFabric.__init__", "leaves", "spines"),
    **_each(SET_UNSEEN, "repro.fabric.fe_clos:ClosFeNetwork.__init__", "leaves", "spines"),
    **_each(SET_UNSEEN, "repro.fabric.mixed:MixedFabric.__init__", "hosts_per_leaf"),
    # ``AmConfig.adaptive``'s ``cls(**overrides)``, and ``live/peer.py``'s
    # child, which starts a respawned incarnation at its parent's epoch
    # through ``peer_am_config(**overrides)``
    **_each(SET_UNSEEN, "repro.am.core:AmConfig", "epoch", "fast_retransmit"),
    # the multitenant soak's ``QosClass.health_config(**overrides)``
    **_each(SET_UNSEEN, "repro.core.health:HealthConfig",
            "drop_rate_high", "drop_rate_low", "min_unhealthy_checks"),
    # the multitenant soak's live ``create_endpoint`` callback
    # (``LiveCluster.add_node(...).create_user_endpoint``)
    **_each(SET_UNSEEN, "repro.live.backend:LiveBackend.create_user_endpoint", "qos", "tenant"),
    # which CPU, NI timings, bus, PHY, switch, link rate or delay a device
    # is built with: the selectors a new network generation sets from a row
    **_each(DEVICE_MODEL, "repro.analysis.journey:trace_journey", "cpu"),
    **_each(DEVICE_MODEL, "repro.analysis.microbench:setup_fe_switch", "cpu"),
    **_each(DEVICE_MODEL, "repro.analysis.timelines:atm_trace_transfer", "cpu"),
    **_each(DEVICE_MODEL, "repro.analysis.timelines:trace_transfer", "cpu"),
    **_each(DEVICE_MODEL, "repro.atm.fabric:AtmFabric.__init__",
            "forward_us", "trunk_phy", "trunk_propagation_us"),
    **_each(DEVICE_MODEL, "repro.atm.fabric:AtmFabric.add_host",
            "bus", "phy", "propagation_us", "timings"),
    **_each(DEVICE_MODEL, "repro.atm.network:AtmNetwork.__init__", "forward_us"),
    **_each(DEVICE_MODEL, "repro.atm.switch:AtmSwitch.__init__", "forward_us"),
    **_each(DEVICE_MODEL, "repro.atm.unet_atm:UNetAtmBackend.__init__", "bus", "timings"),
    **_each(DEVICE_MODEL, "repro.ethernet.bonding:BeowulfNetwork.__init__", "rate_mbps"),
    **_each(DEVICE_MODEL, "repro.ethernet.bonding:DualNicFeBackend.__init__",
            "bus", "nic_timings", "timings"),
    **_each(DEVICE_MODEL, "repro.ethernet.dc21140:Dc21140.__init__", "bus", "timings"),
    **_each(DEVICE_MODEL, "repro.ethernet.ip:IpRouter.__init__", "forward_us"),
    **_each(DEVICE_MODEL, "repro.ethernet.medium:SharedMedium.__init__", "rate_mbps"),
    **_each(DEVICE_MODEL, "repro.ethernet.network:HubNetwork.__init__", "rate_mbps"),
    **_each(DEVICE_MODEL, "repro.ethernet.network:RoutedFeNetwork.__init__",
            "model", "rate_mbps", "router_forward_us"),
    **_each(DEVICE_MODEL, "repro.ethernet.network:SwitchedNetwork.__init__", "rate_mbps"),
    **_each(DEVICE_MODEL, "repro.ethernet.network:SwitchedNetwork._attach", "propagation_us"),
    **_each(DEVICE_MODEL, "repro.ethernet.network:_FeNetworkBase.add_host",
            "bus", "nic_timings", "timings"),
    **_each(DEVICE_MODEL, "repro.ethernet.switch:EthernetSwitch.__init__", "rate_mbps"),
    **_each(DEVICE_MODEL, "repro.ethernet.unet_fe:UNetFeBackend.__init__",
            "bus", "nic_timings", "timings"),
    **_each(DEVICE_MODEL, "repro.fabric.atm_clos:ClosAtmFabric.__init__",
            "trunk_phy", "trunk_propagation_us"),
    **_each(DEVICE_MODEL, "repro.fabric.fe_clos:ClosFeNetwork.__init__",
            "model", "rate_mbps", "trunk_propagation_us"),
    **_each(DEVICE_MODEL, "repro.perfmodel.loggp:atm_stage_costs", "bus", "phy", "timings"),
    **_each(DEVICE_MODEL, "repro.perfmodel.loggp:fe_stage_costs",
            "bus", "nic", "switch", "timings"),
    # FIFO depths (None = unbounded): bounding the ATM host uplink FIFO
    # is their first workload (ROADMAP item 3(i))
    **_each(DEVICE_MODEL, "repro.atm.phy:CellLink.__init__", "buffer"),
    **_each(DEVICE_MODEL, "repro.hw.bus:Link.__init__", "buffer"),
    **_each(DEVICE_MODEL, "repro.ethernet.switch:EthernetSwitch.__init__", "output_buffer"),
    # one calibrated cost per field
    **_each(CALIBRATION, "repro.atm.unet_atm:AtmTimings",
            "collective_op_us", "rx_buffer_alloc_us", "rx_last_cell_us", "rx_per_cell_us",
            "rx_single_cell_us", "tx_per_cell_us", "tx_per_message_us", "tx_poll_pickup_us"),
    **_each(CALIBRATION, "repro.ethernet.dc21140:NicTimings",
            "collective_op_us", "rx_dma_start_us", "rx_interrupt_delay_us",
            "tx_descriptor_fetch_us", "tx_fifo_threshold_us"),
    **_each(CALIBRATION, "repro.ethernet.unet_fe:FeTimings",
            "alloc_init_recv_descriptor_us", "alloc_unet_buffer_us", "bump_recv_ring_us",
            "check_send_params_us", "copy_fixed_us", "demux_us", "ethernet_header_setup_us",
            "free_ring_descriptor_us", "free_send_queue_entry_us", "ip_encap_us",
            "ip_parse_us", "issue_poll_demand_us", "poll_recv_ring_us",
            "ring_descriptor_setup_us"),
    **_each(CALIBRATION, "repro.splitc.costs:KernelCosts",
            "local_sort_passes", "matmul_flops_per_madd", "partition_ops_per_probe",
            "radix_histogram_ops", "radix_rank_ops", "radix_scan_ops", "sample_select_ops",
            "scatter_ops_per_pair"),
    # a counter, a flag or a log that starts empty
    **_each(INITIAL_STATE, "repro.conformance.observe:ObservedTrace",
            "credit_stalls", "dup_rx", "timeouts"),
    **_each(INITIAL_STATE, "repro.conformance.shrink:ShrinkResult", "attempts", "trail"),
    **_each(INITIAL_STATE, "repro.core.channels:ChannelBinding",
            "messages_received", "messages_sent"),
    **_each(INITIAL_STATE, "repro.faults.multitenant:_HostState", "budget", "by_class", "rr"),
    **_each(INITIAL_STATE, "repro.faults.multitenant:_Tenant",
            "ch_rx", "ch_tx", "delivered", "delivered_after_restart", "delivered_bytes",
            "fate", "incarnation", "record", "recovered_at", "restarted_at", "rtt_samples",
            "sent", "stalled", "stalled_at", "tx_user", "user"),
    # the AM stack the soaks and the conformance cases compare
    **_each(EXPERIMENT, "repro.am.core:AmConfig",
            "backoff_factor", "dup_ack_threshold", "rto_max_us", "rto_min_us"),
    # a shorter run: fewer sizes, samples, iterations or checks
    **_each(TEST_SEAM, "repro.collectives.bench:run_collectives_bench",
            "barrier_iters", "reduce_iters"),
    **_each(TEST_SEAM, "repro.live.bench:bench_bandwidth", "sizes"),
    **_each(TEST_SEAM, "repro.live.bench:bench_round_trip", "sizes"),
    **_each(TEST_SEAM, "repro.live.bench:run_bench", "bw_sizes", "rtt_sizes"),
    **_each(TEST_SEAM, "repro.core.health:HealthConfig", "ewma_alpha"),
    # a fake: a hand-stepped watchdog, an instrumented simulator, a PDU
    # cap small enough for the framing fuzz to cover
    **_each(TEST_SEAM, "repro.core.health:HealthMonitor.__init__", "manual"),
    **_each(TEST_SEAM, "repro.splitc.cluster:Cluster.__init__", "sim"),
    **_each(TEST_SEAM, "repro.live.backend:LiveCluster.__init__", "max_pdu"),
    # a state a workload reaches that a test cannot afford to drive:
    # a deep collective tree on a handful of nodes, a missed deadline
    **_each(TEST_SEAM, "repro.collectives.adapters:wire_collectives", "fanout"),
    **_each(TEST_SEAM, "repro.faults.stream:StreamScenario", "time_limit_us"),
}


# ------------------------------------------------------------------ census
def _name(node) -> str:
    """The last component of a name or dotted name (``""`` for anything else)."""
    return getattr(node, "id", getattr(node, "attr", ""))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        if _name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass":
            return True
    return any(_name(b) == "NamedTuple" for b in cls.bases)


def _init_fields(cls: ast.ClassDef):
    """(name, has a default) for each constructor field a dataclass
    body declares, in order."""
    for stmt in cls.body:
        if (not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name)
                or "ClassVar" in ast.unparse(stmt.annotation)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            kws = {k.arg: k.value for k in value.keywords}
            init = kws.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            yield stmt.target.id, "default" in kws or "default_factory" in kws
        else:
            yield stmt.target.id, value is not None


#: nodes with no call below them
_LEAVES = (ast.Name, ast.Constant, ast.expr_context, ast.operator, ast.cmpop,
           ast.unaryop, ast.boolop, ast.alias, ast.Pass, ast.Break, ast.Continue)


class _Def:
    """One callable: its ordered constructor / call parameters."""

    def __init__(self, key, params, defaulted, bound, keys=None):
        self.key = key            # module:qualname
        self.params = params      # names, in positional order
        self.defaulted = defaulted  # names with a default
        self.bound = bound        # first positional is self / cls
        #: dataclass constructors: field name -> its knob (inherited
        #: fields are keyed by the class that declares them)
        self.keys = keys


class _Census:
    def __init__(self, modules):
        """``modules``: {dotted module name: parsed tree} for ``src/repro``."""
        self.funcs = {}           # simple name -> [_Def]
        self.classes = {}         # class name -> [(module, ClassDef)]
        self.knobs = set()        # every module:qualname.param with a default
        self.direct = set()       # knobs some call site sets
        self.forwards = []        # (target knob, source knob)
        self.trees = {}
        self.by_key = {}
        self.fields = {}          # field name -> [dataclass field knobs]
        self._ctor_cache = {}
        self.renames = {}         # ``attach_pipeline = PerturbationPipeline``
        #: ``x.name = partial(x.method, a)``: name -> [(method, bound positionals)]
        self.partials = {}
        for module, tree in modules.items():
            self.trees[module] = tree
            self._collect(module, tree.body, "")
            for node in tree.body:
                if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                        and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
                    self.renames[node.targets[0].id] = node.value.id
            for node in ast.walk(tree):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and isinstance(node.value, ast.Call)
                        and _name(node.value.func) == "partial" and node.value.args):
                    func, *bound = node.value.args
                    self.partials.setdefault(node.targets[0].attr, []).append(
                        (func, len(bound)))

    # -- definitions
    def _collect(self, module, body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, prefix, in_class=False)
            elif isinstance(node, ast.ClassDef):
                self.classes.setdefault(node.name, []).append((module, node))
                qual = prefix + node.name
                if _is_dataclass(node):
                    for name, default in _init_fields(node):
                        if default:
                            self.knobs.add(f"{module}:{qual}.{name}")
                            self.fields.setdefault(name, []).append(f"{module}:{qual}.{name}")
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(module, stmt, qual + ".", in_class=True)
                    elif isinstance(stmt, ast.ClassDef):
                        self._collect(module, [stmt], qual + ".")

    def _add_function(self, module, node, prefix, in_class, nested=False):
        args = node.args
        static = any(getattr(d, "id", "") == "staticmethod" for d in node.decorator_list)
        positional = [a.arg for a in args.posonlyargs + args.args]
        bound = in_class and not static
        if bound:
            positional = positional[1:]
        key = f"{module}:{prefix}{node.name}"
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        # ``def cb(d=descriptor)`` inside a function binds a local, it is no option
        defaulted = {p for p, d in pairs if not (nested and isinstance(d, ast.Name))}
        params = positional + [a.arg for a in args.kwonlyargs]
        d = _Def(key, params, defaulted, bound)
        self.funcs.setdefault(node.name, []).append(d)
        self.by_key[key] = d
        self.knobs.update(f"{key}.{p}" for p in defaulted)
        for stmt in node.body:      # nested helpers are callables too
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, f"{prefix}{node.name}.", False, nested=True)

    def _constructors(self, class_name):
        """Every parameter list ``ClassName(...)`` may bind to."""
        if class_name not in self._ctor_cache:
            self._ctor_cache[class_name] = self._constructors_below(class_name, ())
        return self._ctor_cache[class_name]

    def _constructors_below(self, class_name, seen):
        out = []
        for module, cls in self.classes.get(class_name, ()):
            if (module, class_name) in seen:
                continue
            qual = self._qualname(module, cls)
            inits = [d for d in self.funcs.get("__init__", ())
                     if d.key == f"{module}:{qual}.__init__"]
            if inits:
                out.extend(inits)
            elif _is_dataclass(cls):
                out.append(self._fields(module, cls, qual, seen))
            for base in cls.bases:
                name = _name(base)
                if name and not inits and not _is_dataclass(cls):
                    out.extend(self._constructors_below(name, seen + ((module, class_name),)))
        return out

    def _fields(self, module, cls, qual, seen):
        params, defaulted, keys = [], set(), {}
        for base in cls.bases:
            name = _name(base)
            for bmod, bcls in self.classes.get(name, ()):
                if _is_dataclass(bcls) and (bmod, name) not in seen:
                    inherited = self._fields(bmod, bcls, self._qualname(bmod, bcls), seen)
                    params += inherited.params
                    defaulted |= inherited.defaulted
                    keys.update(inherited.keys)
        for name, default in _init_fields(cls):
            if name not in params:
                params.append(name)
            keys[name] = f"{module}:{qual}.{name}"
            if default:
                defaulted.add(name)
        return _Def(f"{module}:{qual}", params, defaulted, False, keys)

    def _qualname(self, module, cls):
        def find(body, prefix):
            for node in body:
                if node is cls:
                    return prefix + node.name
                if isinstance(node, ast.ClassDef):
                    hit = find(node.body, prefix + node.name + ".")
                    if hit:
                        return hit
            return None
        return find(self.trees[module].body, "") or cls.name

    # -- call sites
    def scan(self, tree, module=None):
        """Every call in ``tree``; ``module`` names it when it is in ``src/repro``."""
        self._walk(tree, {}, module, "", None, {})

    def _walk(self, node, aliases, module, prefix, cls, fn_knobs):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _LEAVES):
                continue
            if isinstance(child, ast.Call):
                self._call(child, aliases, cls, fn_knobs)
            elif isinstance(child, ast.ImportFrom):
                aliases.update((a.asname, a.name) for a in child.names if a.asname)
                continue
            elif isinstance(child, ast.ClassDef):
                self._walk(child, aliases, module, f"{prefix}{child.name}.", child, fn_knobs)
                continue
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                d = self.by_key.get(f"{module}:{prefix}{child.name}")
                inner = fn_knobs
                if d is not None and d.defaulted:
                    inner = {**fn_knobs, **{p: f"{d.key}.{p}" for p in d.defaulted}}
                self._walk(child, aliases, module, f"{prefix}{child.name}.", cls, inner)
                continue
            self._walk(child, aliases, module, prefix, cls, fn_knobs)

    def _targets(self, call, aliases, cls):
        fn = call.func
        args = list(call.args)
        if isinstance(fn, ast.Name):
            name = aliases.get(fn.id, fn.id)
            name = self.renames.get(name, name)
            if name == "partial" and args:
                return self._targets(ast.Call(args[0], args[1:], call.keywords), aliases, cls)
            if name == "replace" and args:
                return "replace", args[1:]
            if name == "cls" and cls is not None:
                return self._constructors(cls.name), args
            return self._constructors(name) + [
                d for d in self.funcs.get(name, ()) if not d.bound], args
        if isinstance(fn, ast.Attribute):
            if fn.attr == "partial" and args:
                return self._targets(ast.Call(args[0], args[1:], call.keywords), aliases, cls)
            if fn.attr == "replace" and _name(fn.value) == "dataclasses":
                return "replace", args[1:]
            if fn.attr == "__init__":
                if isinstance(fn.value, ast.Call) and _name(fn.value.func) == "super":
                    bases = cls.bases if cls is not None else ()
                    return [c for b in bases for c in self._constructors(_name(b))], args
                # ``Base.__init__(self, ...)``
                return self._constructors(_name(fn.value)), args[1:]
            name = self.renames.get(fn.attr, fn.attr)
            return self._constructors(name) + self.funcs.get(name, []), args
        return [], args

    def _call(self, call, aliases, cls, fn_knobs):
        targets, args = self._targets(call, aliases, cls)
        if targets == "replace":
            for kw in call.keywords:
                for knob in self.fields.get(kw.arg, ()):
                    self._bind(knob, kw.value, fn_knobs)
            return
        positional = []
        for a in args:
            if isinstance(a, ast.Starred):
                break
            positional.append(a)
        for d in targets:
            for name, value in zip(d.params, positional):
                self._bind_param(d, name, value, fn_knobs)
            for kw in call.keywords:
                self._bind_param(d, kw.arg, kw.value, fn_knobs)
        if isinstance(call.func, ast.Attribute):
            # the partial bound its own arguments where it was built
            for func, bound in self.partials.get(call.func.attr, ()):
                held = [ast.Constant(None)] * bound
                self._call(ast.Call(func, held + list(call.args), call.keywords),
                           aliases, cls, fn_knobs)

    def _bind_param(self, d, name, value, fn_knobs):
        if name in d.defaulted:
            self._bind(d.keys[name] if d.keys else f"{d.key}.{name}", value, fn_knobs)

    def _bind(self, knob, value, fn_knobs):
        if isinstance(value, ast.Name) and value.id in fn_knobs:
            self.forwards.append((knob, fn_knobs[value.id]))
        else:
            self.direct.add(knob)

    def unset(self, assumed_set=()):
        setk = self.direct | set(assumed_set)
        changed = True
        while changed:
            changed = False
            for target, source in self.forwards:
                if source in setk and target not in setk:
                    setk.add(target)
                    changed = True
        return self.knobs - setk


def census(root=REPO_ROOT):
    """The census of the tree at ``root``."""
    # the parsed trees are a few million acyclic objects: collecting
    # cycles while they are built would walk them over and over
    gc.disable()
    try:
        src_root = root / "src" / "repro"
        modules = {}
        for path in sorted(src_root.rglob("*.py")):
            rel = path.relative_to(src_root.parent).with_suffix("")
            parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
            modules[".".join(parts)] = ast.parse(path.read_text(encoding="utf-8"))
        c = _Census(modules)
        for module, tree in modules.items():
            c.scan(tree, module)
        for top in CALLER_TREES[1:]:
            for path in sorted((root / top).rglob("*.py")):
                c.scan(ast.parse(path.read_text(encoding="utf-8")))
        c.trees.clear()  # what is left is names, not trees
        c.classes.clear()
        return c
    finally:
        gc.enable()


def offenders(c) -> list:
    """Knobs nothing sets, once the callers the walk cannot see count."""
    unseen = {knob for knob, category in KEPT.items() if category == SET_UNSEEN}
    return sorted(c.unset(unseen) - KEPT.keys())


@functools.lru_cache(maxsize=None)
def _tree_census():
    return census()


def test_no_option_nobody_sets():
    found = offenders(_tree_census())
    assert not found, (
        "defaulted parameters / fields no call site sets (make each a "
        "constant at its point of use, or name its reason in KEPT):\n  "
        + "\n  ".join(found))


_PLANTED = """
from dataclasses import dataclass
from functools import partial

@dataclass
class Knobs:
    used: int = 1
    unused: int = 2

def inner(x, depth=3):
    return x * depth

def outer(y, depth=3):
    return inner(y, depth=depth)

def caller():
    Knobs(used=5)
    return outer(1)

def tested(x, scale=2):
    return x * scale

class Engine:
    def __init__(self):
        self.scaled = partial(self._scale, 2)

    def _scale(self, factor, x, offset=0, bias=0):
        return factor * x + offset + bias

def drive():
    return Engine().scaled(1, offset=3)
"""

_PLANTED_TEST = """
from repro._planted import tested

def test_tested():
    assert tested(1, scale=3) == 3
"""


def test_lint_catches_a_planted_offender(tmp_path):
    """An unset field, an unset parameter, one set only by a forward of
    an unset parameter, one only a test sets and one a bound partial's
    caller leaves unset are all flagged; the field a workload sets and
    the parameter it sets through a bound partial are not."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "_planted.py").write_text(_PLANTED, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_planted.py").write_text(_PLANTED_TEST, encoding="utf-8")
    found = offenders(census(tmp_path))
    assert found == ["repro._planted:Engine._scale.bias", "repro._planted:Knobs.unused",
                     "repro._planted:inner.depth", "repro._planted:outer.depth",
                     "repro._planted:tested.scale"]


def test_kept_allowlist_is_exact():
    """Every kept entry still exists, still has its default, and is
    still set by no call the walk can see: a stale entry would be a
    blanket exemption waiting to hide a new knob."""
    c = _tree_census()
    unset = c.unset()
    assert set(KEPT.values()) <= {SET_UNSEEN, DEVICE_MODEL, CALIBRATION, INITIAL_STATE,
                                  EXPERIMENT, PERFBENCH, TEST_SEAM}
    assert not KEPT.keys() - c.knobs, "KEPT names knobs that are gone"
    assert not KEPT.keys() - unset, "KEPT names knobs some call now sets"
