"""Reach lint: a definition no workload mentions, or state nothing reads, goes.

Two censuses over an AST walk of ``src/repro``, against the trees a
workload runs from: ``src``, ``benchmarks`` and ``perfbench``.  Tests
and examples are not callers, as in ``tests/test_knobs.py``.

1. **Definitions.**  Every function, method or class defined in
   ``src/repro`` must be mentioned somewhere in those trees: as a name,
   as an attribute, or as a string naming it (``getattr(obj, "name")``,
   a ``COUNTERS`` entry).  The package ``__init__`` files do not count:
   their export tables name everything they re-export.  Dunder methods
   are called by the interpreter and are not counted.
2. **Stored attributes.**  Every attribute ``src/repro`` assigns
   (``x.name = ...``, ``x.name += ...``) must be read in those trees:
   loaded (``x.name``), or named by a string (``getattr(x, "name")``, a
   ``COUNTERS`` or ``PARTS`` entry that ``repro.telemetry`` reads, a
   ctypes ``_fields_`` row).  An augmented assignment is a store, so a
   counter only ever bumped is write-only; ``__slots__`` declares
   storage and reads nothing.

Matching is by simple name, so a mention of ``report`` anywhere counts
for every ``report``: the census finds only names nothing mentions at
all.  What stays on purpose is named in :data:`KEPT` with its reason.
"""

import ast
import functools
import gc
import pathlib

import repro

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_ROOT.parents[1]
CALLER_TREES = ("src", "benchmarks", "perfbench")

#: ``module:qualname`` (a definition) or ``module:attr`` (a stored
#: attribute) -> why it stays although no workload mentions or reads it
KEPT = {
    # called from where the census does not look
    "repro._lazy:lazy_exports": "its callers are the package __init__ files",
    "repro.live.mmsg:argtypes": "ctypes reads a foreign function's argument types",
    "repro.live.mmsg:restype": "ctypes reads a foreign function's result type",
    "repro.live.mmsg:raw": "ctypes copies the stored bytes into the C buffer",
    # the paper's API and the fabric contract
    "repro.core.api:UserEndpoint.recv_all":
        "Section 3.1: consume every pending message in one upcall",
    "repro.atm.phy:AtmPhy.max_payload_mbps": "the AAL5 payload ceiling of a PHY",
    "repro.core.base:TrunkedFabric.trunk_link": "fabric contract: the link a trunk is",
    "repro.core.base:TrunkedFabric.hops_between": "fabric contract: switch hops of a route",
    # kernel and queue API
    "repro.sim.engine:Simulator.all_of": "kernel API: wait for every event of a list",
    "repro.sim.events:Process.is_alive": "kernel API: whether a process has finished",
    "repro.sim.queues:BoundedRing.free_slots": "queue API: room left in a ring",
    "repro.sim.queues:BoundedRing.on_nonempty": "queue API: wake a consumer on a push",
    "repro.hw.memory:BufferArea.alloc":
        "buffer-area API: take a buffer or raise (the data paths poll try_alloc)",
    "repro.live.bufpool:BufferPool.alloc":
        "pool API: take a slice or raise (the data paths poll try_alloc)",
    "repro.core.descriptors:RecvDescriptor.is_inline":
        "Section 3.1: whether a message rides in its descriptor",
    # what a caller catching a typed error, or tearing down a seam, reads
    "repro.core.errors:knob": "ConfigError names the knob a caller got wrong",
    "repro.core.errors:component": "ClusterPartitionError names the minority side",
    "repro.faults.inject:Interposer.attached": "whether a fault is still hooked in",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Census:
    def __init__(self):
        self.defined = {}       # name -> ["module:qualname"]
        self.stored = {}        # attribute -> {module storing it}
        self.mentioned = set()  # names some file mentions
        self.read = set()       # attributes some load or string reads

    def define(self, module, tree):
        """The definitions and attribute stores of one ``src/repro`` module."""
        def walk(body, prefix):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not _is_dunder(node.name):
                        self.defined.setdefault(node.name, []).append(
                            f"{module}:{prefix}{node.name}")
                    walk(node.body, f"{prefix}{node.name}.")
        walk(tree.body, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                self.stored.setdefault(node.attr, set()).add(module)

    def scan(self, node, mentions=True):
        """What ``node`` mentions and reads; an ``__init__`` reads but
        mentions nothing (``mentions=False``)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assign) and any(
                    getattr(target, "id", "") == "__slots__" for target in child.targets):
                continue
            if isinstance(child, ast.Attribute):
                name = child.attr
                if isinstance(child.ctx, ast.Load):
                    self.read.add(name)
            elif isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                name = child.value
                self.read.add(name)
            else:
                name = None
            if mentions and name is not None:
                self.mentioned.add(name)
            self.scan(child, mentions)

    def unreached(self):
        """Definitions nothing mentions, as ``module:qualname``."""
        return {key for name, keys in self.defined.items()
                if name not in self.mentioned for key in keys}

    def write_only(self):
        """Stored attributes nothing reads, as ``module:attr``."""
        return {f"{module}:{attr}" for attr, modules in self.stored.items()
                if attr not in self.read for module in modules}


def census(root=REPO_ROOT):
    """The census of the tree at ``root``."""
    gc.disable()  # a few million acyclic nodes: see tests/test_knobs.py
    try:
        c = _Census()
        src_root = root / "src" / "repro"
        for top in CALLER_TREES:
            for path in sorted((root / top).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                in_src = path.is_relative_to(src_root)
                if in_src:
                    rel = path.relative_to(src_root.parent).with_suffix("")
                    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
                    c.define(".".join(parts), tree)
                c.scan(tree, mentions=not (in_src and path.name == "__init__.py"))
        return c
    finally:
        gc.enable()


def offenders(c) -> list:
    return sorted((c.unreached() | c.write_only()) - KEPT.keys())


@functools.lru_cache(maxsize=None)
def _tree_census():
    return census()


def test_every_definition_is_reached_and_every_store_is_read():
    found = offenders(_tree_census())
    assert not found, (
        "definitions no workload mentions / attributes nothing reads "
        "(delete them, or name the reason in KEPT):\n  " + "\n  ".join(found))


_PLANTED = """
class Ring:
    COUNTERS = ("pushes",)

    def __init__(self):
        self.items = []
        self.pushes = 0
        self.bumped = 0

    def push(self, item):
        self.items.append(item)
        self.pushes += 1
        self.bumped += 1

    def dead_helper(self):
        return len(self.items)


def fill(ring):
    ring.push(1)
"""

_PLANTED_WORKLOAD = """
from repro._planted import Ring, fill

fill(Ring())
"""

_PLANTED_TEST = """
from repro._planted import Ring

def test_ring():
    ring = Ring()
    assert ring.dead_helper() == 0
    assert ring.bumped == 0
"""


def test_lint_catches_a_planted_dead_helper_and_write_only_attribute(tmp_path):
    """A helper only a test and an export list mention, and a counter
    only ever bumped (its one reader a test), are flagged; what a
    workload calls, a counter ``COUNTERS`` declares and a store some
    code loads are not."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "_planted.py").write_text(_PLANTED, encoding="utf-8")
    (tmp_path / "src" / "repro" / "__init__.py").write_text(
        '__all__ = ["Ring", "fill", "dead_helper"]\n', encoding="utf-8")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "planted.py").write_text(_PLANTED_WORKLOAD, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_planted.py").write_text(_PLANTED_TEST, encoding="utf-8")
    c = census(tmp_path)
    assert offenders(c) == ["repro._planted:Ring.dead_helper", "repro._planted:bumped"]


def test_kept_table_is_exact():
    """Every kept entry still exists and is still unreached: a stale
    entry would be a blanket exemption waiting to hide new dead code."""
    c = _tree_census()
    assert not KEPT.keys() - (c.unreached() | c.write_only()), (
        "KEPT names code that is gone or now reached")
