"""The import graph: a run pays for the modules it uses, not for its siblings.

Seven aggregating ``__init__``s (``repro`` and its ``analysis``,
``faults``, ``live``, ``conformance``, ``collectives`` and ``fabric``
packages) export lazily through ``repro._lazy.lazy_exports``: one table per
package, each name listed once under its home submodule.  Three things
are held here.  From a cold interpreter (a fresh ``python -c``, because
pytest has long since imported everything): the microbenchmarks load no
numpy, no Active Messages and no Split-C, the live data path loads no
fault injector and no conformance harness, and a live substrate still
resolves by name.  In process: every exported name is the very object
its home holds, so ``from repro.<pkg> import <name>`` is what it always
was.  And a lint: those ``__init__``s contain the docstring, the table
and the helper call — an import or a registration call put back there
is paid by every importer of every sibling again.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

from tests.cold_interpreter import run_cold

LAZY_PACKAGES = ("repro", "repro.analysis", "repro.faults", "repro.live",
                 "repro.conformance", "repro.collectives", "repro.fabric")


# ---------------------------------------------------------- cold interpreter
def _loaded_after(statement):
    return run_cold(f"import sys\n{statement}\nprint(' '.join(sorted(sys.modules)))").split()


def _strays(loaded, *banned):
    return [name for name in loaded
            if any(name == root or name.startswith(root + ".") for root in banned)]


def test_microbenchmarks_load_no_numpy_no_am_and_no_splitc():
    loaded = _loaded_after("import repro.analysis.microbench")
    assert "repro.analysis.microbench" in loaded and "repro.ethernet.unet_fe" in loaded
    assert not _strays(loaded, "numpy", "repro.faults", "repro.apps",
                       "repro.splitc", "repro.am")


#: ``repro`` modules a two-host ping-pong may load: the budget CI's
#: perfbench-smoke job gates, held here so the suite fails first
PING_PONG_IMPORT_BUDGET = 44


def test_a_two_host_ping_pong_stays_within_the_import_budget():
    loaded = _loaded_after("import repro.analysis.microbench")
    ours = [name for name in loaded if name.split(".")[0] == "repro"]
    assert len(ours) <= PING_PONG_IMPORT_BUDGET, sorted(ours)


def test_live_data_path_loads_no_fault_injector_and_no_conformance_harness():
    loaded = _loaded_after("import repro.live.am, repro.live.backend, repro.live.transport")
    assert "repro.live.backend" in loaded and "repro.am.core" in loaded
    assert not _strays(loaded, "repro.faults", "repro.conformance")


def test_the_one_rig_per_suite_loads_no_live_code_until_a_live_name_is_built():
    loaded = _loaded_after("import repro.networks, repro.conformance.checker, "
                           "repro.faults.crashsoak, repro.faults.multitenant")
    assert "repro.faults.multitenant" in loaded
    assert not _strays(loaded, "repro.live")


def test_a_live_substrate_resolves_by_name_from_a_cold_interpreter():
    out = run_cold("from repro import networks\n"
                   "with networks.build('live-batched') as net:\n"
                   "    print(type(net).__module__, net.doorbell_mode)")
    assert out.split() == ["repro.live.backend", "batched"]


# ------------------------------------------------------------------- parity
def _source_of(package):
    return pathlib.Path(importlib.import_module(package).__file__).read_text(encoding="utf-8")


def _is_helper_call(node):
    return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "lazy_exports")


def _lazy_table(source):
    """The ``home -> names`` table of the one ``lazy_exports`` call in ``source``."""
    (call,) = [node.value for node in ast.parse(source).body if _is_helper_call(node)]
    return ast.literal_eval(call.args[1])


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_the_object_its_home_submodule_holds(package):
    pkg = importlib.import_module(package)
    table = _lazy_table(_source_of(package))
    names = [name for exported in table.values() for name in exported]
    assert len(names) == len(set(names)), "a name listed under two homes"
    assert sorted(pkg.__all__) == sorted(names)
    for home, exported in table.items():
        module = importlib.import_module(home, package)
        for name in exported:
            assert getattr(pkg, name) is getattr(module, name), f"{package}.{name}"
            assert vars(pkg)[name] is getattr(module, name)  # cached: no second lookup
    assert set(names) <= set(dir(pkg))
    starred = {}
    exec(f"from {package} import *", starred)
    assert set(names) <= set(starred)
    with pytest.raises(AttributeError, match="no_such_export"):
        pkg.no_such_export
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_export", {})
    # `pkg.name` must never depend on whether submodule `name` was imported yet
    submodules = {info.name for info in pkgutil.iter_modules(pkg.__path__)}
    assert not submodules & set(names)


# --------------------------------------------------------------------- lint
def _init_offenders(source):
    """Statements an aggregating ``__init__`` may not hold: anything but
    the docstring, the helper's import, the helper call over a literal
    table, and a dunder constant (``__version__``)."""
    body = ast.parse(source).body
    for index, node in enumerate(body):
        if index == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if (isinstance(node, ast.ImportFrom) and node.module == "_lazy"
                and [alias.name for alias in node.names] == ["lazy_exports"]):
            continue
        if _is_helper_call(node):
            (target,) = node.targets
            name, table = node.value.args
            if (ast.unparse(target) == "(__getattr__, __dir__, __all__)"
                    and ast.unparse(name) == "__name__" and isinstance(table, ast.Dict)):
                continue
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                and all(isinstance(t, ast.Name) and t.id.startswith("__")
                        for t in node.targets)):
            continue
        yield f"{node.lineno}: {ast.unparse(node).splitlines()[0]}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_aggregating_init_holds_only_docstring_table_and_helper_call(package):
    source = _source_of(package)
    assert not list(_init_offenders(source)), package
    assert _lazy_table(source)


def test_init_lint_catches_planted_offenders():
    planted = (
        '"""Docstring."""\n'
        "from .._lazy import lazy_exports\n"
        "from .conform import live_runner\n"
        '__version__ = "1.0.0"\n'
        '__getattr__, __dir__, __all__ = lazy_exports(__name__, {".a": ("A",)})\n'
        "live_runner()\n"
        "import numpy\n"
        "def helper():\n"
        "    pass\n"
        '__all__ = __all__ + ["helper"]\n'
        "__getattr__ = lazy_exports(__name__, TABLE)\n"
    )
    assert [hit.split(": ")[0] for hit in _init_offenders(planted)] \
        == ["3", "6", "7", "8", "10", "11"]
