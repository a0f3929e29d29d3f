"""Lazy package exports (PEP 562), shared by every aggregating ``__init__``.

An aggregating package lists each public name once, under the submodule
that defines it; the home is imported the first time the name is asked
for and the value cached in the package namespace.  ``import
repro.faults.crash`` then pays for ``crash`` and not for every soak, and
``from repro.faults import run_overload`` works as it always did.
"""

import importlib
import sys


def lazy_exports(package, homes):
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``.

    ``homes`` maps a relative module (``".bench"``) to the names it
    exports through the package.
    """
    home_of = {name: home for home, names in homes.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        if name not in home_of:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home_of[name], package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(home_of))

    return __getattr__, __dir__, list(home_of)
