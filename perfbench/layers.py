"""The traced repetition: cProfile self time and call counts by layer.

A layer is a package of ``src/repro``.  A function's self time
(``tottime``) belongs to the package its file is in.  Builtins and
stdlib or numpy functions have no package of their own, so each caller's
share of their self time (cProfile records it per caller) goes to the
layer of that caller: ``heapq.heappush`` called from ``sim/engine.py``
is ``sim`` time.  Whatever is left after one such step (the harness
itself, stdlib called by stdlib) is ``other``, so the shares sum to 1.

cProfile charges a fixed cost per call, which over-weights layers that
make many small calls.  Compare a share only with the same share at
another commit, with ``harness.trace_overhead_ratio`` beside it.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict

import repro

LAYERS = ("sim", "hw", "core", "atm", "ethernet", "am", "splitc", "apps",
          "collectives", "fabric", "live", "analysis")
OTHER = "other"
_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> str:
    """Layer of a source file; ``other`` outside the listed packages."""
    if not filename.startswith(_PACKAGE_ROOT):
        return OTHER
    package = filename[len(_PACKAGE_ROOT):].split(os.sep, 1)[0]
    return package if package in LAYERS else OTHER


def layer_figures(stats: pstats.Stats, ops: int) -> Dict[str, float]:
    """``<layer>.self_share`` and ``<layer>.calls_per_op`` for every layer."""
    self_time = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    calls = dict.fromkeys(LAYERS + (OTHER,), 0)
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, callers) in stats.stats.items():
        layer = layer_of(filename)
        calls[layer] += ncalls
        if layer != OTHER:
            self_time[layer] += tottime
            continue
        charged = 0.0
        for (caller_file, _l, _n), (_nc, _cc2, caller_tottime, _ct2) in callers.items():
            self_time[layer_of(caller_file)] += caller_tottime
            charged += caller_tottime
        # rounding or a root frame with no recorded caller
        self_time[OTHER] += tottime - charged
    total = sum(self_time.values())
    figures: Dict[str, float] = {}
    for layer in LAYERS + (OTHER,):
        figures[f"{layer}.self_share"] = self_time[layer] / total
        figures[f"{layer}.calls_per_op"] = calls[layer] / ops
    return figures
