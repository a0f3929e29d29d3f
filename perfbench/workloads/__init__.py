"""The five workloads.  Each module is imported only when its workload
runs, so set-up time holds the imports that workload needs and no others."""

from __future__ import annotations

import importlib

from ..harness import Workload

#: workload name -> (module, class); the order is the order of reports
WORKLOADS = {
    "unet-pingpong": ("unet", "PingPong"),
    "unet-stream": ("unet", "Stream"),
    "splitc-apps": ("splitc", "SplitCApps"),
    "clos-collectives": ("splitc", "ClosCollectives"),
    "live-loopback": ("live", "LiveLoopback"),
}


def load(name: str) -> Workload:
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), cls)()
