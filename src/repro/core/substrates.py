"""Substrate registry: every way a conformance case can be executed.

The differential checker started with two hardwired substrates (the
simulated ATM and FE networks).  The live U-Net/OS substrate made that
a registry problem: executions now differ not just in *how* they run a
case but in *whether they can run at all* on this machine (no AF_UNIX,
no loopback).  A :class:`SubstrateSpec` names one execution engine:

* ``runner(case, bug=None) -> ObservedTrace`` — run one conformance
  case and return its observable trace;
* ``available() -> bool`` — can this substrate run here, right now;
* ``relaxed_timing`` — whether the checker must compare this
  substrate's timing-derived observables (retransmission counts) only
  loosely: wall-clock executions retransmit when the OS scheduler says
  so, not when the event engine does.

A substrate is registered by the module that defines its runner, when
that module is imported: :mod:`repro.conformance.checker` for the
simulated ones, :mod:`repro.live.conform` for the live ones.  Lookup
knows which module provides which name, so ``get_substrate("live-unix")``
works from a cold interpreter.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "SubstrateSpec",
    "SubstrateUnavailable",
    "register_substrate",
    "get_substrate",
    "substrate_names",
    "available_substrates",
    "ensure_available",
]


class SubstrateUnavailable(RuntimeError):
    """A named substrate exists but cannot run on this machine."""


def _always() -> bool:
    return True


@dataclass(frozen=True)
class SubstrateSpec:
    """One registered way of executing a conformance case."""

    name: str
    runner: Callable
    available: Callable[[], bool] = field(default=_always)
    #: compare timing-derived observables (rexmit bands) only loosely
    relaxed_timing: bool = False
    description: str = ""


_REGISTRY: Dict[str, SubstrateSpec] = {}

#: names provided by modules that register on import (lazy resolution)
_LAZY_PROVIDERS = {
    "atm": "repro.conformance.checker",
    "ethernet": "repro.conformance.checker",
    "live": "repro.live.conform",
    "live-unix": "repro.live.conform",
    "live-udp": "repro.live.conform",
    "live-batched": "repro.live.conform",
    "live-event": "repro.live.conform",
}


def register_substrate(name: str, runner: Callable, *,
                       available: Callable[[], bool] = _always,
                       relaxed_timing: bool = False,
                       description: str = "") -> SubstrateSpec:
    """Install (or replace) the runner for substrate ``name``."""
    spec = SubstrateSpec(name=name, runner=runner, available=available,
                         relaxed_timing=relaxed_timing, description=description)
    _REGISTRY[name] = spec
    return spec


def get_substrate(name: str) -> SubstrateSpec:
    """The spec for ``name``, importing its provider module if needed."""
    if name not in _REGISTRY and name in _LAZY_PROVIDERS:
        importlib.import_module(_LAZY_PROVIDERS[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown substrate {name!r}; choose from {substrate_names()}"
        ) from None


def substrate_names() -> Tuple[str, ...]:
    """Every registrable substrate name, registered or lazily known."""
    names = set(_REGISTRY) | set(_LAZY_PROVIDERS)
    return tuple(sorted(names))


def available_substrates() -> Tuple[str, ...]:
    """Names that can actually run on this machine, sorted."""
    out = []
    for name in substrate_names():
        try:
            spec = get_substrate(name)
        except (ValueError, ImportError):  # pragma: no cover - defensive
            continue
        if spec.available():
            out.append(name)
    return tuple(out)


def ensure_available(name: str) -> SubstrateSpec:
    """The spec for ``name``; raises loudly when it cannot run here.

    This is what makes a replay honest: an artifact that was produced
    against a substrate this machine cannot run must fail, not quietly
    re-verify on whatever subset happens to work.
    """
    spec = get_substrate(name)
    if not spec.available():
        raise SubstrateUnavailable(
            f"substrate {name!r} is not available on this machine"
            + (f" ({spec.description})" if spec.description else ""))
    return spec
