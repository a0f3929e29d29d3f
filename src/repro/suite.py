"""The suite table: every soak suite as one record, loaded by name.

A soak suite is a :class:`Suite` declared as ``SUITE`` at the bottom of
its own module; :data:`SUITES` names those modules and
:func:`load_suite` imports one on first use, so ``python -m repro soak``
is a table lookup plus one driver (``cli._cmd_soak``) that owns
everything the suites used to repeat: scenario resolution, override
validation, the scenario x mode grid, progress, the wall-clock
measurement, the violations print, the artifact write and the exit code.

:func:`artifacts` walks the same table (plus the two bench rigs, which
write a snapshot without being a soak) so ``bench --compare`` and the
artifact contract test see every comparable format without naming one.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import (Any, Callable, FrozenSet, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from .artifact import Artifact
from .networks import SubstrateUnavailable

__all__ = ["DEFAULT_SEED", "OVERRIDES", "SUITES", "Suite", "artifacts",
           "load_suite"]

#: master seed of a run that passes no ``--seed``
DEFAULT_SEED = 0xC0FFEE

#: every ``repro soak`` flag a suite may or may not honour; one given to
#: a suite that does not honour it is a usage error, never a no-op
OVERRIDES = ("messages", "mode", "seed", "stats", "output")


def _all_ok(results: Sequence) -> bool:
    return all(r.ok for r in results)


@dataclass(frozen=True)
class Suite:
    """One soak suite, as the driver sees it.

    A result is any object with ``scenario``, ``ok``, ``violations`` and
    ``sim_events`` (0 when no simulator ran); a suite with a mode axis
    gives it a ``mode`` too, the label of the run within its scenario.
    """

    #: name -> scenario record (a dataclass; ``--messages`` replaces its
    #: ``messages`` field)
    scenarios: Mapping[str, Any]
    #: ``run(scenario, mode, seed, progress) -> result``: one run (``mode``
    #: is None on a suite with no mode axis); it raises
    #: :class:`~repro.networks.SubstrateUnavailable` when the scenario
    #: needs what the host lacks (a live transport), and the grid skips it
    run: Callable[[Any, Optional[str], int, Callable[[str], None]], Any]
    #: ``render(results) -> str``: the suite's table
    render: Callable[[Sequence], str]
    #: ``modes(scenario) -> labels``: the configurations one scenario is
    #: compared under (None: the suite has no mode axis)
    modes: Optional[Callable[[Any], Tuple[str, ...]]] = None
    #: which of ``messages`` / ``seed`` this suite honours
    overrides: FrozenSet[str] = frozenset()
    #: ``stats(results) -> str``: what ``--stats`` adds (None: not honoured)
    stats: Optional[Callable[[Sequence], str]] = None
    #: what ``--output`` writes (None: not honoured), and
    #: ``payload(results, seed)`` building it
    artifact: Optional[Artifact] = None
    payload: Optional[Callable[[Sequence, int], dict]] = None
    #: scenarios a run without ``--scenario`` leaves out
    skipped_by_default: Tuple[str, ...] = ()
    #: the exit-0 rule
    passed: Callable[[Sequence], bool] = _all_ok

    def honours(self, flag: str) -> bool:
        """Whether ``flag`` (one of :data:`OVERRIDES`) means anything here."""
        if flag == "mode":
            return self.modes is not None
        if flag == "stats":
            return self.stats is not None
        if flag == "output":
            return self.artifact is not None
        return flag in self.overrides

    def grid(self, scenario: Any, mode: Optional[str] = None,
             seed: int = DEFAULT_SEED,
             progress: Callable[[str], None] = lambda message: None) -> List:
        """``scenario`` under one declared ``mode``, or under every mode.

        Every run takes the same seed, so the modes face byte-identical
        fault patterns until their own behaviour diverges the arrival
        sequence, which is the point of comparing them.
        """
        if mode is not None:
            modes: Sequence[Optional[str]] = (mode,)
        else:
            modes = self.modes(scenario) if self.modes is not None else (None,)
        results = []
        for label in modes:
            progress(f"{scenario.name} under {label}..." if label else f"{scenario.name}...")
            try:
                results.append(self.run(scenario, label, seed, progress))
            except SubstrateUnavailable:
                progress(f"{scenario.name}: skipped (no live transport on this machine)")
        return results


#: suite name -> the module whose ``SUITE`` declares it
SUITES = {
    "chaos": "repro.faults.soak",
    "overload": "repro.faults.overload",
    "crash": "repro.faults.crashsoak",
    "multitenant": "repro.faults.multitenant",
    "transport": "repro.faults.transport",
    "fabric": "repro.faults.fabricsoak",
}

#: modules that declare an ``ARTIFACT`` without being a soak suite
_BENCH_RIGS = ("repro.live.bench", "repro.collectives.bench", "repro.analysis.hostcost")


def load_suite(name: str) -> Suite:
    """Import and return the suite registered under ``name``."""
    return importlib.import_module(SUITES[name]).SUITE


def artifacts() -> Iterator[Artifact]:
    """Every artifact a suite or a bench rig declares."""
    for name in SUITES:
        artifact = load_suite(name).artifact
        if artifact is not None:
            yield artifact
    for module in _BENCH_RIGS:
        yield importlib.import_module(module).ARTIFACT
