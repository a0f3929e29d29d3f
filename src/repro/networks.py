"""Every simulated network, declared once.

The paper is one architecture on two network interfaces; this table is
the one place that says which networks exist around them and how one is
built.  A row names the network, the NI(s) its hosts carry, the class
that builds it (``module:Class``, imported when the row is first built)
and the constructor keywords of an ``n``-host build; an
:class:`Interface` carries what follows from the NI alone — the
Section-5 cluster's CPUs, who runs U-Net on it, how many channels one
host can hold.  ``Cluster``, the soaks' and the conformance checker's
two-host rigs, the journey tracer, the collectives grid and the CLI all
look a name up here; none of them compares substrate strings.
:data:`LIVE` names the wall-clock substrates the conformance checker
runs beside the simulated ones: every substrate name is declared here.

Adding a network generation (Gigabit, 10G) is one row plus one timings
record for its NI/link/switch models — the shape of a NED
``channel FastE extends DatarateChannel { datarate = 100Mbps }``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .hw.cpu import PENTIUM_90, PENTIUM_120, SPARCSTATION_10, SPARCSTATION_20, CpuModel

__all__ = ["Interface", "Network", "FE", "ATM", "NETWORKS", "LIVE", "TooManyHosts", "names",
           "get", "fe_cluster_cpus", "atm_cluster_cpus", "clos_shape"]


class TooManyHosts(ValueError):
    """A row was asked for more hosts than its devices have ports."""


def fe_cluster_cpus(n: int) -> List[CpuModel]:
    """The paper's FE cluster: one Pentium-90, the rest Pentium-120s."""
    return [PENTIUM_90] + [PENTIUM_120] * (n - 1)


def atm_cluster_cpus(n: int) -> List[CpuModel]:
    """The paper's ATM cluster: half SPARCstation-20s, half -10s."""
    half = (n + 1) // 2
    return ([SPARCSTATION_20] * half + [SPARCSTATION_10] * (n - half))[:n]


def clos_shape(n: int) -> Tuple[int, int, int]:
    """(leaves, spines, hosts_per_leaf) for an ``n``-host fat tree.

    Leaves hold up to 16 hosts (a realistic leaf port budget) and the
    spine tier is half the leaf tier, capped at 8 — e.g. 256 hosts on
    16 leaves x 8 spines.
    """
    leaves = max(2, -(-n // 16))
    per_leaf = -(-n // leaves)
    spines = max(2, min(8, -(-leaves // 2)))
    return leaves, spines, per_leaf


@dataclass(frozen=True)
class Interface:
    """One of the paper's two network interfaces."""

    name: str
    #: the Section-5 cluster built around it, as ``n`` CPU models
    cpus: Callable[[int], List[CpuModel]]
    #: who runs U-Net on it — the label of its steps in a message journey
    agent: str
    #: a host holds fewer channels than this (None: the VCI space)
    mesh_limit: Optional[int] = None


#: DC21140 + in-kernel U-Net: channels are one-byte port ids, 0xFF reserved
FE = Interface("fe", fe_cluster_cpus, "kernel", mesh_limit=0xFF)
#: PCA-200 + U-Net firmware on its i960
ATM = Interface("atm", atm_cluster_cpus, "i960")


def _taxi():
    # "a 140 Mb/s ATM network": the Section-5 cluster's fibers and trunks
    from .atm.phy import TAXI_140

    return TAXI_140


def _taxi_fibers() -> Dict[str, Any]:
    return {"phy": _taxi()}


def _clos(n: int) -> Dict[str, Any]:
    leaves, spines, per_leaf = clos_shape(n)
    return {"leaves": leaves, "spines": spines, "hosts_per_leaf": per_leaf}


@dataclass(frozen=True)
class Network:
    """One row: a network that can be built by name."""

    name: str
    #: the NI(s) its hosts carry, host 0's first
    nis: Tuple[Interface, ...]
    factory: str
    label: str
    aliases: Tuple[str, ...] = ()
    #: constructor keywords of an ``n``-host build
    shape: Callable[[int], Dict[str, Any]] = lambda n: {}
    #: ``add_host`` keywords of a ``Cluster`` (two-host rigs pick their
    #: own: Figure 5 measures OC-3 fibers, Figure 6 TAXI)
    cluster_host: Callable[[], Dict[str, Any]] = dict
    #: the most hosts its builder takes (None: it sizes its devices to
    #: ``n``); declared so a caller refuses before it builds anything
    max_hosts: Optional[int] = None

    @property
    def ni(self) -> Interface:
        """The NI of host 0 — the node whose mesh a host-coordinated
        collective loads, and whose cluster the default CPUs come from."""
        return self.nis[0]

    def check_hosts(self, n: int) -> None:
        """Refuse ``n`` hosts above :attr:`max_hosts` (:class:`TooManyHosts`)."""
        if self.max_hosts is not None and n > self.max_hosts:
            raise TooManyHosts(f"substrate {self.name!r} holds at most "
                               f"{self.max_hosts} hosts, not {n}")

    def build(self, sim, n: int = 2):
        """A fresh network of this kind on ``sim``, sized for ``n`` hosts."""
        self.check_hosts(n)
        module, _, cls = self.factory.partition(":")
        return getattr(importlib.import_module(module), cls)(sim, **self.shape(n))


NETWORKS: Dict[str, Network] = {row.name: row for row in (
    Network("fe-hub", (FE,), "repro.ethernet.network:HubNetwork",
            "U-Net/FE (100BaseTX hub)"),
    # one Bay 28115: 16 ports
    Network("fe-switch", (FE,), "repro.ethernet.network:SwitchedNetwork",
            "U-Net/FE (Bay 28115)", aliases=("fe", "ethernet"), max_hosts=16),
    Network("fe-beowulf", (FE,), "repro.ethernet.bonding:BeowulfNetwork",
            "U-Net/FE (two bonded hubs, Beowulf style)"),
    Network("fe-clos", (FE,), "repro.fabric.fe_clos:ClosFeNetwork",
            "U-Net/FE (Bay 28115 leaf/spine Clos)", shape=_clos),
    Network("atm", (ATM,), "repro.atm.network:AtmNetwork",
            "U-Net/ATM (ASX-200)", cluster_host=_taxi_fibers),
    Network("atm-clos", (ATM,), "repro.fabric.atm_clos:ClosAtmFabric",
            "U-Net/ATM (ASX-200 leaf/spine Clos)",
            shape=lambda n: {**_clos(n), "trunk_phy": _taxi()},
            cluster_host=_taxi_fibers),
    # half the hosts per side, two leaves each
    Network("mixed", (ATM, FE), "repro.fabric.mixed:MixedFabric",
            "U-Net/ATM and U-Net/FE Clos halves joined by a relay host",
            shape=lambda n: {"hosts_per_leaf": max(2, -(-n // 4))}),
)}

_BY_ALIAS = {alias: row for row in NETWORKS.values() for alias in row.aliases}

#: U-Net/OS on real sockets: name -> (transport kind, doorbell mode);
#: None is the best transport on this machine, or the default doorbell
LIVE: Dict[str, Tuple[Optional[str], Optional[str]]] = {
    "live": (None, None),
    "live-unix": ("unix", None),
    "live-udp": ("udp", None),
    "live-batched": (None, "batched"),
    "live-event": (None, "event"),
}


def names() -> Tuple[str, ...]:
    """The row names, in table order."""
    return tuple(NETWORKS)


def get(name: str) -> Network:
    """The row called ``name`` (or aliased to it)."""
    row = NETWORKS.get(name) or _BY_ALIAS.get(name)
    if row is None:
        raise ValueError(f"unknown substrate {name!r}; choose from {names()} "
                         f"(aliases: {', '.join(sorted(_BY_ALIAS))})")
    return row
