"""Tenant QoS classes and endpoint admission control.

The paper's U-Net multiplexes many user-level applications onto one NI;
this module adds the policy layer a *population* of tenants needs.  A
:class:`QosClass` bundles what a tenant's service tier means in U-Net
terms: the :class:`~repro.core.health.HealthConfig` policy the watchdog
applies (best-effort tenants are quarantined outright; paid tiers get
self-relieving backpressure) and whether admission may refuse the tier
to protect the paid ones.

:class:`AdmissionController` guards endpoint creation: a host has a
finite endpoint capacity (real NIs have finite demux/doorbell
resources), a slice of which is reserved for the paid classes.
Refusal is a *typed* error raised in the caller's own system call
(:class:`~repro.core.errors.AdmissionRejected`) and counted under the
shared drop vocabulary as
``admission_rejected_drops`` — owned by the backend, since no endpoint
exists to own it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .errors import AdmissionRejected
from .health import POLICIES, POLICY_BACKPRESSURE, POLICY_QUARANTINE, HealthConfig

__all__ = [
    "QOS_GOLD",
    "QOS_SILVER",
    "QOS_BEST_EFFORT",
    "QOS_CLASSES",
    "QosClass",
    "qos_class",
    "AdmissionConfig",
    "AdmissionController",
]

QOS_GOLD = "gold"
QOS_SILVER = "silver"
QOS_BEST_EFFORT = "best_effort"


@dataclass(frozen=True)
class QosClass:
    """What one service tier means, in U-Net terms."""

    name: str
    #: containment policy the health watchdog applies by default
    health_policy: str = POLICY_BACKPRESSURE
    #: True when admission may refuse this class to protect paid tiers
    preemptable: bool = False

    def __post_init__(self) -> None:
        if self.health_policy not in POLICIES:
            raise ValueError(f"unknown health policy {self.health_policy!r}")

    def health_config(self, **overrides) -> HealthConfig:
        """Watchdog defaults for this tier (overrides win)."""
        kwargs = dict(policy=self.health_policy)
        kwargs.update(overrides)
        return HealthConfig(**kwargs)


#: the three stock tiers; hosts may register their own
QOS_CLASSES: Dict[str, QosClass] = {
    QOS_GOLD: QosClass(name=QOS_GOLD, health_policy=POLICY_BACKPRESSURE),
    QOS_SILVER: QosClass(name=QOS_SILVER, health_policy=POLICY_BACKPRESSURE),
    QOS_BEST_EFFORT: QosClass(name=QOS_BEST_EFFORT, health_policy=POLICY_QUARANTINE,
                              preemptable=True),
}


def qos_class(name: str) -> QosClass:
    """Look up a tier by name; empty/unknown names get best-effort."""
    return QOS_CLASSES.get(name, QOS_CLASSES[QOS_BEST_EFFORT])


@dataclass
class AdmissionConfig:
    """Per-host endpoint capacity and how it is shared."""

    #: hard endpoint capacity of the host (demux/doorbell resources)
    max_endpoints: int = 1024
    #: fraction of capacity reserved for non-preemptable (paid) classes:
    #: preemptable tenants are refused once occupancy crosses
    #: ``(1 - reserved_fraction) * max_endpoints``
    reserved_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.max_endpoints < 1:
            raise ValueError("max_endpoints must be >= 1")
        if not 0.0 <= self.reserved_fraction < 1.0:
            raise ValueError("reserved_fraction must be in [0, 1)")

    @property
    def preemptable_limit(self) -> int:
        """Occupancy above which preemptable classes are refused."""
        return int((1.0 - self.reserved_fraction) * self.max_endpoints)


class AdmissionController:
    """Admission control for one host's endpoint population.

    ``admit`` either reserves a slot or raises
    :class:`~repro.core.errors.AdmissionRejected`; every rejection is
    counted (total and per QoS class) so the backend can surface it as
    ``admission_rejected_drops`` in the shared vocabulary.
    """

    COUNTERS = ("occupancy", "max_endpoints", "admitted", "rejected",
                "rejected_by_class", "tenants")

    def __init__(self, config: Optional[AdmissionConfig] = None) -> None:
        self.config = config or AdmissionConfig()
        self.occupancy = 0
        self._per_tenant: Dict[str, int] = {}
        self.admitted = 0
        self.rejected = 0
        self.rejected_by_class: Dict[str, int] = {}

    def _reject(self, tenant: str, qos: QosClass, reason: str) -> None:
        self.rejected += 1
        self.rejected_by_class[qos.name] = self.rejected_by_class.get(qos.name, 0) + 1
        raise AdmissionRejected(
            f"tenant {tenant!r} ({qos.name}): {reason}",
            tenant=tenant, qos=qos.name, reason=reason)

    def admit(self, tenant: str, qos: QosClass) -> None:
        """Reserve one endpoint slot for ``tenant`` or raise."""
        cfg = self.config
        if self.occupancy >= cfg.max_endpoints:
            self._reject(tenant, qos, "host at endpoint capacity")
        if qos.preemptable and self.occupancy >= cfg.preemptable_limit:
            self._reject(tenant, qos,
                         "remaining capacity reserved for paid classes")
        self.occupancy += 1
        self._per_tenant[tenant] = self._per_tenant.get(tenant, 0) + 1
        self.admitted += 1

    def release(self, tenant: str) -> None:
        """Return a slot on endpoint destruction."""
        if self.occupancy <= 0:
            return
        self.occupancy -= 1
        held = self._per_tenant.get(tenant, 0)
        if held <= 1:
            self._per_tenant.pop(tenant, None)
        else:
            self._per_tenant[tenant] = held - 1

    @property
    def max_endpoints(self) -> int:
        return self.config.max_endpoints

    @property
    def tenants(self) -> int:
        """Tenants holding at least one endpoint slot."""
        return len(self._per_tenant)
