"""Backend interface between the U-Net API and a network substrate.

A backend is the combination of NI hardware and whatever firmware or
kernel code implements U-Net on it.  Three live in this repository:
:class:`repro.atm.unet_atm.UNetAtmBackend` (custom i960 firmware on the
PCA-200), :class:`repro.ethernet.unet_fe.UNetFeBackend` (in-kernel
service routines driving the DC21140) and
:class:`repro.live.backend.LiveBackend` (a doorbell loop over real
sockets).  What they share — the endpoint lifecycle system calls, the
demux table, admission control, the drop vocabulary — is written here
once; DESIGN §2 lists what a new substrate has to add.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Tuple

from ..sim import Discarded, Simulator, TraceRecorder
from .endpoint import DROP_COUNTERS, Endpoint, EndpointConfig, drop_stats
from .errors import AdmissionRejected, EndpointError
from .mux import DemuxTable
from .tenancy import qos_class

__all__ = ["UNetBackend", "Closing", "SimulatedNetwork"]


class UNetBackend(abc.ABC):
    """What a substrate must provide to host U-Net endpoints."""

    #: this substrate's wire format, declared beside its PDU type
    #: (``CellWire``, ``FrameWire``, ``DatagramWire``): which units form a
    #: PDU, where its AM header starts, how to rewrite, corrupt or forge
    #: one.  It is all the fault layer knows of the format.
    wire: type

    COUNTERS = DROP_COUNTERS
    PARTS = ("endpoints",)
    #: the classes the protocol above books on an endpoint
    #: (:meth:`Endpoint.note_drop`) read zero here on every substrate, so
    #: a report that merges both layers counts each drop once
    stale_epoch_drops = peer_dead_drops = 0

    def __init__(self, sim: Simulator, name: str) -> None:
        #: the simulator — or, on a wall-clock substrate, the
        #: :class:`~repro.core.clock.ClockShim` standing in for it
        self.sim = sim
        self.name = name
        self.endpoints: List[Endpoint] = []
        self._next_endpoint_id = 0
        #: this host's one event stream (:mod:`repro.sim.trace`): the NI's
        #: steps and its controllers', its endpoints' deliveries and drops,
        #: its demux table's unknown tags and the AM endpoint above it
        self.trace = TraceRecorder(enabled=False)
        #: incoming tag -> (endpoint, channel); rows are installed by the
        #: network's channel service (:func:`repro.core.channels.connect_pair`)
        self.demux = DemuxTable(name=f"{name}.demux")
        self.demux.trace, self.demux.sim = self.trace, sim
        #: optional :class:`~repro.core.tenancy.AdmissionController`;
        #: when set, ``create_endpoint`` may refuse with a typed
        #: :class:`~repro.core.errors.AdmissionRejected` error
        self.admission = None
        #: endpoint creations refused by admission control — counted on
        #: the backend because no endpoint exists to own the drop
        self.admission_rejected_drops = 0
        # NI/kernel-level drop accounting (shared DROP_COUNTERS vocabulary)
        self.recv_queue_drops = 0
        self.no_buffer_drops = 0
        self.quarantine_drops = 0

    # -- endpoint lifecycle (OS-mediated system calls) ---------------------
    def create_endpoint(self, config: Optional[EndpointConfig] = None, owner: str = "",
                        tenant: str = "", qos: str = "") -> Endpoint:
        """System call: validate, pass admission control, create.

        ``tenant``/``qos`` carry the caller's multi-tenant identity; when
        an admission controller is attached, a refused creation raises
        :class:`~repro.core.errors.AdmissionRejected` in the caller's
        own system call and is counted as ``admission_rejected_drops``.
        """
        if self.admission is not None:
            try:
                self.admission.admit(tenant, qos_class(qos))
            except AdmissionRejected:
                self.admission_rejected_drops += 1
                raise
        endpoint = Endpoint(self.sim, self._next_endpoint_id, config or EndpointConfig(),
                            owner=owner, tenant=tenant, qos=qos)
        endpoint.trace = self.trace
        self._next_endpoint_id += 1
        self.endpoints.append(endpoint)
        return endpoint

    def destroy_endpoint(self, endpoint: Endpoint) -> None:
        """System call: tear an endpoint down.

        The kernel/firmware stops demultiplexing to it (its demux rows
        vanish) and the endpoint returns its buffer area, queues and
        channels (Section 3); in-flight messages addressed to it are
        dropped with the protection counters, exactly as traffic to a
        dead process should be.
        """
        if endpoint not in self.endpoints:
            raise EndpointError(f"endpoint {endpoint.id} does not belong to {self.name}")
        self.endpoints.remove(endpoint)
        self.demux.unregister_endpoint(endpoint)
        endpoint.release()
        if self.admission is not None:
            self.admission.release(endpoint.tenant)

    def close(self) -> None:
        """The NI goes away with its machine: every endpoint returns what
        it holds and the demux table empties.  The endpoints stay listed
        and every counter stays readable — a closed machine is what a
        report is read from.  Idempotent."""
        for endpoint in self.endpoints:
            endpoint.release()
        self.demux.clear()

    # -- data path ---------------------------------------------------------
    @property
    @abc.abstractmethod
    def max_pdu(self) -> int:
        """Largest message the substrate carries without fragmentation."""

    @abc.abstractmethod
    def kick(self, endpoint: Endpoint):
        """Notify the NI of send descriptors the application pushed.

        On U-Net/ATM this is the cheap doorbell store into NI memory
        (~host overhead only); on U-Net/FE it is the fast trap into the
        kernel, which synchronously services the send queue — both are
        processes the simulator runs.  On U-Net/OS it is a plain call
        that drains the queue onto the socket before it returns.
        """

    # -- instrumentation -----------------------------------------------------
    @property
    def host_send_overhead_us(self) -> float:
        """Host-processor time consumed per small-message send (Section 4.4)."""
        raise NotImplementedError

    @property
    def unknown_tag_drops(self) -> int:
        """Arrivals the demux table found no row for."""
        return self.demux.unknown_tag_drops

    drop_stats = drop_stats


class Closing:
    """``with thing:`` ends with ``thing.close()``."""

    def __enter__(self):
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SimulatedNetwork(Closing):
    """The life of a simulated machine: built, run, closed.

    Every simulated network (hub, switch, fabric) is one of these: it
    runs on :attr:`sim`, lists its :attr:`hosts`, and is the object
    whose :meth:`close` ends the machine — ``with HubNetwork(sim) as
    net:`` closes it on the way out.
    """

    sim: Simulator
    hosts: List[Any]
    #: its telemetry parts (:mod:`repro.telemetry`): the devices that
    #: stand between the hosts — switches, media, routers — then the hosts
    PARTS: Tuple[str, ...]

    def close(self) -> Discarded:
        """Close the simulator (parked firmware and receivers end where
        they wait, queued work is discarded), then every NI.  Returns the
        simulator's report of what it discarded; counters everywhere
        stay readable.  Idempotent."""
        discarded = self.sim.close()
        for host in self.hosts:
            host.backend.close()
        return discarded
