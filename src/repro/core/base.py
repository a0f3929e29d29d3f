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
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..sim import Discarded, Simulator, TraceRecorder
from .endpoint import DROP_COUNTERS, Endpoint, EndpointConfig, drop_stats
from .errors import AdmissionRejected, EndpointError
from .mux import DemuxTable
from .tenancy import qos_class

__all__ = ["UNetBackend", "Closing", "SimulatedNetwork", "TrunkedFabric"]

#: the receive-path drop classes only an endpoint books
#: (:meth:`Endpoint.note_drop`, :meth:`Endpoint.deliver`), even where the
#: backend's receive path is what sheds the message
_ENDPOINT_BOOKED = ("recv_queue_drops", "no_buffer_drops", "quarantine_drops")


def _endpoint_sum(name: str) -> property:
    """Drop class ``name`` read on a backend: the sum over the endpoints
    it serves and those it destroyed, in-flight traffic included."""
    return property(lambda backend: sum(
        getattr(endpoint, name) for endpoint in backend.endpoints + backend._destroyed))


class UNetBackend(abc.ABC):
    """What a substrate must provide to host U-Net endpoints."""

    #: this substrate's wire format, declared beside its PDU type
    #: (``CellWire``, ``FrameWire``, ``DatagramWire``): which units form a
    #: PDU, where its AM header starts, how to rewrite, corrupt or forge
    #: one.  It is all the fault layer knows of the format.
    wire: type

    #: the drop classes booked here; the rest are the endpoints' alone,
    #: so a report that walks both layers counts each drop once
    COUNTERS = tuple(name for name in DROP_COUNTERS if name not in _ENDPOINT_BOOKED)
    PARTS = ("endpoints",)
    #: the classes the protocol above books on an endpoint read zero here
    stale_epoch_drops = peer_dead_drops = 0
    #: ``drop_stats()`` reads the receive path's classes off the endpoints
    recv_queue_drops = _endpoint_sum("recv_queue_drops")
    no_buffer_drops = _endpoint_sum("no_buffer_drops")
    quarantine_drops = _endpoint_sum("quarantine_drops")

    def __init__(self, sim: Simulator, name: str) -> None:
        #: the simulator; a live node's is its cluster's runner
        #: (``LiveCluster.sim``), which a wall clock drives
        self.sim = sim
        self.name = name
        self.endpoints: List[Endpoint] = []
        #: endpoints torn down, whose drops still count toward this NI's
        self._destroyed: List[Endpoint] = []
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
        self._destroyed.append(endpoint)
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

    Beside ``add_host`` and ``connect`` it offers a rig what a
    :class:`~repro.live.backend.LiveCluster` offers, so one rig runs on
    either clock: the AM driver, the request / rpc / send processes, a
    run to a limit and the settle after it.
    """

    sim: Simulator
    hosts: List[Any]
    #: its telemetry parts (:mod:`repro.telemetry`): the devices that
    #: stand between the hosts — switches, media, routers — then the hosts
    PARTS: Tuple[str, ...]
    @property
    def am_class(self) -> type:
        """The AM driver its hosts run: :class:`~repro.am.AmEndpoint`."""
        from ..am import AmEndpoint

        return AmEndpoint

    @staticmethod
    def am_timers(config):
        """``config`` with the AM timers this clock needs: unchanged, the
        protocol's defaults are sized for simulated time."""
        return config

    @staticmethod
    def request(am, dest: int, handler: int, args, data: bytes) -> Generator:
        """Process: one AM request from ``am``; returns its sequence number."""
        return am.request(dest, handler, args, data)

    @staticmethod
    def rpc(am, dest: int, handler: int, args, data: bytes) -> Generator:
        """Process: one AM rpc from ``am``; returns the reply's ``(args, data)``."""
        return am.rpc(dest, handler, args, data)

    @staticmethod
    def send(user, channel: int, payload: bytes) -> Generator:
        """Process: one raw U-Net send on ``user``'s ``channel``."""
        return user.send(channel, payload)

    def run(self, until_us: float, ams: Sequence) -> None:
        """Run the simulator to ``until_us``; the AM endpoints ``ams``
        run as its processes already."""
        self.sim.run(until=until_us)

    def settle(self, ams: Sequence, until_us: float) -> None:
        """After a workload: stop the AM endpoints' timers, then let what
        is in flight land until ``until_us``."""
        for am in ams:
            am.shutdown()
        self.sim.run(until=until_us)

    @property
    def simulated_events(self) -> int:
        """Events its simulator has processed."""
        return self.sim.events_processed

    def close(self) -> Discarded:
        """Close the simulator (parked firmware and receivers end where
        they wait, queued work is discarded), then every NI.  Returns the
        simulator's report of what it discarded; counters everywhere
        stay readable.  Idempotent."""
        discarded = self.sim.close()
        for host in self.hosts:
            host.backend.close()
        return discarded


class TrunkedFabric(SimulatedNetwork):
    """Switches joined by duplex trunks per a :class:`~repro.fabric.
    topology.Topology`, hosts on its leaves: the skeleton both NIs grow
    past one switch on.

    What Section 4.4.3 says differs (ATM sets up virtual circuits
    network-wide, FE programs flat MAC tables) is a subclass's signaling
    plane: ``_trunk(a, b)`` builds the link from switch ``a`` toward
    ``b``, and ``_reroute(a, b, up)`` re-programs the routes a trunk's
    change touched.  A switch offers ``attach_egress(link) -> port`` and
    ``ingress(port)``, the callback a link into that port delivers to.
    """

    COUNTERS = ("reroutes",)
    PARTS = ("switches", "hosts")
    #: a leaf's host seats (a Clos builder sets it before ``__init__``);
    #: None: unlimited, and a host not placed goes on switch 0
    hosts_per_leaf: Optional[int] = None

    def __init__(self, sim: Simulator, topology: Any, switches: List[Any]) -> None:
        if self.hosts_per_leaf is not None and self.hosts_per_leaf < 1:
            raise ValueError("need at least one host per leaf")
        self.sim = sim
        self.topology = topology
        self.switches = switches
        self.hosts: List[Any] = []
        self.reroutes = 0
        #: (switch, neighbour) -> port on ``switch`` whose egress trunk
        #: leads to ``neighbour``, and that trunk: trunk ports come first,
        #: in topology order, then host ports
        self._trunk_port: Dict[Tuple[int, int], int] = {}
        self._trunk_links: Dict[Tuple[int, int], Any] = {}
        #: attached NIC -> the switch it hangs off
        self._switch_of: Dict[Any, int] = {}
        for a, b in topology.trunks:
            pair = ((a, b), (b, a))
            for x, y in pair:
                link = self._trunk_links[(x, y)] = self._trunk(x, y)
                self._trunk_port[(x, y)] = switches[x].attach_egress(link)
            for x, y in pair:
                self._trunk_links[(x, y)].deliver = switches[y].ingress(self._trunk_port[(y, x)])

    @property
    def leaves(self) -> int:
        return self.topology.leaves

    @property
    def spines(self) -> int:
        return self.topology.spines

    def trunk_link(self, a: int, b: int):
        """The egress trunk from switch ``a`` toward adjacent ``b`` (on a
        Clos a leaf is its own index, a spine ``leaves + spine``); fault
        injection and tests interpose on its ``deliver``."""
        return self._trunk_links[(a, b)]

    def _place(self, switch: Optional[int]) -> int:
        """The leaf a new host goes on: ``switch``, or the next free seat
        filling leaves left to right.  Refuses (``ValueError``) before
        anything is built."""
        if switch is None:
            switch = len(self.hosts) // self.hosts_per_leaf if self.hosts_per_leaf else 0
        if not 0 <= switch < self.leaves:
            raise ValueError(f"no such leaf {switch} (leaves 0..{self.leaves - 1}, "
                             f"{self.hosts_per_leaf or 'any number of'} hosts each)")
        return switch

    def set_trunk_state(self, a: int, b: int, up: bool) -> bool:
        """Fail (``up=False``) or restore the duplex trunk ``a — b``.

        Both directional links go down together and blackhole the units
        in flight on them (each counts its ``blackholed``, as a yanked
        fiber would); then the signaling plane re-programs what crossed
        the trunk.  Returns True when the state changed."""
        if not self.topology.set_trunk(a, b, up):
            return False
        self._trunk_links[(a, b)].up = self._trunk_links[(b, a)].up = up
        self._reroute(a, b, up)
        return True

    def backends_reachable(self, backend_a, backend_b) -> bool:
        """Whether a live switch path joins the two attached NICs."""
        return self.topology.connected(self._switch_of[backend_a],
                                       self._switch_of[backend_b])

    def hops_between(self, a, b) -> int:
        """Switches a message between endpoints ``a`` and ``b`` traverses."""
        return self.topology.hops(self._switch_of[a.backend], self._switch_of[b.backend])
