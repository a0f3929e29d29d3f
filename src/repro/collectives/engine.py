"""The NIC-resident collective engine: barrier, broadcast, reduce in firmware.

Host-coordinated collectives (the Split-C runtime's node-0 scheme) pay
the full user-level message path — doorbell, DMA, interrupt or poll,
handler dispatch — at *every* hop of the collective, and serialize N-1
arrivals through one host.  Following the NIC-based collectives line of
work (Yu, Buntinas, Panda), this engine moves the combining and
dissemination onto the network interface itself: each NIC holds a node
of a k-ary tree; arrivals and reduce contributions combine on the
controller and travel up as a single packet per edge; releases,
broadcast payloads and reduce results fan out downward — all without
crossing the I/O bus or interrupting the host except at the local leaf
of the host's own call.

The engine is substrate-independent; an *adapter* binds it to real NIC
hardware (reserved VCIs on the PCA-200's i960, a reserved U-Net port on
the DC21140 — see :mod:`~repro.collectives.adapters`).

Reliability is per-edge stop-and-wait: every protocol packet is ACKed
and retransmitted on a timer, duplicates are suppressed with a
generation window, so collectives survive the fault stages of
``repro.faults`` on trunk links.  Generations are 16-bit and wrap.

Fault tolerance beyond lost packets is *epoch-fenced healing*: when a
peer is declared dead (see :mod:`~repro.collectives.membership`), the
membership layer re-ranks the survivors into a fresh k-ary tree and
calls :meth:`NicCollectiveEngine.install_epoch` on every live engine.
Every packet carries the installing epoch; stale-epoch traffic is
fenced at ingress, pending upward state is re-driven through the new
parent, and recently-completed releases/results/broadcast payloads are
re-pushed along the new edges so no survivor waits forever on a node
that already finished (or died).  The generation windows keep delivery
to the host exactly-once throughout.  When survivors are *partitioned*
rather than bereaved, every pending collective fails with the typed
:class:`CollectiveAborted` on every member — all-or-nothing, never a
hang.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set, Tuple

from ..core.errors import UNetError
from ..sim import Simulator
from .tree import GEN_MOD, KAryTree, gen_after, next_gen

__all__ = [
    "CollectiveConfig",
    "CollectiveError",
    "CollectiveAborted",
    "NicCollectiveEngine",
    "REDUCE_OPS",
    "REDUCE_DTYPES",
]

#: packet kinds on the wire
ARRIVE = 1     # barrier: subtree fully arrived (combined upward)
RELEASE = 2    # barrier: root says go (disseminated downward)
BCAST = 3      # broadcast payload (downward)
REDUCE_UP = 4  # combined subtree contribution (upward)
RESULT = 5     # reduce result (downward)
ACK = 6        # per-edge acknowledgement (meta carries the acked kind)

#: kind(1) meta(1) generation(2) source-node(2) epoch(1), then the payload
_HEADER = struct.Struct("!BBHHB")

#: tree epochs are one wire byte and wrap; equality-compared only, so
#: wrap is safe as long as 256 heals don't race one packet's flight
EPOCH_MOD = 1 << 8

#: completed releases / results / broadcast payloads kept for re-pushing
#: along new edges after a heal (greater than any realistic in-flight depth)
_REPAIR_CACHE = 32

REDUCE_OPS = ("sum", "max", "min")
#: numpy dtype characters the one-byte meta field can carry
REDUCE_DTYPES = "bBhHiIqQfd"


def reduce_wire_dtype(dtype) -> Optional[str]:
    """The wire dtype character for ``dtype``, or None if unsupported.

    Numpy spells the same layout differently across platforms (int64 is
    ``'l'`` on LP64 Linux, ``'q'`` elsewhere); the wire format carries an
    index into :data:`REDUCE_DTYPES`, so aliases are canonicalized by
    layout equality here."""
    import numpy as np

    try:
        dt = np.dtype(dtype)
    except TypeError:
        return None
    if dt.char in REDUCE_DTYPES:
        return dt.char
    for char in REDUCE_DTYPES:
        if np.dtype(char) == dt:
            return char
    return None


class CollectiveError(UNetError):
    """A collective operation was misused or could not complete."""


class CollectiveAborted(CollectiveError):
    """The collective group aborted: the surviving members are
    partitioned (or liveness evidence is undecidable) and no tree over
    them can complete.  Raised at every member's pending call within a
    bounded time — all-or-nothing across survivors, never a hang."""

    def __init__(self, message: str = "collective aborted", *,
                 epoch: int = 0) -> None:
        super().__init__(message)
        self.epoch = epoch


@dataclass
class CollectiveConfig:
    """Engine knobs (one per node; all nodes should agree)."""

    #: host -> NIC descriptor store announcing a collective op
    doorbell_us: float = 0.5
    #: per-edge retransmit timer
    rto_us: float = 2000.0
    #: give up (loudly) after this many retransmits of one packet
    max_retries: int = 50
    #: suspect the peer to the membership layer after this many
    #: retransmits (liveness timeout = liveness_retries * rto_us)
    liveness_retries: int = 8


class _GenWindow:
    """Dedup window over wrapping 16-bit generations.

    ``floor`` plus a sparse set of generations ahead of it: everything at
    or below the floor has been seen, the set holds out-of-order arrivals
    until the floor catches up.  O(in-flight) memory, survives wrap.
    """

    __slots__ = ("floor", "ahead")

    def __init__(self) -> None:
        self.floor = GEN_MOD - 1  # i.e. "generation -1": nothing seen
        self.ahead: Set[int] = set()

    def seen(self, gen: int) -> bool:
        return not gen_after(gen, self.floor) or gen in self.ahead

    def add(self, gen: int) -> bool:
        """Record ``gen``; False if it was already in the window."""
        if self.seen(gen):
            return False
        self.ahead.add(gen)
        while next_gen(self.floor) in self.ahead:
            self.floor = next_gen(self.floor)
            self.ahead.discard(self.floor)
        return True


class _BarrierState:
    __slots__ = ("arrived", "event", "sent_up")

    def __init__(self) -> None:
        self.arrived: Set[int] = set()
        self.event = None
        self.sent_up = False


class _ReduceState:
    __slots__ = ("contrib", "op", "dtype", "event", "sent_up")

    def __init__(self) -> None:
        self.contrib: Dict[int, bytes] = {}
        self.op: Optional[str] = None
        self.dtype: Optional[str] = None
        self.event = None
        self.sent_up = False


def _combine(contrib: Dict[int, bytes], op: str, dtype: str) -> bytes:
    """Elementwise reduction over the contributions, sorted by node id.

    The sort makes the result a pure function of the *set* of
    contributions — independent of arrival order — which is what the
    property tests pin down (and, for floats, keeps it bit-exact).
    """
    import numpy as np

    dt = np.dtype(dtype)
    arrays = []
    for node in sorted(contrib):
        raw = contrib[node]
        if len(raw) % dt.itemsize or (arrays and len(raw) != arrays[0].nbytes):
            raise CollectiveError(
                f"reduce contributions disagree on length, or are not whole "
                f"{dtype!r} elements ({len(raw)} bytes from node {node})"
            )
        arrays.append(np.frombuffer(raw, dtype=dt))
    out = arrays[0].copy()
    fn = {"sum": np.add, "max": np.maximum, "min": np.minimum}[op]
    for array in arrays[1:]:
        fn(out, array, out=out)
    return out.tobytes()


class NicCollectiveEngine:
    """One node's collective engine, resident on its NIC.

    The host-facing generators (:meth:`barrier`, :meth:`broadcast`,
    :meth:`allreduce`) charge one doorbell and then sleep on a simulation
    event; everything else runs in NIC firmware via the adapter.
    """

    COUNTERS = ("packets_sent", "packets_received", "retransmissions",
                "barriers_completed", "broadcasts_completed", "reduces_completed",
                "stale_epoch_drops", "epochs_installed", "aborts")

    def __init__(
        self,
        sim: Simulator,
        node: int,
        tree: KAryTree,
        adapter,
        config: Optional[CollectiveConfig] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.tree = tree
        self.adapter = adapter
        self.config = config or CollectiveConfig()
        self.parent = tree.parent(node)
        self.children = tree.children(node)
        # barrier
        self._barrier_gen = 0
        self._barrier_state: Dict[int, _BarrierState] = {}
        self._release_win = _GenWindow()
        # broadcast
        self._bcast_gen = 0
        self._bcast_win = _GenWindow()
        self._bcast_waiting: Dict[int, object] = {}
        self._bcast_payloads: Dict[int, bytes] = {}
        # reduce
        self._reduce_gen = 0
        self._reduce_state: Dict[int, _ReduceState] = {}
        self._reduce_up_win = _GenWindow()
        self._result_win = _GenWindow()
        # per-edge reliability: (peer, kind, gen) -> [packet, attempts]
        self._unacked: Dict[Tuple[int, int, int], List] = {}
        self._rto_timers = sim.lane()  # one constant timeout: armed in expiry order
        # fault tolerance: current tree epoch, liveness, repair caches
        self.epoch = 0
        self.crashed = False
        #: the membership layer (a CollectiveGroup), if any is attached
        self.group = None
        self._abort_exc: Optional[CollectiveAborted] = None
        self._suspected: Set[int] = set()
        #: recently released barrier generations (dict used as ordered set)
        self._release_cache: Dict[int, None] = {}
        #: recently delivered reduce results / broadcast payloads, by gen
        self._result_cache: Dict[int, bytes] = {}
        self._bcast_cache: Dict[int, bytes] = {}
        # statistics
        self.packets_sent = 0
        self.packets_received = 0
        self.retransmissions = 0
        self.barriers_completed = 0
        self.broadcasts_completed = 0
        self.reduces_completed = 0
        self.stale_epoch_drops = 0
        self.epochs_installed = 0
        self.aborts = 0

    @property
    def max_data(self) -> int:
        """Largest broadcast/reduce payload one packet carries."""
        return self.adapter.max_payload - _HEADER.size

    def _check_usable(self) -> None:
        if self.crashed:
            raise CollectiveError(f"node {self.node}: NIC has crashed")
        if self._abort_exc is not None:
            raise self._abort_exc

    # ------------------------------------------------------- host interface
    def barrier(self) -> Generator:
        """Host side of one barrier; completes when the root released it."""
        self._check_usable()
        yield self.config.doorbell_us
        self._check_usable()
        gen = self._barrier_gen
        self._barrier_gen = next_gen(gen)
        state = self._barrier_state.setdefault(gen, _BarrierState())
        state.event = self.sim.event(name=f"barrier.{self.node}.{gen}")
        state.arrived.add(self.node)
        if self._release_win.seen(gen):
            # theoretical straggler path: released before we asked
            self._barrier_state.pop(gen, None)
            state.event.succeed()
        else:
            self._barrier_try(gen)
        yield state.event
        self.barriers_completed += 1

    def broadcast(self, data: Optional[bytes] = None) -> Generator:
        """Host side of one broadcast; returns the payload everywhere."""
        self._check_usable()
        yield self.config.doorbell_us
        self._check_usable()
        gen = self._bcast_gen
        self._bcast_gen = next_gen(gen)
        if self.parent is None:
            if data is None:
                raise CollectiveError("broadcast root must supply the data")
            payload = bytes(data)
            self._check_size(payload)
            self._bcast_win.add(gen)
            self._cache_put(self._bcast_cache, gen, payload)
            for child in self.children:
                self._send_reliable(child, BCAST, gen, 0, payload)
            self.broadcasts_completed += 1
            return payload
        stashed = self._bcast_payloads.pop(gen, None)
        if stashed is None:
            event = self.sim.event(name=f"bcast.{self.node}.{gen}")
            self._bcast_waiting[gen] = event
            stashed = yield event
        self.broadcasts_completed += 1
        return stashed

    def allreduce(self, data: bytes, op: str = "sum", dtype: str = "i") -> Generator:
        """Host side of one allreduce; returns the combined payload."""
        self._check_usable()
        yield self.config.doorbell_us
        self._check_usable()
        if op not in REDUCE_OPS:
            raise CollectiveError(f"unknown reduce op {op!r} (use {REDUCE_OPS})")
        wire_dtype = reduce_wire_dtype(dtype)
        if wire_dtype is None:
            raise CollectiveError(f"unsupported reduce dtype {dtype!r}")
        dtype = wire_dtype
        payload = bytes(data)
        self._check_size(payload)
        gen = self._reduce_gen
        self._reduce_gen = next_gen(gen)
        state = self._reduce_state.setdefault(gen, _ReduceState())
        state.op, state.dtype = op, dtype
        state.contrib[self.node] = payload
        state.event = self.sim.event(name=f"reduce.{self.node}.{gen}")
        self._reduce_try(gen)
        result = yield state.event
        self.reduces_completed += 1
        return result

    def _check_size(self, payload: bytes) -> None:
        if len(payload) > self.max_data:
            raise CollectiveError(
                f"collective payload of {len(payload)} bytes exceeds the "
                f"engine limit of {self.max_data}"
            )

    # --------------------------------------------------- firmware: dispatch
    def on_packet(self, raw: bytes) -> None:
        """Adapter ingress: one collective packet arrived at this NIC."""
        if self.crashed:
            return  # a dead NIC neither receives nor acks
        if len(raw) < _HEADER.size or not ARRIVE <= raw[0] <= ACK:
            # refused before it is counted, and so before it is acked
            raise CollectiveError(
                f"node {self.node}: malformed collective packet "
                f"({len(raw)} bytes, kind {raw[0] if raw else None})")
        kind, meta, gen, src, epoch = _HEADER.unpack_from(raw)
        payload = raw[_HEADER.size:]
        self.packets_received += 1
        if epoch != self.epoch:
            # fenced: traffic from before (or racing) a heal; the sender
            # either re-drives under the new epoch or is dead
            self.stale_epoch_drops += 1
            return
        if kind == ACK:
            self._unacked.pop((src, meta, gen), None)
            return
        # every data packet is acked, even duplicates (the dup means our
        # previous ack was lost or is still in flight)
        self._xmit(src, _HEADER.pack(ACK, kind, gen, self.node, self.epoch))
        if kind == ARRIVE:
            self._on_arrive(gen, src)
        elif kind == RELEASE:
            self._barrier_release(gen)
        elif kind == BCAST:
            self._on_bcast(gen, payload)
        elif kind == REDUCE_UP:
            self._on_reduce_up(gen, src, meta, payload)
        else:  # RESULT
            self._deliver_result(gen, payload)

    # ---------------------------------------------------- firmware: barrier
    def _on_arrive(self, gen: int, src: int) -> None:
        if self._release_win.seen(gen):
            # already released: either a stale retransmit, or an orphan
            # adopted by a heal re-driving a generation we finished —
            # answer it directly so the orphan never waits on history
            self._send_reliable(src, RELEASE, gen, 0, b"")
            return
        state = self._barrier_state.setdefault(gen, _BarrierState())
        state.arrived.add(src)
        self._barrier_try(gen)

    def _barrier_try(self, gen: int) -> None:
        state = self._barrier_state.get(gen)
        if state is None or self.node not in state.arrived:
            return
        if any(child not in state.arrived for child in self.children):
            return
        if self.parent is None:
            self._barrier_release(gen)
        elif not state.sent_up:
            state.sent_up = True
            self._send_reliable(self.parent, ARRIVE, gen, 0, b"")

    def _barrier_release(self, gen: int) -> None:
        if not self._release_win.add(gen):
            return  # duplicate release
        self._cache_put(self._release_cache, gen, None)
        for child in self.children:
            self._send_reliable(child, RELEASE, gen, 0, b"")
        state = self._barrier_state.pop(gen, None)
        if state is not None and state.event is not None:
            state.event.succeed()

    # -------------------------------------------------- firmware: broadcast
    def _on_bcast(self, gen: int, payload: bytes) -> None:
        if not self._bcast_win.add(gen):
            return  # duplicate: delivered (at most) once to the host
        self._cache_put(self._bcast_cache, gen, payload)
        for child in self.children:
            self._send_reliable(child, BCAST, gen, 0, payload)
        event = self._bcast_waiting.pop(gen, None)
        if event is not None:
            event.succeed(payload)
        else:
            self._bcast_payloads[gen] = payload

    # ----------------------------------------------------- firmware: reduce
    def _on_reduce_up(self, gen: int, src: int, meta: int, payload: bytes) -> None:
        if self._result_win.seen(gen):
            # result already out: a stale retransmit, or an orphan a heal
            # re-parented under us re-offering a finished generation —
            # answer with the cached result so it completes
            cached = self._result_cache.get(gen)
            if cached is not None:
                self._send_reliable(src, RESULT, gen, 0, cached)
            return
        if meta & 0x3 >= len(REDUCE_OPS) or meta >> 2 >= len(REDUCE_DTYPES):
            raise CollectiveError(f"node {self.node}: unknown reduce op/dtype {meta:#04x}")
        state = self._reduce_state.setdefault(gen, _ReduceState())
        if state.op is None:
            state.op = REDUCE_OPS[meta & 0x3]
            state.dtype = REDUCE_DTYPES[meta >> 2]
        state.contrib[src] = payload
        self._reduce_try(gen)

    def _reduce_try(self, gen: int) -> None:
        state = self._reduce_state.get(gen)
        if state is None or state.sent_up or self.node not in state.contrib:
            return
        if any(child not in state.contrib for child in self.children):
            return
        combined = _combine(state.contrib, state.op, state.dtype)
        if self.parent is None:
            self._deliver_result(gen, combined)
        else:
            meta = REDUCE_OPS.index(state.op) | (REDUCE_DTYPES.index(state.dtype) << 2)
            state.sent_up = True
            self._reduce_up_win.add(gen)
            self._send_reliable(self.parent, REDUCE_UP, gen, meta, combined)

    def _deliver_result(self, gen: int, payload: bytes) -> None:
        if not self._result_win.add(gen):
            return  # duplicate result
        self._cache_put(self._result_cache, gen, payload)
        for child in self.children:
            self._send_reliable(child, RESULT, gen, 0, payload)
        state = self._reduce_state.pop(gen, None)
        if state is not None and state.event is not None:
            state.event.succeed(payload)

    # ----------------------------------------------- per-edge reliability
    def _send_reliable(self, peer: int, kind: int, gen: int, meta: int,
                       payload: bytes) -> None:
        key = (peer, kind, gen)
        packet = _HEADER.pack(kind, meta, gen, self.node, self.epoch) + payload
        self._unacked[key] = [packet, 0]
        self._xmit(peer, packet)
        self._rto_timers.call_at(self.sim.now + self.config.rto_us, self._retransmit, key)

    def _retransmit(self, key: Tuple[int, int, int]) -> None:
        if self.crashed:
            return
        entry = self._unacked.get(key)
        if entry is None:
            return  # acked in the meantime
        entry[1] += 1
        peer = key[0]
        if self.group is not None:
            if entry[1] >= self.config.liveness_retries and peer not in self._suspected:
                # liveness timeout: hand the evidence to the membership
                # layer, which heals (peer dead), aborts (partitioned),
                # or lets us keep retrying (transient, reroute coming)
                self._suspected.add(peer)
                self.group.suspect(self.node, peer)
                if self._unacked.get(key) is not entry:
                    return  # the heal/abort already rewired this edge
            if entry[1] > self.config.max_retries:
                # last resort against an undiagnosed black hole: force
                # the membership decision rather than retry forever
                self.group.suspect(self.node, peer, exhausted=True)
                return
        elif entry[1] > self.config.max_retries:
            raise CollectiveError(
                f"node {self.node}: no ACK from node {peer} for kind {key[1]} "
                f"generation {key[2]} after {self.config.max_retries} retransmits"
            )
        self.retransmissions += 1
        self._xmit(peer, entry[0])
        self._rto_timers.call_at(self.sim.now + self.config.rto_us, self._retransmit, key)

    def _xmit(self, peer: int, packet: bytes) -> None:
        self.packets_sent += 1
        self.adapter.send(peer, packet)

    @staticmethod
    def _cache_put(cache: Dict[int, object], gen: int, value) -> None:
        cache[gen] = value
        while len(cache) > _REPAIR_CACHE:
            cache.pop(next(iter(cache)))

    # ------------------------------------------------- faults and healing
    def crash(self) -> None:
        """SIGKILL analogue: the NIC goes silent — no ingress, no acks,
        no retransmissions.  Pending host calls never complete (the host
        died with the NIC); survivors heal around this node."""
        self.crashed = True
        self._unacked.clear()

    def install_epoch(self, epoch: int, members: List[int]) -> None:
        """Adopt the healed tree over ``members`` (sorted live nodes).

        The membership layer calls this on every survivor at the same
        instant.  Survivors keep their relative order and re-rank into a
        fresh k-ary heap; all in-flight reliability state is dropped
        (stale-epoch traffic is fenced at every receiver) and pending
        work is *re-driven*:

        * pending barriers and reduces forget everything except this
          node's own arrival/contribution, then re-run — contributions
          combined under the old tree may include dead or re-parented
          subtrees, so they cannot be trusted (keeping them is exactly
          the double-delivery bug the ``heal-reroot`` conformance preset
          injects);
        * recently completed releases, results and broadcast payloads
          are re-pushed along every current edge — a survivor that
          already finished a generation answers for it instead of going
          silent, so no re-parented orphan waits forever (the dedup
          windows make the re-push at-most-once at every host).
        """
        self.epoch = epoch % EPOCH_MOD
        self.epochs_installed += 1
        rank = {node: i for i, node in enumerate(members)}
        me = rank[self.node]
        shadow = KAryTree(len(members), fanout=self.tree.fanout)
        parent_rank = shadow.parent(me)
        self.parent = None if parent_rank is None else members[parent_rank]
        self.children = [members[c] for c in shadow.children(me)]
        self._unacked.clear()
        self._suspected.clear()
        for gen, state in sorted(self._barrier_state.items()):
            state.arrived &= {self.node}
            state.sent_up = False
            self._barrier_try(gen)
        for gen, state in sorted(self._reduce_state.items()):
            own = state.contrib.get(self.node)
            state.contrib = {} if own is None else {self.node: own}
            state.sent_up = False
            self._reduce_try(gen)
        repairs = [(RELEASE, gen, b"") for gen in self._release_cache]
        repairs += [(RESULT, gen, payload)
                    for gen, payload in self._result_cache.items()]
        repairs += [(BCAST, gen, payload)
                    for gen, payload in self._bcast_cache.items()]
        neighbours = list(self.children)
        if self.parent is not None:
            neighbours.append(self.parent)
        for peer in neighbours:
            for kind, gen, payload in repairs:
                self._send_reliable(peer, kind, gen, 0, payload)

    def abort_all(self, exc: Optional[CollectiveAborted] = None) -> None:
        """Fail every pending collective with :class:`CollectiveAborted`
        and refuse new ones until :meth:`resume` — the all-or-nothing
        arm of the heal-vs-abort decision."""
        if exc is None:
            exc = CollectiveAborted(epoch=self.epoch)
        self._abort_exc = exc
        self.aborts += 1
        self._unacked.clear()
        self._suspected.clear()
        for state in self._barrier_state.values():
            if state.event is not None and not state.event.triggered:
                state.event.fail(exc)
        self._barrier_state.clear()
        for event in self._bcast_waiting.values():
            if not event.triggered:
                event.fail(exc)
        self._bcast_waiting.clear()
        for state in self._reduce_state.values():
            if state.event is not None and not state.event.triggered:
                state.event.fail(exc)
        self._reduce_state.clear()

    def resume(self, barrier_gen: int, bcast_gen: int, reduce_gen: int) -> None:
        """Clear an abort once the fabric healed; generation counters are
        re-synced by the membership layer (aborts land between calls on
        different members, so counters drift by one)."""
        self._abort_exc = None
        self._barrier_gen = barrier_gen
        self._bcast_gen = bcast_gen
        self._reduce_gen = reduce_gen
