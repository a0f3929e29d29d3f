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
from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Sequence, Set, Tuple

from ..core.errors import UNetError
from ..sim import Simulator
from .tree import GEN_MOD, KAryTree, gen_after, next_gen

__all__ = [
    "RTO_US",
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


#: host -> NIC descriptor store announcing a collective op
DOORBELL_US = 0.5
#: give up (loudly) after this many retransmits of one packet
MAX_RETRIES = 50
#: suspect the peer to the membership layer after this many
#: retransmits (liveness timeout = LIVENESS_RETRIES * RTO_US)
LIVENESS_RETRIES = 8
#: per-edge retransmit timer
RTO_US = 2000.0


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
        ahead = self.ahead
        ahead.add(gen)
        step = (self.floor + 1) % GEN_MOD  # next_gen, once per step
        while step in ahead:
            ahead.discard(step)
            self.floor, step = step, (step + 1) % GEN_MOD
        return True


class _State:
    """One pending generation of one collective on this NIC: the
    contributions combined so far (the host's own and its children's;
    a barrier's are empty), the reduce op/dtype byte, the host's
    waiting event and whether the subtree's value went up."""

    __slots__ = ("contrib", "meta", "event", "sent_up")

    def __init__(self) -> None:
        self.contrib: Dict[int, bytes] = {}
        self.meta: Optional[int] = None
        self.event = None
        self.sent_up = False


def _combine(contrib: Dict[int, bytes], meta: int) -> bytes:
    """Elementwise reduction over the contributions, sorted by node id,
    with the op and dtype that the wire byte ``meta`` names.

    The sort makes the result a pure function of the *set* of
    contributions — independent of arrival order — which is what the
    property tests pin down (and, for floats, keeps it bit-exact).
    """
    import numpy as np

    dtype = REDUCE_DTYPES[meta >> 2]
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
    fn = (np.add, np.maximum, np.minimum)[meta & 0x3]
    for array in arrays[1:]:
        fn(out, array, out=out)
    return out.tobytes()


class _Tree:
    """One collective's k-ary tree protocol on this NIC.

    Every collective is the same protocol: contributions combine up
    (``up_kind``; None for broadcast, whose root starts the down phase)
    and the result disseminates down (``down_kind``), one packet per
    edge.  The record holds what is per collective: the host's
    generation counter, the pending generations, the dedup window and
    repair cache of the down packets, the down payloads the host has not
    asked for yet, and the combine step (None: the barrier sends empty
    packets up).
    """

    __slots__ = ("name", "up_kind", "down_kind", "combine", "counter", "gen",
                 "states", "win", "cache", "stash")

    def __init__(self, name: str, up_kind: Optional[int], down_kind: int,
                 combine: Optional[Callable[[Dict[int, bytes], int], bytes]],
                 counter: str) -> None:
        self.name = name
        self.up_kind = up_kind
        self.down_kind = down_kind
        self.combine = combine
        #: the engine counter a completed host call bumps
        self.counter = counter
        #: the generation the host asks for next
        self.gen = 0
        self.states: Dict[int, _State] = {}
        self.win = _GenWindow()
        #: recently delivered down payloads, re-pushed along new edges
        #: after a heal
        self.cache: Dict[int, bytes] = {}
        self.stash: Dict[int, bytes] = {}


class NicCollectiveEngine:
    """One node's collective engine, resident on its NIC.

    The host-facing generators — ``barrier()``, ``broadcast(data=None)``
    (the root supplies the data) and ``allreduce(data, op="sum",
    dtype="i")`` — each return the down payload (the broadcast data,
    the combined reduce; empty for a barrier).  They charge one doorbell
    and then sleep on a simulation event; everything else runs in NIC
    firmware via the adapter.  The three are one entry, :meth:`_host`,
    bound to each collective's :class:`_Tree` without a frame of its own.
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
    ) -> None:
        self.sim = sim
        self.node = node
        self.tree = tree
        self.adapter = adapter
        self.parent = tree.parent(node)
        self.children = tree.children(node)
        barrier = _Tree("barrier", ARRIVE, RELEASE, None, "barriers_completed")
        reduce = _Tree("reduce", REDUCE_UP, RESULT, _combine, "reduces_completed")
        bcast = _Tree("bcast", None, BCAST, None, "broadcasts_completed")
        #: a heal re-drives pending states and re-pushes repairs in this order
        self._trees = (barrier, reduce, bcast)
        self._by_kind = {ARRIVE: barrier, RELEASE: barrier, REDUCE_UP: reduce,
                         RESULT: reduce, BCAST: bcast}
        self.barrier = partial(self._host, barrier)
        self.broadcast = partial(self._host, bcast)
        self.allreduce = partial(self._host, reduce)
        # per-edge reliability: (peer, kind, gen) -> [packet, attempts]
        self._unacked: Dict[Tuple[int, int, int], List] = {}
        self._rto_timers = sim.lane()  # one constant timeout: armed in expiry order
        # fault tolerance: current tree epoch, liveness
        self.epoch = 0
        self.crashed = False
        #: the membership layer (a CollectiveGroup), if any is attached
        self.group = None
        self._abort_exc: Optional[CollectiveAborted] = None
        self._suspected: Set[int] = set()
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

    @property
    def pending(self) -> int:
        """Generations in flight on this NIC, over every collective."""
        return sum(len(tree.states) for tree in self._trees)

    def _check_usable(self) -> None:
        if self.crashed:
            raise CollectiveError(f"node {self.node}: NIC has crashed")
        if self._abort_exc is not None:
            raise self._abort_exc

    # ------------------------------------------------------- host interface
    def _host(self, tree: _Tree, data: Optional[bytes] = None, op: str = "sum",
              dtype: str = "i") -> Generator:
        """Host side of one collective: the host's contribution enters
        the tree (a broadcast root's payload goes straight down), and
        the call completes when the down payload reached this NIC."""
        self._check_usable()
        yield DOORBELL_US
        self._check_usable()
        meta = 0
        if tree.combine is not None:
            if op not in REDUCE_OPS:
                raise CollectiveError(f"unknown reduce op {op!r} (use {REDUCE_OPS})")
            wire_dtype = reduce_wire_dtype(dtype)
            if wire_dtype is None:
                raise CollectiveError(f"unsupported reduce dtype {dtype!r}")
            meta = REDUCE_OPS.index(op) | (REDUCE_DTYPES.index(wire_dtype) << 2)
        root = tree.up_kind is None and self.parent is None
        if root and data is None:
            raise CollectiveError("broadcast root must supply the data")
        payload = b""
        if data is not None:
            payload = bytes(data)
            if len(payload) > self.max_data:
                raise CollectiveError(
                    f"collective payload of {len(payload)} bytes exceeds the "
                    f"engine limit of {self.max_data}")
        gen = tree.gen
        tree.gen = next_gen(gen)
        result = tree.stash.pop(gen, None)
        if result is None:
            if root:
                self._down(tree, gen, payload)
                result = payload
            else:
                state = tree.states.get(gen)
                if state is None:
                    state = tree.states[gen] = _State()
                state.event = self.sim.event(name=f"{tree.name}.{self.node}.{gen}")
                if tree.up_kind is not None:
                    state.meta = meta
                    state.contrib[self.node] = payload
                    self._try(tree, gen)
                result = yield state.event
        setattr(self, tree.counter, getattr(self, tree.counter) + 1)
        return result

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
        tree = self._by_kind[kind]
        if kind == tree.up_kind:
            self._on_up(tree, gen, src, meta, payload)
        else:
            self._down(tree, gen, payload)

    # ------------------------------------------------ firmware: the tree
    def _on_up(self, tree: _Tree, gen: int, src: int, meta: int,
               payload: bytes) -> None:
        if tree.win.seen(gen):
            # already came down: a stale retransmit, or an orphan a heal
            # re-parented under us re-offering a finished generation —
            # answer with the cached down packet so it completes
            cached = tree.cache.get(gen)
            if cached is not None:
                self._send_reliable(src, tree.down_kind, gen, 0, cached)
            return
        if tree.combine is not None and (
                meta & 0x3 >= len(REDUCE_OPS) or meta >> 2 >= len(REDUCE_DTYPES)):
            raise CollectiveError(f"node {self.node}: unknown reduce op/dtype {meta:#04x}")
        state = tree.states.get(gen)
        if state is None:
            state = tree.states[gen] = _State()
        if state.meta is None:
            state.meta = meta
        state.contrib[src] = payload
        self._try(tree, gen)

    def _try(self, tree: _Tree, gen: int) -> None:
        """Send the subtree's combined value up (at the root: start the
        down phase) once the host and every child contributed."""
        state = tree.states.get(gen)
        if state is None or state.sent_up or self.node not in state.contrib:
            return
        if not state.contrib.keys() >= set(self.children):
            return
        combined = b"" if tree.combine is None else tree.combine(state.contrib, state.meta)
        if self.parent is None:
            self._down(tree, gen, combined)
        else:
            state.sent_up = True
            self._send_reliable(self.parent, tree.up_kind, gen, state.meta, combined)

    def _down(self, tree: _Tree, gen: int, payload: bytes) -> None:
        if not tree.win.add(gen):
            return  # duplicate: delivered (at most) once to the host
        self._cache_put(tree.cache, gen, payload)
        for child in self.children:
            self._send_reliable(child, tree.down_kind, gen, 0, payload)
        state = tree.states.pop(gen, None)
        if state is not None and state.event is not None:
            state.event.succeed(payload)
        elif (gen - tree.gen) % GEN_MOD < GEN_MOD // 2:
            # the host has not asked for it yet (a generation it has
            # asked for and holds no state of was aborted: dropped)
            tree.stash[gen] = payload

    # ----------------------------------------------- per-edge reliability
    def _send_reliable(self, peer: int, kind: int, gen: int, meta: int,
                       payload: bytes) -> None:
        key = (peer, kind, gen)
        packet = _HEADER.pack(kind, meta, gen, self.node, self.epoch) + payload
        self._unacked[key] = [packet, 0]
        self._xmit(peer, packet)
        self._rto_timers.call_at(self.sim._now + RTO_US, self._retransmit, key)

    def _retransmit(self, key: Tuple[int, int, int]) -> None:
        if self.crashed:
            return
        entry = self._unacked.get(key)
        if entry is None:
            return  # acked in the meantime
        entry[1] += 1
        peer = key[0]
        if self.group is not None:
            if entry[1] >= LIVENESS_RETRIES and peer not in self._suspected:
                # liveness timeout: hand the evidence to the membership
                # layer, which heals (peer dead), aborts (partitioned),
                # or lets us keep retrying (transient, reroute coming)
                self._suspected.add(peer)
                self.group.suspect(self.node, peer)
                if self._unacked.get(key) is not entry:
                    return  # the heal/abort already rewired this edge
            if entry[1] > MAX_RETRIES:
                # last resort against an undiagnosed black hole: force
                # the membership decision rather than retry forever
                self.group.suspect(self.node, peer, exhausted=True)
                return
        elif entry[1] > MAX_RETRIES:
            raise CollectiveError(
                f"node {self.node}: no ACK from node {peer} for kind {key[1]} "
                f"generation {key[2]} after {MAX_RETRIES} retransmits"
            )
        self.retransmissions += 1
        self._xmit(peer, entry[0])
        self._rto_timers.call_at(self.sim._now + RTO_US, self._retransmit, key)

    def _xmit(self, peer: int, packet: bytes) -> None:
        self.packets_sent += 1
        self.adapter.send(peer, packet)

    @staticmethod
    def _cache_put(cache: Dict[int, bytes], gen: int, value: bytes) -> None:
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
        for tree in self._trees:
            for gen, state in sorted(tree.states.items()):
                own = state.contrib.get(self.node)
                state.contrib = {} if own is None else {self.node: own}
                state.sent_up = False
                self._try(tree, gen)
        repairs = [(tree.down_kind, gen, payload)
                   for tree in self._trees for gen, payload in tree.cache.items()]
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
        for tree in self._trees:
            for state in tree.states.values():
                if state.event is not None and not state.event.triggered:
                    state.event.fail(exc)
            tree.states.clear()

    def resume(self, gens: Sequence[int]) -> None:
        """Clear an abort once the fabric healed; each collective's
        generation counter is re-synced by the membership layer (aborts
        land between calls on different members, so counters drift by
        one), and down payloads stashed for generations the host now
        skips are dropped."""
        self._abort_exc = None
        for tree, gen in zip(self._trees, gens):
            tree.gen = gen
            tree.stash = {g: payload for g, payload in tree.stash.items()
                          if (g - gen) % GEN_MOD < GEN_MOD // 2}
