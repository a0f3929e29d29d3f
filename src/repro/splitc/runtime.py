"""The Split-C runtime: SPMD global-address-space operations over AM.

Provides what the benchmark suite needs of Split-C (Culler et al.):

* spread arrays with ``(node, array, index)`` global pointers;
* blocking ``get``/``put`` of array slices;
* split-phase one-way ``store`` with :meth:`all_store_sync`;
* reductions and broadcasts;
* barriers;
* explicit computation charging against the host CPU model, with
  separate accounting of computation vs communication time (the paper's
  Figure 7 splits execution into "cpu" and "net" portions).

All communication compiles down to Active Messages, exactly as the real
Split-C implementation over U-Net did (Section 5).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

import numpy as np

from ..am.am import AmConfig, AmEndpoint, RequestContext
from ..collectives.engine import reduce_wire_dtype
from ..hw.cpu import CpuModel
from ..sim import Event, Simulator
from .costs import DEFAULT_COSTS
from .memory import GlobalHeap

__all__ = ["SplitCRuntime", "SplitCError"]

# runtime handler ids
H_STORE = 0x10
H_ADD = 0x11
H_ANNOUNCE = 0x12
H_BARRIER_ARRIVE = 0x13
H_BARRIER_RELEASE = 0x14
H_BCAST = 0x15
H_FETCH = 0x16
H_FETCH_DONE = 0x17
H_GET_SMALL = 0x18
H_PUT_SMALL = 0x19


class SplitCError(Exception):
    """Split-C runtime usage or protocol error."""


class SplitCRuntime:
    """One node's view of the Split-C machine."""

    COUNTERS = ("barriers_entered", "syncs_completed", "gets_issued", "puts_issued",
                "fetches_issued", "compute_time", "comm_time")

    def __init__(
        self,
        node: int,
        nprocs: int,
        am: AmEndpoint,
        cpu: CpuModel,
    ) -> None:
        self.node = node
        self.nprocs = nprocs
        self.am = am
        self.cpu = cpu
        self.costs = DEFAULT_COSTS
        self.sim: Simulator = am.sim
        self.heap = GlobalHeap(node)
        # split-phase store accounting: stores are counted per epoch
        # (between announces); _announce_balance tolerates peers racing
        # ahead into their next epoch.  All three are peer -> count with
        # an absent peer reading zero, so a node carries an entry only
        # for a peer it exchanged stores or announces with
        self._stores_sent: Dict[int, int] = {}
        self._stores_received: Dict[int, int] = {}
        self._announce_balance: Dict[int, int] = {}
        #: peers whose announce for the current epoch has not arrived
        self._announces_owed = nprocs - 1
        self._sync_event: Optional[Event] = None
        # barrier state (node 0 coordinates)
        self._barrier_generation = 0
        self._barrier_arrivals: Dict[int, int] = {}
        self._barrier_release: Dict[int, Event] = {}
        # broadcast state
        self._bcast_events: Dict[int, Event] = {}
        self._bcast_data: Dict[int, bytes] = {}
        # fetch (split-phase bulk get) state
        self._next_fetch_tag = 0
        self._fetch_events: Dict[int, Event] = {}
        #: NIC-resident collective engine (None = host-coordinated)
        self.nic_collectives = None
        # time accounting (Figure 7's cpu/net split)
        self.compute_time = 0.0
        self.comm_time = 0.0
        # operation counters (observability)
        self.barriers_entered = 0
        self.syncs_completed = 0
        self.gets_issued = 0
        self.puts_issued = 0
        self.fetches_issued = 0
        self._register_handlers()

    # ----------------------------------------------------------- accounting
    def compute(self, *, int_ops: float = 0.0, flops: float = 0.0, us: float = 0.0) -> Generator:
        """Process: charge local computation time."""
        duration = us + self.cpu.int_op_time(int_ops) + self.cpu.flop_time(flops)
        self.compute_time += duration
        yield duration

    def _comm(self, gen: Generator) -> Generator:
        """Run a communication step, attributing its time to 'net'."""
        start = self.sim.now
        result = yield from gen
        self.comm_time += self.sim.now - start
        return result

    # ----------------------------------------------------------- allocation
    def all_spread_malloc(self, name: str, length: int, dtype=np.uint32) -> np.ndarray:
        """SPMD-symmetric allocation of this node's slice of ``name``."""
        return self.heap.allocate(name, length, dtype=dtype)

    def local(self, name: str) -> np.ndarray:
        return self.heap.array(name)

    # ------------------------------------------------------------- handlers
    def _register_handlers(self) -> None:
        am = self.am
        am.register_handler(H_STORE, self._h_store)
        am.register_handler(H_ADD, self._h_add)
        am.register_handler(H_ANNOUNCE, self._h_announce)
        am.register_handler(H_BARRIER_ARRIVE, self._h_barrier_arrive)
        am.register_handler(H_BARRIER_RELEASE, self._h_barrier_release)
        am.register_handler(H_BCAST, self._h_bcast)
        am.register_handler(H_FETCH, self._h_fetch)
        am.register_handler(H_FETCH_DONE, self._h_fetch_done)
        am.register_handler(H_GET_SMALL, self._h_get_small)
        am.register_handler(H_PUT_SMALL, self._h_put_small)

    def _h_store(self, ctx: RequestContext) -> Generator:
        name_id, byte_offset, _a2, _a3 = ctx.args
        yield self.cpu.copy_time(len(ctx.data))
        self.heap.write_bytes(name_id, byte_offset, ctx.data)
        self._count_store(ctx.src_node)

    _REDUCE_OPS = ("sum", "max", "min")

    def _h_add(self, ctx: RequestContext) -> Generator:
        name_id, elem_offset, op_code, _a3 = ctx.args
        op = self._REDUCE_OPS[op_code] if op_code < len(self._REDUCE_OPS) else "sum"
        elements = len(ctx.data) // 8
        yield self.cpu.int_op_time(2 * max(1, elements))
        self.heap.combine_bytes(name_id, elem_offset, ctx.data, op=op)
        self._count_store(ctx.src_node)

    def _count_store(self, src: int) -> None:
        self._stores_received[src] = self._stores_received.get(src, 0) + 1

    def _note_store_sent(self, peer: int) -> None:
        self._stores_sent[peer] = self._stores_sent.get(peer, 0) + 1

    def _h_announce(self, ctx: RequestContext) -> None:
        expected = ctx.args[0]
        src = ctx.src_node
        # AM delivery is FIFO per peer, so every store the peer sent
        # before this announce has already been applied; a surplus means
        # the peer already raced into its next epoch, so carry it over
        received = self._stores_received.get(src, 0)
        if received < expected:
            raise SplitCError(
                f"node {self.node}: store sync mismatch from {src}: "
                f"got {received}, announced {expected}"
            )
        if expected:
            self._stores_received[src] = received - expected
        balance = self._announce_balance.get(src, 0)
        self._announce_balance[src] = balance + 1
        if not balance:
            self._announces_owed -= 1
        self._maybe_finish_sync()

    def _maybe_finish_sync(self) -> None:
        if self._sync_event is None or self._announces_owed:
            return
        # every peer announced: consume one announce each; a peer that
        # raced ahead keeps its surplus and owes nothing next epoch
        for peer, balance in self._announce_balance.items():
            self._announce_balance[peer] = balance - 1
            if balance == 1:
                self._announces_owed += 1
        event, self._sync_event = self._sync_event, None
        self.syncs_completed += 1
        event.succeed()

    def _h_barrier_arrive(self, ctx: RequestContext) -> None:
        generation = ctx.args[0]
        self._note_barrier_arrival(generation)

    def _note_barrier_arrival(self, generation: int) -> None:
        assert self.node == 0, "only node 0 coordinates barriers"
        count = self._barrier_arrivals.get(generation, 0) + 1
        self._barrier_arrivals[generation] = count
        if count == self.nprocs:
            del self._barrier_arrivals[generation]
            self.sim.process(self._release_barrier(generation), name="barrier.release")

    def _release_barrier(self, generation: int) -> Generator:
        for peer in range(1, self.nprocs):
            yield from self.am.request(peer, H_BARRIER_RELEASE, args=(generation,))
        self._signal_release(generation)

    def _h_barrier_release(self, ctx: RequestContext) -> None:
        self._signal_release(ctx.args[0])

    def _signal_release(self, generation: int) -> None:
        event = self._barrier_release.pop(generation, None)
        if event is not None:
            event.succeed()
        else:
            # release beat the local barrier() call: pre-arm the event
            armed = self.sim.event(name=f"barrier{generation}")
            armed.succeed()
            self._barrier_release[generation] = armed

    def _h_bcast(self, ctx: RequestContext) -> None:
        generation = ctx.args[1]
        self._bcast_data[generation] = ctx.data
        event = self._bcast_events.pop(generation, None)
        if event is not None:
            event.succeed()

    def _h_fetch(self, ctx: RequestContext) -> None:
        name_id, byte_offset, nbytes, packed = ctx.args
        dst_name_id = packed & 0xFFFF
        tag = packed >> 16
        data = self.heap.read_bytes(name_id, byte_offset, nbytes)
        # served in a separate process: a window-blocked reply must not
        # stall the dispatch loop (deadlock avoidance)
        self.sim.process(
            self._serve_fetch(ctx.src_node, dst_name_id, tag, data), name=f"sc{self.node}.fetch"
        )

    def _serve_fetch(self, requester: int, dst_name_id: int, tag: int, data: bytes) -> Generator:
        yield self.cpu.copy_time(len(data))
        max_data = self.am.max_data
        for offset in range(0, max(1, len(data)), max_data):
            chunk = data[offset : offset + max_data]
            yield from self.am.request(requester, H_STORE, args=(dst_name_id, offset), data=chunk)
            self._note_store_sent(requester)
        yield from self.am.request(requester, H_FETCH_DONE, args=(tag,))

    def _h_fetch_done(self, ctx: RequestContext) -> None:
        event = self._fetch_events.pop(ctx.args[0], None)
        if event is not None:
            event.succeed()

    def _h_get_small(self, ctx: RequestContext) -> Generator:
        name_id, byte_offset, nbytes, _a3 = ctx.args
        data = self.heap.read_bytes(name_id, byte_offset, nbytes)
        yield from ctx.reply(data=data)

    def _h_put_small(self, ctx: RequestContext) -> Generator:
        name_id, byte_offset, _a2, _a3 = ctx.args
        self.heap.write_bytes(name_id, byte_offset, ctx.data)
        yield from ctx.reply()

    # ----------------------------------------------- app-defined handlers
    def register_counted_handler(self, handler_id: int, fn) -> None:
        """Register an application AM handler whose messages participate
        in :meth:`all_store_sync` accounting (the benchmarks' custom
        scatter/append handlers use this)."""

        def wrapped(ctx: RequestContext):
            self._count_store(ctx.src_node)
            return fn(ctx)

        self.am.register_handler(handler_id, wrapped)

    def counted_request(self, node: int, handler_id: int, args=(), data: bytes = b"") -> Generator:
        """Process: one-way request to a counted handler."""
        if node == self.node:
            raise SplitCError("counted_request cannot target the local node")
        yield from self._comm(self.am.request(node, handler_id, args=args, data=data))
        self._note_store_sent(node)

    def counted_bulk(self, node: int, handler_id: int, data: bytes, record_bytes: int = 8) -> Generator:
        """Process: bulk one-way transfer to a counted handler, fragmented
        on ``record_bytes`` boundaries so every packet holds whole records."""
        max_data = (self.am.max_data // record_bytes) * record_bytes
        if max_data <= 0:
            raise SplitCError("record larger than one packet")
        for offset in range(0, max(1, len(data)), max_data):
            yield from self.counted_request(node, handler_id, data=data[offset : offset + max_data])

    # ------------------------------------------------------------ data ops
    def get(self, node: int, name: str, start: int) -> Generator:
        """Process: blocking read of one element from a peer (or local)
        spread array; returns a one-element ndarray copy (a block is
        :meth:`bulk_get`'s)."""
        array_local = self.heap.array(name)
        itemsize = array_local.itemsize
        self.gets_issued += 1
        if node == self.node:
            yield from self.compute(int_ops=4)
            return array_local[start : start + 1].copy()
        name_id = self.heap.name_id(name)
        _args, data = yield from self._comm(
            self.am.rpc(node, H_GET_SMALL, args=(name_id, start * itemsize, itemsize))
        )
        return np.frombuffer(data, dtype=array_local.dtype).copy()

    def put(self, node: int, name: str, start: int, values: np.ndarray) -> Generator:
        """Process: blocking write of ``values`` into a peer's slice."""
        array_local = self.heap.array(name)
        values = np.asarray(values, dtype=array_local.dtype)
        self.puts_issued += 1
        if node == self.node:
            array_local[start : start + len(values)] = values
            yield from self.compute(int_ops=4)
            return
        name_id = self.heap.name_id(name)
        yield from self._comm(
            self.am.rpc(node, H_PUT_SMALL, args=(name_id, start * array_local.itemsize),
                        data=values.tobytes())
        )

    def store_bytes(self, node: int, name: str, byte_offset: int, data: bytes) -> Generator:
        """Process: split-phase one-way store (fragmenting as needed)."""
        if node == self.node:
            self.heap.write_bytes(self.heap.name_id(name), byte_offset, data)
            return
        name_id = self.heap.name_id(name)
        max_data = self.am.max_data
        for offset in range(0, max(1, len(data)), max_data):
            chunk = data[offset : offset + max_data]
            yield from self._comm(
                self.am.request(node, H_STORE, args=(name_id, byte_offset + offset), data=chunk)
            )
            self._note_store_sent(node)

    def store_array(self, node: int, name: str, elem_offset: int, values: np.ndarray) -> Generator:
        itemsize = self.heap.array(name).itemsize
        yield from self.store_bytes(node, name, elem_offset * itemsize, np.ascontiguousarray(values).tobytes())

    def store_add(self, node: int, name: str, elem_offset: int, values: np.ndarray,
                  op: str = "sum") -> Generator:
        """Process: one-way element-wise combine into a peer's slice."""
        if op not in self._REDUCE_OPS:
            raise SplitCError(f"unknown reduction op {op!r}")
        if node == self.node:
            array = self.heap.array(name)
            self.heap.combine_bytes(
                self.heap.name_id(name), elem_offset,
                np.ascontiguousarray(values, dtype=array.dtype).tobytes(), op=op,
            )
            return
        name_id = self.heap.name_id(name)
        array = self.heap.array(name)
        data = np.ascontiguousarray(values, dtype=array.dtype).tobytes()
        max_data = self.am.max_data
        itemsize = array.itemsize
        per_packet = (max_data // itemsize) * itemsize
        op_code = self._REDUCE_OPS.index(op)
        for offset in range(0, max(1, len(data)), per_packet):
            chunk = data[offset : offset + per_packet]
            yield from self._comm(
                self.am.request(node, H_ADD,
                                args=(name_id, elem_offset + offset // itemsize, op_code),
                                data=chunk)
            )
            self._note_store_sent(node)

    def all_store_sync(self) -> Generator:
        """Process: global completion of all outstanding stores."""
        if self.nprocs == 1:
            return
        if self._sync_event is not None:
            raise SplitCError("concurrent all_store_sync calls on one node")
        self._sync_event = self.sim.event(name=f"sc{self.node}.sync")
        event = self._sync_event
        start = self.sim.now
        for peer in range(self.nprocs):
            if peer != self.node:
                count = self._stores_sent.pop(peer, 0)  # our next epoch starts now
                yield from self.am.request(peer, H_ANNOUNCE, args=(count,))
        self._maybe_finish_sync()
        yield event
        self.comm_time += self.sim.now - start

    def bulk_get_async(self, node: int, src_name: str, src_elem: int, count: int,
                       dst_name: str, dst_elem: int):
        """Split-phase bulk read: starts the fetch and returns a process
        to ``yield`` on later — the Split-C idiom for overlapping
        communication with computation."""
        return self.sim.process(
            self.bulk_get(node, src_name, src_elem, count, dst_name, dst_elem),
            name=f"sc{self.node}.prefetch",
        )

    def bulk_get(self, node: int, src_name: str, src_elem: int, count: int,
                 dst_name: str, dst_elem: int) -> Generator:
        """Process: split-phase bulk read into a local array (the owner
        streams the data back as stores)."""
        src_array = self.heap.array(src_name)
        dst_array = self.heap.array(dst_name)
        itemsize = src_array.itemsize
        if node == self.node:
            dst_array[dst_elem : dst_elem + count] = src_array[src_elem : src_elem + count]
            yield from self.compute(us=self.cpu.copy_time(count * itemsize))
            return
        self.fetches_issued += 1
        tag = self._next_fetch_tag
        self._next_fetch_tag = (self._next_fetch_tag + 1) % (1 << 15)
        event = self.sim.event(name=f"sc{self.node}.fetch{tag}")
        self._fetch_events[tag] = event
        name_id = self.heap.name_id(src_name)
        dst_id = self.heap.name_id(dst_name)
        packed = (tag << 16) | dst_id
        start = self.sim.now
        yield from self.am.request(
            node, H_FETCH, args=(name_id, src_elem * itemsize, count * itemsize, packed)
        )
        yield event
        self.comm_time += self.sim.now - start
        # note: the H_STOREs the owner sent count toward OUR inbound
        # store tally; the owner counted them as outbound.  Fetches are
        # therefore compatible with a following all_store_sync.

    # --------------------------------------------------------- collectives
    def use_nic_collectives(self, engine) -> None:
        """Route barrier/broadcast/reduce through a NIC-resident
        collective engine instead of the host-coordinated node-0 scheme
        (the ``collectives="nic"`` ablation)."""
        self.nic_collectives = engine

    def barrier(self) -> Generator:
        """Process: global barrier (NIC tree, or node-0 coordination)."""
        self.barriers_entered += 1
        if self.nprocs == 1:
            return
        if self.nic_collectives is not None:
            start = self.sim.now
            yield from self.nic_collectives.barrier()
            self.comm_time += self.sim.now - start
            return
        generation = self._barrier_generation
        self._barrier_generation += 1
        start = self.sim.now
        if generation in self._barrier_release:
            # release already arrived (we were last and slow)
            event = self._barrier_release.pop(generation)
        else:
            event = self.sim.event(name=f"sc{self.node}.bar{generation}")
            self._barrier_release[generation] = event
        if self.node == 0:
            self._note_barrier_arrival(generation)
        else:
            yield from self.am.request(0, H_BARRIER_ARRIVE, args=(generation,))
        yield event
        self.comm_time += self.sim.now - start

    def broadcast_small(self, root: int, name: str, values: Optional[np.ndarray] = None) -> Generator:
        """Process: one-packet broadcast of array ``name`` from ``root``.

        The root passes ``values``; every node returns with its local
        slice of ``name`` holding the broadcast data.
        """
        array = self.heap.array(name)
        if self.nic_collectives is not None and root == 0 and self.nprocs > 1:
            # the NIC tree is rooted at node 0; dissemination happens in
            # firmware, so no trailing barrier is needed — every non-root
            # node blocks until its payload arrives
            engine = self.nic_collectives
            start = self.sim.now
            if self.node == root:
                if values is None:
                    raise SplitCError("root must supply broadcast values")
                array[: len(values)] = values
                data = np.ascontiguousarray(values, dtype=array.dtype).tobytes()
                if len(data) > engine.max_data:
                    raise SplitCError("broadcast_small payload exceeds one packet")
                yield from engine.broadcast(data)
            else:
                data = yield from engine.broadcast()
                incoming = np.frombuffer(data, dtype=array.dtype)
                array[: len(incoming)] = incoming
            self.comm_time += self.sim.now - start
            return
        generation = self._barrier_generation  # reuse a symmetric counter
        if self.node == root:
            if values is None:
                raise SplitCError("root must supply broadcast values")
            array[: len(values)] = values
            data = np.ascontiguousarray(values, dtype=array.dtype).tobytes()
            if len(data) > self.am.max_data:
                raise SplitCError("broadcast_small payload exceeds one packet")
            start = self.sim.now
            name_id = self.heap.name_id(name)
            for peer in range(self.nprocs):
                if peer != root:
                    yield from self.am.request(peer, H_BCAST, args=(name_id, generation), data=data)
            self.comm_time += self.sim.now - start
        else:
            start = self.sim.now
            data = self._bcast_data.pop(generation, None)
            if data is None:
                event = self.sim.event(name=f"sc{self.node}.bcast{generation}")
                self._bcast_events[generation] = event
                yield event
                data = self._bcast_data.pop(generation)
            incoming = np.frombuffer(data, dtype=array.dtype)
            array[: len(incoming)] = incoming
            self.comm_time += self.sim.now - start
        yield from self.barrier()

    def all_gather(self, name: str, values: np.ndarray) -> Generator:
        """Process: every node contributes ``values``; afterwards the
        spread array ``name`` holds slot ``i * len(values)`` onward from
        node ``i``, on every node (linear all-gather over stores).

        There is no entry fence: a peer that reaches its call first may
        store its slice here before the local call starts.  So nothing
        may write ``name`` between the last fence (``barrier`` /
        ``all_store_sync``) and the call; every slot is written by the
        gather anyway, so there is nothing to clear."""
        array = self.heap.array(name)
        width = len(values)
        if width * self.nprocs > len(array):
            raise SplitCError(f"all_gather of {width} elements overflows {name!r}")
        array[self.node * width : (self.node + 1) * width] = values.astype(array.dtype)
        for peer in range(self.nprocs):
            if peer != self.node:
                yield from self.store_array(peer, name, self.node * width, values)
        yield from self.all_store_sync()

    def all_reduce(self, name: str, op: str = "sum") -> Generator:
        """Process: element-wise global reduction (sum/max/min) of spread
        array ``name``; every node ends with the result in its slice."""
        array = self.heap.array(name)
        if self.nprocs == 1:
            return
        engine = self.nic_collectives
        wire_dtype = reduce_wire_dtype(array.dtype)
        if (engine is not None and wire_dtype is not None
                and array.nbytes <= engine.max_data):
            # combine in NIC firmware; the fallback condition is a pure
            # function of the (SPMD-symmetric) array, so all nodes agree
            start = self.sim.now
            result = yield from engine.allreduce(array.tobytes(), op=op,
                                                dtype=wire_dtype)
            array[:] = np.frombuffer(result, dtype=array.dtype)
            self.comm_time += self.sim.now - start
            return
        # combine everyone's contribution on node 0.  The entry barrier
        # fences the epoch: without it a fast peer's store_add for the
        # next reduction can land on node 0 before node 0's own program
        # has finished (re)writing its input slice, and the local write
        # then silently overwrites the remote contribution.
        yield from self.barrier()
        if self.node != 0:
            yield from self.store_add(0, name, 0, array, op=op)
        yield from self.all_store_sync()
        # node 0 now has the global result; spread it back
        if self.node == 0:
            data = array.tobytes()
            for peer in range(1, self.nprocs):
                yield from self.store_bytes(peer, name, 0, data)
        yield from self.all_store_sync()
