"""Wall-clock benchmark rig: the paper's figures, rerun on U-Net/OS.

Where :mod:`repro.analysis` regenerates Figure 5 (round-trip latency
vs message size) and Figure 6 (bandwidth vs message size) inside the
calibrated performance model, this module reruns the same *shapes* on
the live substrate and real time: AM round trips over actual datagram
sockets, a windowed bandwidth stream, and an N-senders-into-one-
receiver incast — the live analogue of the overload soak.

Wall-clock numbers are noisy by nature, so every latency row reports
percentiles (p50/p95/p99), never a single average, and every row
carries **syscalls per message** from the transport's own accounting —
the OS-level cost metric that corresponds to the paper's obsession
with traps and doorbells (U-Net's whole point was getting syscalls out
of the fast path; U-Net/OS pays them and shows the bill).

The output is one JSON document (``BENCH_live.json``), described and
schema-checked by :data:`ARTIFACT` so downstream tooling can trust its
shape.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..am.am import AmConfig
from ..analysis.stats import percentile
from ..artifact import Artifact, Headline
from ..core import EndpointConfig
from .am import LiveAm
from .backend import LiveCluster
from .clock import WallClock
from .doorbell import DEFAULT_DOORBELL_MODE
from .transport import make_transport

__all__ = [
    "ARTIFACT",
    "RTT_SIZES",
    "BANDWIDTH_SIZES",
    "bench_round_trip",
    "bench_bandwidth",
    "bench_incast",
    "bench_burst",
    "run_bench",
    "render_bench",
]

#: Figure 5's sweep, minus nothing: the live rig walks the same sizes
RTT_SIZES = (0, 8, 16, 32, 40, 64, 128, 256, 512, 1024, 1498)
#: Figure 6's sweep plus one multi-buffer size (> one 2 KB buffer)
BANDWIDTH_SIZES = (16, 64, 128, 256, 512, 1024, 1498, 4000)

#: hard wall ceiling per benchmark phase; a wedged transport must fail
#: the phase, not hang the rig
_PHASE_LIMIT_US = 30_000_000.0
#: untimed round trips before each size's samples
_RTT_WARMUP = 8
#: payload bytes of every incast message
_INCAST_SIZE = 512



# ------------------------------------------------------------------ plumbing
def _make_pair(transport_kind: str, clock: WallClock,
               doorbell_mode: str = DEFAULT_DOORBELL_MODE) -> Tuple[LiveCluster, LiveAm, LiveAm, Callable[[], None]]:
    """Two fresh nodes, one channel, AM endpoints, and their pump."""
    cluster = LiveCluster(lambda name: make_transport(transport_kind, name),
                          clock, doorbell_mode=doorbell_mode)
    n0 = cluster.add_node("bench0")
    n1 = cluster.add_node("bench1")
    ep_cfg = EndpointConfig(num_buffers=96, buffer_size=2048,
                            send_queue_depth=64, recv_queue_depth=64)
    ep0 = n0.create_user_endpoint(config=ep_cfg, rx_buffers=48)
    ep1 = n1.create_user_endpoint(config=ep_cfg, rx_buffers=48)
    ch0, ch1 = cluster.connect(ep0, ep1)
    am0 = LiveAm(0, ep0, config=AmConfig())
    am1 = LiveAm(1, ep1, config=AmConfig())
    am0.connect_peer(1, ch0)
    am1.connect_peer(0, ch1)

    def pump() -> None:
        cluster.step()
        am0.service()
        am1.service()

    return cluster, am0, am1, pump


def _syscalls(cluster: LiveCluster) -> int:
    return sum(node.transport.tx_syscalls + node.transport.rx_syscalls
               for node in cluster.nodes)


# ------------------------------------------------------- round-trip latency
def bench_round_trip(transport_kind: str, sizes: Sequence[int] = RTT_SIZES,
                     samples: int = 40,
                     doorbell_mode: str = DEFAULT_DOORBELL_MODE) -> List[Dict]:
    """Figure 5's shape on the wall clock: AM echo RPC per size."""
    rows: List[Dict] = []
    clock = WallClock()
    for size in sizes:
        cluster, am0, am1, pump = _make_pair(transport_kind, clock,
                                             doorbell_mode=doorbell_mode)
        try:
            am1.register_handler(1, lambda ctx: ctx.reply(args=(ctx.args[0],),
                                                          data=ctx.data))
            payload = bytes(i % 256 for i in range(size))
            for i in range(_RTT_WARMUP):
                am0.rpc(1, 1, args=(i,), data=payload, pump=pump,
                        limit_us=_PHASE_LIMIT_US)
            base_syscalls = _syscalls(cluster)
            lat: List[float] = []
            for i in range(samples):
                t0 = clock.now_us()
                am0.rpc(1, 1, args=(i,), data=payload, pump=pump,
                        limit_us=_PHASE_LIMIT_US)
                lat.append(clock.now_us() - t0)
            syscalls = _syscalls(cluster) - base_syscalls
            rows.append({
                "size": size,
                "samples": len(lat),
                "min_us": min(lat),
                "mean_us": sum(lat) / len(lat),
                "p50_us": percentile(lat, 50),
                "p95_us": percentile(lat, 95),
                "p99_us": percentile(lat, 99),
                "syscalls_per_message": syscalls / max(1, len(lat)),
            })
        finally:
            cluster.close()
    return rows


# --------------------------------------------------------------- bandwidth
def bench_bandwidth(transport_kind: str,
                    sizes: Sequence[int] = BANDWIDTH_SIZES,
                    messages: int = 200,
                    doorbell_mode: str = DEFAULT_DOORBELL_MODE) -> List[Dict]:
    """Figure 6's shape: windowed one-way stream, goodput in Mb/s."""
    rows: List[Dict] = []
    clock = WallClock()
    for size in sizes:
        cluster, am0, am1, pump = _make_pair(transport_kind, clock,
                                             doorbell_mode=doorbell_mode)
        try:
            received = [0]

            def handler(ctx, _received=received) -> None:
                _received[0] += 1

            am1.register_handler(1, handler)
            payload = bytes(i % 256 for i in range(size))
            base_syscalls = _syscalls(cluster)
            deadline = clock.now_us() + _PHASE_LIMIT_US
            t0 = clock.now_us()
            for i in range(messages):
                while am0.start_request(1, 1, args=(i,), data=payload) is None:
                    if clock.now_us() >= deadline:
                        raise RuntimeError("bandwidth phase wedged")
                    pump()
            while not (am0.idle and received[0] >= messages):
                if clock.now_us() >= deadline:
                    break
                pump()
            elapsed_us = max(1.0, clock.now_us() - t0)
            syscalls = _syscalls(cluster) - base_syscalls
            snap = am0.snapshot()
            rexmit = sum(p["retransmissions"] for p in snap.values())
            rows.append({
                "size": size,
                "messages": messages,
                "delivered": received[0],
                "elapsed_us": elapsed_us,
                # bits per microsecond == megabits per second
                "goodput_mbps": received[0] * size * 8 / elapsed_us,
                "rexmit": rexmit,
                "syscalls_per_message": syscalls / max(1, received[0]),
            })
        finally:
            cluster.close()
    return rows


# ------------------------------------------------------------------ incast
def bench_incast(transport_kind: str, senders: int = 4,
                 messages_per_sender: int = 100,
                 doorbell_mode: str = DEFAULT_DOORBELL_MODE) -> Dict:
    """N senders into one credit-gated receiver: the live overload shape.

    Receiver-credit flow is on, so the interesting outputs are the
    aggregate goodput the receiver sustains, how often senders stalled
    on credit, and whether anything was dropped at the receive queue —
    on a healthy run backpressure (stalls) substitutes for loss.
    """
    clock = WallClock()
    cluster = LiveCluster(lambda name: make_transport(transport_kind, name),
                          clock, doorbell_mode=doorbell_mode)
    try:
        config = AmConfig(credit_flow=True)
        recv_node = cluster.add_node("sink")
        recv_ep = recv_node.create_user_endpoint(
            config=EndpointConfig(num_buffers=96, buffer_size=2048,
                                  send_queue_depth=64, recv_queue_depth=16),
            rx_buffers=32)
        recv_am = LiveAm(0, recv_ep, config=config)
        received = [0]
        recv_am.register_handler(1, lambda ctx: received.__setitem__(0, received[0] + 1))

        sender_ams: List[LiveAm] = []
        for s in range(senders):
            node = cluster.add_node(f"src{s}")
            ep = node.create_user_endpoint(
                config=EndpointConfig(num_buffers=96, buffer_size=2048,
                                      send_queue_depth=64, recv_queue_depth=64),
                rx_buffers=48)
            ch_sink, ch_src = cluster.connect(recv_ep, ep)
            recv_am.connect_peer(s + 1, ch_sink)
            am = LiveAm(s + 1, ep, config=config)
            am.connect_peer(0, ch_src)
            sender_ams.append(am)

        def pump() -> None:
            cluster.step()
            recv_am.service()
            for am in sender_ams:
                am.service()

        payload = bytes(i % 256 for i in range(_INCAST_SIZE))
        sent = [0] * senders
        total = senders * messages_per_sender
        base_syscalls = _syscalls(cluster)
        deadline = clock.now_us() + _PHASE_LIMIT_US
        t0 = clock.now_us()
        while clock.now_us() < deadline:
            progress = False
            for s, am in enumerate(sender_ams):
                if sent[s] >= messages_per_sender:
                    continue
                if am.start_request(0, 1, args=(sent[s],), data=payload) is not None:
                    sent[s] += 1
                    progress = True
            pump()
            if (sum(sent) >= total and received[0] >= total
                    and all(am.idle for am in sender_ams)):
                break
            if not progress:
                pump()
        elapsed_us = max(1.0, clock.now_us() - t0)
        syscalls = _syscalls(cluster) - base_syscalls
        stalls = sum(am.credit_stalls for am in sender_ams)
        rexmit = sum(p["retransmissions"] for am in sender_ams
                     for p in am.snapshot().values())
        drops = recv_node.drop_stats()
        return {
            "senders": senders,
            "messages_per_sender": messages_per_sender,
            "size": _INCAST_SIZE,
            "delivered": received[0],
            "elapsed_us": elapsed_us,
            "goodput_mbps": received[0] * _INCAST_SIZE * 8 / elapsed_us,
            "credit_stalls": stalls,
            "rexmit": rexmit,
            "recv_queue_drops": drops["recv_queue_drops"],
            "no_buffer_drops": drops["no_buffer_drops"],
            "syscalls_per_message": syscalls / max(1, received[0]),
        }
    finally:
        cluster.close()


# ----------------------------------------------------------- burst fast path
def _burst_pair(transport_kind: str, clock: WallClock, doorbell_mode: str,
                use_mmsg: Optional[bool]):
    """A pinned two-node pair for the burst A/B (identical topology for
    both sides of the comparison)."""
    cluster = LiveCluster(
        lambda name: make_transport(transport_kind, name, use_mmsg=use_mmsg),
        clock, doorbell_mode=doorbell_mode)
    n0 = cluster.add_node("burst0")
    n1 = cluster.add_node("burst1")
    ep_cfg = EndpointConfig(num_buffers=96, buffer_size=2048,
                            send_queue_depth=64, recv_queue_depth=64)
    ep0 = n0.create_user_endpoint(config=ep_cfg, rx_buffers=48)
    ep1 = n1.create_user_endpoint(config=ep_cfg, rx_buffers=48)
    ch0, _ch1 = cluster.connect(ep0, ep1)
    # pairwise pinned topology: exempts AF_UNIX from the max_dgram_qlen
    # cap, so the kernel queue is deep enough for batching to amortize
    n0.transport.connect_peer(n1.transport.address)
    n1.transport.connect_peer(n0.transport.address)
    return cluster, n0, n1, ep0, ep1, ch0


def bench_burst(transport_kind: str, messages: int = 20000,
                size: int = 256) -> Dict:
    """The tentpole A/B: one-way stream at the raw endpoint layer,
    per-syscall descriptor path vs batched zero-copy fast path.

    Both sides run the identical pinned two-node topology and move the
    identical byte stream; the only difference is the doorbell
    discipline — scalar ``sendto``/``recvfrom`` per message against
    pooled ``send_burst``/``service_fast`` over sendmmsg/recvmmsg.
    The headline ratio is the paper's: messages per second bought per
    kernel crossing spent.
    """
    clock = WallClock()
    payloads = [bytes([i % 256]) * size for i in range(messages)]

    def run_baseline() -> Dict:
        cluster, n0, n1, ep0, ep1, ch0 = _burst_pair(
            transport_kind, clock, DEFAULT_DOORBELL_MODE, use_mmsg=False)
        try:
            got = 0
            sent = 0
            deadline = clock.now_us() + _PHASE_LIMIT_US
            t0 = clock.now_us()
            while got < messages:
                if clock.now_us() >= deadline:
                    raise RuntimeError("burst baseline phase wedged")
                if sent < messages:
                    try:
                        ep0.send(ch0, payloads[sent])
                        sent += 1
                    except Exception:
                        n1.service()  # backpressure: let the sink drain
                n1.service()
                while ep1.poll() is not None:
                    got += 1
            elapsed_us = max(1.0, clock.now_us() - t0)
            syscalls = (n0.transport.tx_syscalls + n1.transport.rx_syscalls)
            return {
                "msgs_per_sec": got * 1e6 / elapsed_us,
                "syscalls_per_message": syscalls / max(1, got),
                "elapsed_us": elapsed_us,
            }
        finally:
            cluster.close()

    def run_batched() -> Dict:
        cluster, n0, n1, ep0, ep1, ch0 = _burst_pair(
            transport_kind, clock, "batched", use_mmsg=None)
        try:
            got = [0]

            def on_message(_endpoint, _channel_id, _view) -> None:
                got[0] += 1

            sent = 0
            deadline = clock.now_us() + _PHASE_LIMIT_US
            t0 = clock.now_us()
            while got[0] < messages:
                if clock.now_us() >= deadline:
                    raise RuntimeError("burst batched phase wedged")
                if sent < messages:
                    sent += ep0.send_burst(ch0, payloads[sent:sent + 64])
                n1.service_fast(on_message)
            elapsed_us = max(1.0, clock.now_us() - t0)
            syscalls = (n0.transport.tx_syscalls + n1.transport.rx_syscalls)
            return {
                "msgs_per_sec": got[0] * 1e6 / elapsed_us,
                "syscalls_per_message": syscalls / max(1, got[0]),
                "elapsed_us": elapsed_us,
            }, n0.transport.batch_path()
        finally:
            cluster.close()

    baseline = run_baseline()
    batched, batch_path = run_batched()
    return {
        "messages": messages,
        "size": size,
        "baseline": baseline,
        "batched": batched,
        "speedup": batched["msgs_per_sec"] / max(1e-9,
                                                 baseline["msgs_per_sec"]),
        "batch_path": batch_path,
    }


# ------------------------------------------------------------------- driver
def run_bench(transport_kind: str = "unix", rtt_samples: int = 40,
              bw_messages: int = 200, incast_senders: int = 4,
              incast_messages: int = 100,
              rtt_sizes: Sequence[int] = RTT_SIZES,
              bw_sizes: Sequence[int] = BANDWIDTH_SIZES,
              burst_messages: int = 20000, burst_size: int = 256,
              doorbell_mode: str = DEFAULT_DOORBELL_MODE,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """The full rig: Fig 5 shape, Fig 6 shape, incast; one JSON payload."""
    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    clock = WallClock()
    t0 = clock.now_us()
    note(f"round-trip latency over {transport_kind} "
         f"({len(rtt_sizes)} sizes x {rtt_samples} samples)...")
    round_trip = bench_round_trip(transport_kind, sizes=rtt_sizes,
                                  samples=rtt_samples,
                                  doorbell_mode=doorbell_mode)
    note(f"bandwidth ({len(bw_sizes)} sizes x {bw_messages} messages)...")
    bandwidth = bench_bandwidth(transport_kind, sizes=bw_sizes,
                                messages=bw_messages,
                                doorbell_mode=doorbell_mode)
    note(f"incast ({incast_senders} senders x {incast_messages} messages)...")
    incast = bench_incast(transport_kind, senders=incast_senders,
                          messages_per_sender=incast_messages,
                          doorbell_mode=doorbell_mode)
    note(f"burst fast path ({burst_messages} messages x {burst_size}B, "
         f"per-syscall vs batched)...")
    burst = bench_burst(transport_kind, messages=burst_messages,
                        size=burst_size)
    return {
        "format": ARTIFACT.format,
        "transport": transport_kind,
        "doorbell_mode": doorbell_mode,
        "elapsed_s": (clock.now_us() - t0) / 1e6,
        "round_trip": round_trip,
        "bandwidth": bandwidth,
        "incast": incast,
        "burst": burst,
    }


# ------------------------------------------------------------------- schema
#: shape contract for BENCH_live.json: key -> type (or [row-template]);
#: ``float`` accepts ints too, JSON has one number type
_ROW_RTT = {"size": int, "samples": int, "min_us": float, "mean_us": float,
            "p50_us": float, "p95_us": float, "p99_us": float,
            "syscalls_per_message": float}
_ROW_BW = {"size": int, "messages": int, "delivered": int, "elapsed_us": float,
           "goodput_mbps": float, "rexmit": int, "syscalls_per_message": float}
_ROW_INCAST = {"senders": int, "messages_per_sender": int, "size": int,
               "delivered": int, "elapsed_us": float, "goodput_mbps": float,
               "credit_stalls": int, "rexmit": int, "recv_queue_drops": int,
               "no_buffer_drops": int, "syscalls_per_message": float}
_ROW_BURST_SIDE = {"msgs_per_sec": float, "syscalls_per_message": float,
                   "elapsed_us": float}
_ROW_BURST = {"messages": int, "size": int, "baseline": _ROW_BURST_SIDE,
              "batched": _ROW_BURST_SIDE, "speedup": float,
              "batch_path": str}


def _headlines(payload: Dict) -> List[Headline]:
    """p50 latency and goodput per size, incast goodput, and the burst
    fast path: batched throughput, its syscalls per message and the
    speedup over the per-syscall baseline."""
    burst = payload["burst"]
    return (
        [(f"rtt[{row['size']}B].p50_us", "lower", row["p50_us"])
         for row in payload["round_trip"]]
        + [(f"bandwidth[{row['size']}B].goodput_mbps", "higher",
            row["goodput_mbps"]) for row in payload["bandwidth"]]
        + [("incast.goodput_mbps", "higher", payload["incast"]["goodput_mbps"]),
           ("burst.batched.msgs_per_sec", "higher",
            burst["batched"]["msgs_per_sec"]),
           ("burst.batched.syscalls_per_message", "lower",
            burst["batched"]["syscalls_per_message"]),
           ("burst.speedup", "higher", burst["speedup"])])


#: ``BENCH_live.json``: wall-clock by nature, so CI compares a fresh run
#: against it with a loose ``bench --compare`` threshold, never ``diff``
ARTIFACT = Artifact(
    format="repro-bench-live/2",
    schema={
        "transport": str,
        "doorbell_mode": str,
        "elapsed_s": float,
        "round_trip": [_ROW_RTT],
        "bandwidth": [_ROW_BW],
        "incast": _ROW_INCAST,
        "burst": _ROW_BURST,
    },
    headlines=_headlines,
    non_empty=("round_trip", "bandwidth"),
)


def render_bench(payload: Dict) -> str:
    """Terminal summary of a benchmark payload."""
    lines = [f"U-Net/OS wall-clock benchmark over {payload['transport']} "
             f"({payload['elapsed_s']:.1f}s)"]
    lines.append("  round-trip latency (us):")
    lines.append(f"    {'bytes':>6} {'p50':>9} {'p95':>9} {'p99':>9} "
                 f"{'min':>9} {'sys/msg':>8}")
    for row in payload["round_trip"]:
        lines.append(f"    {row['size']:>6} {row['p50_us']:>9.1f} "
                     f"{row['p95_us']:>9.1f} {row['p99_us']:>9.1f} "
                     f"{row['min_us']:>9.1f} {row['syscalls_per_message']:>8.1f}")
    lines.append("  bandwidth:")
    lines.append(f"    {'bytes':>6} {'Mb/s':>9} {'rexmit':>7} {'sys/msg':>8}")
    for row in payload["bandwidth"]:
        lines.append(f"    {row['size']:>6} {row['goodput_mbps']:>9.1f} "
                     f"{row['rexmit']:>7} {row['syscalls_per_message']:>8.1f}")
    inc = payload["incast"]
    lines.append(f"  incast: {inc['senders']} senders x "
                 f"{inc['messages_per_sender']} x {inc['size']}B -> "
                 f"{inc['goodput_mbps']:.1f} Mb/s aggregate, "
                 f"{inc['credit_stalls']} credit stalls, "
                 f"{inc['recv_queue_drops']} recv-queue drops, "
                 f"{inc['rexmit']} rexmit")
    burst = payload.get("burst")
    if burst:
        base, fast = burst["baseline"], burst["batched"]
        lines.append(
            f"  burst fast path ({burst['messages']} x {burst['size']}B, "
            f"{burst['batch_path']}):")
        lines.append(
            f"    per-syscall {base['msgs_per_sec']:>10,.0f} msg/s "
            f"at {base['syscalls_per_message']:.2f} sys/msg")
        lines.append(
            f"    batched     {fast['msgs_per_sec']:>10,.0f} msg/s "
            f"at {fast['syscalls_per_message']:.3f} sys/msg "
            f"({burst['speedup']:.1f}x)")
    return "\n".join(lines)
