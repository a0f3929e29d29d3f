"""``live-loopback``: the wall-clock substrate over the host's loopback.

AF_UNIX datagram sockets (UDP on 127.0.0.1 when AF_UNIX cannot be
used; which one ran is recorded), one process, one thread.  No traffic
leaves the host.  The simulator does nothing here, so an optimisation of
the event kernel predicts no change on this workload.

Every phase opens a fresh pair of nodes, so repetitions are identical
and carry no window, RTT-estimate or batch-hint state from one to the
next.  A wedged phase hits its deadline and counts what it did not
deliver as failed instead of hanging the run.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.am.am import AmConfig, AmError
from repro.core import EndpointConfig
from repro.core.errors import UNetError
from repro.live.am import LiveAm
from repro.live.backend import LiveCluster
from repro.live.clock import WallClock
from repro.live.doorbell import DEFAULT_DOORBELL_MODE
from repro.live.transport import make_transport, transport_available

from ..harness import OUT_DIR, Rep, Spans, Workload
from .unet import seeded_payloads

ENDPOINT = EndpointConfig(num_buffers=96, buffer_size=2048,
                          send_queue_depth=64, recv_queue_depth=64)
#: messages handed to one ``send_burst`` call
WINDOW = 64
#: wall ceiling per phase
PHASE_LIMIT_S = 10.0
ECHO = 1


def choose_transport() -> str:
    """AF_UNIX with its socket files inside the checkout, else UDP."""
    sockets = os.path.join(OUT_DIR, "sockets")
    os.makedirs(sockets, exist_ok=True)
    tempfile.tempdir = sockets
    if transport_available("unix"):
        return "unix"
    # e.g. a checkout path too long for sun_path (108 bytes)
    tempfile.tempdir = None
    return "udp"


class LiveLoopback(Workload):
    name = "live-loopback"
    op = "one 256-byte message through send_burst/service_fast"

    # per repetition at scale 1.0
    BATCHED = 160_000
    SCALAR = 16_000
    RPCS = 2_000
    STREAMED = 4_000
    BURST_SIZE = 256
    RPC_SIZES = (40, 1024)
    STREAM_SIZES = (64, 1498)
    sample_figures = {"live_rtt_p50_us": ("rtt_us_40", 0.50),
                      "live.rtt_p99_us": ("rtt_us_40", 0.99),
                      "live.rtt_p50_us_1024": ("rtt_us_1024", 0.50)}

    def prepare(self, seed: int, scale: float) -> None:
        self.clock = WallClock()
        self.kind = choose_transport()
        self.batch_path = ""
        sizes = {self.BURST_SIZE, *self.RPC_SIZES, *self.STREAM_SIZES}
        self.payloads = {size: seeded_payloads(seed, size) for size in sizes}
        # a burst window is one pass over the pool, four times over
        self.window = self.payloads[self.BURST_SIZE] * (WINDOW // 16)
        self.batched, self.scalar, self.rpcs, self.streamed = 256, 64, 8, 32
        self.repetition(Spans())  # warm-up: binds sendmmsg, fills caches
        self.batched = max(256, round(self.BATCHED * scale))
        self.scalar = max(64, round(self.SCALAR * scale))
        self.rpcs = max(8, round(self.RPCS * scale))
        self.streamed = max(32, round(self.STREAMED * scale))

    def environment(self) -> Dict[str, object]:
        return {"transport": self.kind, "batch_path": self.batch_path,
                "doorbell_mode": DEFAULT_DOORBELL_MODE}

    # ----------------------------------------------------------- plumbing
    def _cluster(self, doorbell_mode: str, use_mmsg: Optional[bool]) -> LiveCluster:
        return LiveCluster(
            lambda name: make_transport(self.kind, name, use_mmsg=use_mmsg),
            self.clock, doorbell_mode=doorbell_mode)

    def _raw_pair(self, doorbell_mode: str, use_mmsg: Optional[bool]):
        """Two pinned nodes with one channel, at the raw endpoint layer."""
        cluster = self._cluster(doorbell_mode, use_mmsg)
        n0, n1 = cluster.add_node("burst0"), cluster.add_node("burst1")
        ep0 = n0.create_user_endpoint(config=ENDPOINT, rx_buffers=48)
        ep1 = n1.create_user_endpoint(config=ENDPOINT, rx_buffers=48)
        ch0, _ch1 = cluster.connect(ep0, ep1)
        # mutually connected AF_UNIX peers are exempt from max_dgram_qlen
        n0.transport.connect_peer(n1.transport.address)
        n1.transport.connect_peer(n0.transport.address)
        return cluster, n0, n1, ep0, ep1, ch0

    def _am_pair(self) -> Tuple[LiveCluster, LiveAm, LiveAm, Callable[[], None]]:
        cluster = self._cluster(DEFAULT_DOORBELL_MODE, None)
        n0, n1 = cluster.add_node("am0"), cluster.add_node("am1")
        ep0 = n0.create_user_endpoint(config=ENDPOINT, rx_buffers=48)
        ep1 = n1.create_user_endpoint(config=ENDPOINT, rx_buffers=48)
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

    # ------------------------------------------------------------- phases
    def _batched_burst(self, rep: Rep, spans: Spans) -> None:
        total, window = self.batched, self.window
        cluster, n0, n1, ep0, _ep1, ch0 = self._raw_pair("batched", None)
        try:
            got = [0, 0]  # delivered, mismatched

            def on_message(_endpoint, _channel_id, view) -> None:
                if view != window[got[0] % WINDOW]:
                    got[1] += 1
                got[0] += 1

            sent = 0
            deadline = time.perf_counter() + PHASE_LIMIT_S
            with spans.call("send_burst+service_fast", messages=total):
                while got[0] < total and time.perf_counter() < deadline:
                    if sent < total:
                        # resume at the window slot of message `sent`
                        first = sent % WINDOW
                        last = min(WINDOW, first + total - sent)
                        sent += ep0.send_burst(ch0, window[first:last])
                    n1.service_fast(on_message)
            self.batch_path = n0.transport.batch_path()
            tx, rx = n0.transport.tx_syscalls, n1.transport.rx_syscalls
        finally:
            cluster.close()
        rep.ops += got[0]
        rep.attempted += total
        rep.failed += total - got[0] + got[1]
        delivered = max(1, got[0])
        rep.figures["live.tx_syscalls_per_msg"] = tx / delivered
        rep.figures["live.rx_syscalls_per_msg"] = rx / delivered
        rep.figures["syscalls_per_msg"] = (tx + rx) / delivered

    def _scalar_burst(self, rep: Rep, spans: Spans) -> None:
        total, window = self.scalar, self.window
        cluster, n0, n1, ep0, ep1, ch0 = self._raw_pair(DEFAULT_DOORBELL_MODE, False)
        try:
            got = mismatched = sent = 0
            start = time.perf_counter()
            deadline = start + PHASE_LIMIT_S
            with spans.call("send+service+poll", messages=total):
                while got < total and time.perf_counter() < deadline:
                    if sent < total:
                        try:
                            ep0.send(ch0, window[sent % WINDOW])
                            sent += 1
                        except UNetError:
                            n1.service()  # backpressure: let the sink drain
                    n1.service()
                    message = ep1.poll()
                    while message is not None:
                        if message.data != window[got % WINDOW]:
                            mismatched += 1
                        got += 1
                        message = ep1.poll()
            elapsed = time.perf_counter() - start
            syscalls = n0.transport.tx_syscalls + n1.transport.rx_syscalls
        finally:
            cluster.close()
        rep.attempted += total
        rep.failed += total - got + mismatched
        rep.figures["live.scalar_msgs_per_s"] = got / elapsed
        rep.figures["live.scalar_syscalls_per_msg"] = syscalls / max(1, got)

    def _rpc_echo(self, rep: Rep, spans: Spans, size: int) -> None:
        payloads = self.payloads[size]
        cluster, am0, am1, pump = self._am_pair()
        try:
            am1.register_handler(
                ECHO, lambda ctx: ctx.reply(args=(ctx.args[0],), data=ctx.data))
            latencies: List[float] = []
            bad = 0
            for i in range(self.rpcs):
                payload = payloads[i % len(payloads)]
                t0 = time.perf_counter()
                try:
                    args, data = am0.rpc(1, ECHO, args=(i,), data=payload,
                                         pump=pump,
                                         limit_us=PHASE_LIMIT_S * 1e6)
                except (AmError, UNetError):
                    bad += self.rpcs - i  # timed out: the rest never ran
                    break
                t1 = time.perf_counter()
                spans.add_call("LiveAm.rpc", t0, t1)
                latencies.append((t1 - t0) * 1e6)
                if args[0] != i or data != payload:
                    bad += 1
            syscalls = sum(node.transport.tx_syscalls + node.transport.rx_syscalls
                           for node in cluster.nodes)
        finally:
            cluster.close()
        rep.attempted += self.rpcs
        rep.failed += bad
        rep.samples[f"rtt_us_{size}"] = latencies
        if size == self.RPC_SIZES[0]:
            rep.figures["live.rpc_syscalls_per_msg"] = syscalls / max(1, len(latencies))

    def _am_stream(self, rep: Rep, spans: Spans, size: int) -> float:
        """Windowed one-way AM stream; returns goodput in Mb/s."""
        payloads = self.payloads[size]
        total = self.streamed
        cluster, am0, am1, pump = self._am_pair()
        try:
            got = [0, 0]  # delivered, mismatched

            def handler(ctx) -> None:
                if ctx.args[0] != got[0] or ctx.data != payloads[got[0] % len(payloads)]:
                    got[1] += 1
                got[0] += 1

            am1.register_handler(ECHO, handler)
            start = time.perf_counter()
            deadline = start + PHASE_LIMIT_S
            sent = 0
            with spans.call("LiveAm.start_request", messages=total):
                while not (sent == total and got[0] >= total and am0.idle):
                    if time.perf_counter() >= deadline:
                        break
                    if sent < total and am0.start_request(
                            1, ECHO, args=(sent,),
                            data=payloads[sent % len(payloads)]) is not None:
                        sent += 1
                    else:
                        pump()
            elapsed_us = (time.perf_counter() - start) * 1e6
            rep.figures["live.am_rexmit"] = rep.figures.get("live.am_rexmit", 0) + sum(
                peer["retransmissions"] for peer in am0.snapshot().values())
        finally:
            cluster.close()
        rep.attempted += total
        rep.failed += total - min(total, got[0]) + got[1]
        # bits per microsecond == megabits per second
        return got[0] * size * 8 / elapsed_us

    def repetition(self, spans: Spans) -> Rep:
        rep = Rep()
        with spans.phase("batched-burst"):
            self._batched_burst(rep, spans)
        with spans.phase("scalar-burst"):
            self._scalar_burst(rep, spans)
        for size in self.RPC_SIZES:
            with spans.phase(f"rpc/{size}B"):
                self._rpc_echo(rep, spans, size)
        for size, figure in zip(self.STREAM_SIZES,
                                ("live.goodput_mbps_64", "live_goodput_mbps")):
            with spans.phase(f"am-stream/{size}B"):
                rep.figures[figure] = self._am_stream(rep, spans, size)
        return rep
