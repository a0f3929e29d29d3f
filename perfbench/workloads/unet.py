"""Raw U-Net endpoint workloads: ``unet-pingpong`` and ``unet-stream``.

Both drive the two-host networks of Figures 5 and 6 the way
``analysis.microbench`` does (compose, push a descriptor, kick, poll the
receive queue) but with seeded payloads and an output check on every
message, which ``measure_rtt``/``measure_bandwidth`` do not make.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Tuple

from repro.analysis.microbench import (
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    MicrobenchSetup,
)

from ..harness import Rep, Spans, Workload
from .simcount import count_sim

#: distinct payloads per size; messages cycle through them
PAYLOAD_POOL = 16


def seeded_payloads(seed: int, size: int) -> List[bytes]:
    rng = random.Random(seed * 65537 + size)
    return [rng.randbytes(size) for _ in range(PAYLOAD_POOL)]


def paper_error_pct(measured: Dict[str, float], paper: Dict[str, float]) -> float:
    return max(abs(measured[key] - ref) / ref * 100.0 for key, ref in paper.items())


def _count_setup(rep: Rep, setup: MicrobenchSetup) -> None:
    count_sim(rep, setup.sim, (setup.ep1.host, setup.ep2.host))


# ----------------------------------------------------------------- pingpong
def ping_pong(setup: MicrobenchSetup, payloads: List[bytes],
              rounds: int) -> Tuple[List[float], int]:
    """Closed loop: (simulated RTT of every round, echo mismatches)."""
    sim = setup.sim

    def ponger():
        while True:
            message = yield from setup.ep2.recv()
            yield from setup.ep2.send(setup.ch2, message.data)

    def pinger():
        rtts = []
        mismatches = 0
        for i in range(rounds):
            payload = payloads[i % len(payloads)]
            t0 = sim.now
            yield from setup.ep1.send(setup.ch1, payload)
            echo = yield from setup.ep1.recv()
            rtts.append(sim.now - t0)
            if echo.data != payload:
                mismatches += 1
        return rtts, mismatches

    sim.process(ponger(), name="ponger")
    return sim.run_until_complete(sim.process(pinger(), name="pinger"))


class PingPong(Workload):
    """Smallest-message regime: per-message fixed cost does the work."""

    name = "unet-pingpong"
    op = "one round trip"

    CONFIGS = ("hub", "bay28115", "fn100", "atm")
    SIZES = (0, 40)
    #: round trips per (config, size) at scale 1.0: 8 x 640 = 5.1k per rep
    ROUNDS = 640
    #: 40-byte RTTs the paper reports (Figure 5), microseconds
    PAPER_RTT_US = {"ethernet.hub_rtt_us": 57.0, "ethernet.fn100_rtt_us": 91.0,
                    "atm.rtt_us": 89.0}
    FIGURE = {"hub": "ethernet.hub_rtt_us", "bay28115": "ethernet.bay28115_rtt_us",
              "fn100": "ethernet.fn100_rtt_us", "atm": "atm.rtt_us"}

    def prepare(self, seed: int, scale: float) -> None:
        self.payloads = {size: seeded_payloads(seed, size) for size in self.SIZES}
        self.rounds = 3
        self.repetition(Spans())  # warm-up: every config once, three rounds
        self.rounds = max(3, round(self.ROUNDS * scale))

    def repetition(self, spans: Spans) -> Rep:
        rep = Rep()
        for config in self.CONFIGS:
            for size in self.SIZES:
                with spans.phase(f"{config}/{size}B"):
                    setup = FIGURE5_CONFIGS[config]()
                    with spans.call("ping_pong", rounds=self.rounds):
                        rtts, mismatches = ping_pong(
                            setup, self.payloads[size], self.rounds)
                rep.ops += self.rounds
                rep.attempted += self.rounds
                rep.failed += mismatches
                rep.sim_us += sum(rtts)
                _count_setup(rep, setup)
                if size == 40:
                    # as measure_rtt: the cold-start round is left out
                    rep.figures[self.FIGURE[config]] = (
                        sum(rtts[1:]) / (len(rtts) - 1))
        rep.figures["paper_error_pct"] = paper_error_pct(
            rep.figures, self.PAPER_RTT_US)
        return rep


# ------------------------------------------------------------------- stream
def stream(setup: MicrobenchSetup, payloads: List[bytes],
           messages: int) -> Tuple[float, int]:
    """One-way stream: (simulated end time, checksum of what arrived).

    A lost message leaves the receiver waiting and the simulator raises,
    which ends the run with a non-zero exit code.
    """
    sim = setup.sim

    def sender():
        for i in range(messages):
            yield from setup.ep1.send(setup.ch1, payloads[i % len(payloads)])

    def receiver():
        checksum = 0
        for _ in range(messages):
            message = yield from setup.ep2.recv()
            checksum = zlib.crc32(message.data, checksum)
        return sim.now, checksum

    sim.process(sender(), name="sender")
    return sim.run_until_complete(sim.process(receiver(), name="receiver"))


class Stream(Workload):
    """Full-size messages: per-cell callbacks, AAL5 CRC, serialisation and
    queue back-pressure do the work; 32 cells or one max frame each."""

    name = "unet-stream"
    op = "one 1498-byte message delivered"

    CONFIGS = ("hub", "bay28115", "atm")
    SIZE = 1498
    #: messages per config at scale 1.0: 3 x 900 = 2.7k per rep
    MESSAGES = 900
    #: 1498-byte goodput the paper reports (Figure 6), Mb/s
    PAPER_MBPS = {"ethernet.hub_mbps": 96.5, "atm.taxi_mbps": 118.0}
    FIGURE = {"hub": "ethernet.hub_mbps", "bay28115": "ethernet.bay28115_mbps",
              "atm": "atm.taxi_mbps"}

    def prepare(self, seed: int, scale: float) -> None:
        self.payloads = seeded_payloads(seed, self.SIZE)
        self.messages = 4
        self.repetition(Spans())  # warm-up
        self.messages = max(4, round(self.MESSAGES * scale))

    def expected_checksum(self) -> int:
        checksum = 0
        for i in range(self.messages):
            checksum = zlib.crc32(self.payloads[i % len(self.payloads)], checksum)
        return checksum

    def repetition(self, spans: Spans) -> Rep:
        rep = Rep()
        expected = self.expected_checksum()
        for config in self.CONFIGS:
            with spans.phase(f"{config}/{self.SIZE}B"):
                setup = FIGURE6_CONFIGS[config]()
                with spans.call("stream", messages=self.messages):
                    end_us, checksum = stream(
                        setup, self.payloads, self.messages)
            rep.ops += self.messages
            rep.attempted += self.messages
            if checksum != expected:
                rep.failed += self.messages
            rep.sim_us += end_us
            _count_setup(rep, setup)
            rep.figures[self.FIGURE[config]] = (
                self.messages * self.SIZE * 8 / end_us)
        rep.figures["paper_error_pct"] = paper_error_pct(
            rep.figures, self.PAPER_MBPS)
        return rep
