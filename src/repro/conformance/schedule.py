"""Conformance cases: a workload plus a content-addressed fault schedule.

A :class:`ConformanceCase` is everything needed to reproduce one
differential run bit-for-bit on any substrate (and on the reference
model): the message workload, the scheduled faults addressed by AM
packet identity (see :mod:`repro.faults.scripted`), the protocol
configuration preset, and the receiver's capacity sizing.  Cases are
generated deterministically from a seed via the named-stream RNG
registry and serialize to plain dicts, which is what makes shrunk
failing cases replayable artifacts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Tuple

from ..am import AmConfig
from ..faults.crash import CrashFault, LifecycleFault, RestartFault
from ..faults.scripted import ScheduledFault
from ..sim import RngRegistry

__all__ = ["Message", "ConformanceCase", "CONFIG_PRESETS", "generate_case"]

#: payload sizes that cross the substrates' interesting thresholds:
#: empty, tiny, ATM single-cell boundary (40 wire bytes), FE inline
#: boundary (64 wire bytes), one buffer, several cells
_SIZES = (0, 4, 12, 40, 64, 120, 200)

_DELAYS_US = (80.0, 250.0, 600.0)

#: one row per preset: the AM configuration both sides run, and the
#: receiver's sizing (``recv_queue_depth``, ``rx_buffers``, and the
#: ``dispatch_overhead_us`` only the receiver pays)
_ROOMY = {"recv_queue_depth": 64, "rx_buffers": 32, "dispatch_overhead_us": 1.0}
CONFIG_PRESETS: Dict[str, Tuple[AmConfig, dict]] = {
    "fixed": (AmConfig(), _ROOMY),
    "adaptive": (AmConfig.adaptive(), _ROOMY),
    # a shallow, slow receiver, so the credit machine actually engages
    "credit": (AmConfig(credit_flow=True),
               {"recv_queue_depth": 4, "rx_buffers": 6, "dispatch_overhead_us": 40.0}),
    # recovery on, window=1, ack-per-delivery: each send fully resolves
    # (dispatch + ack) before the next leaves, which pins the sender's
    # go-back-N head to the crash seq on every substrate — the invariant
    # that makes a lifecycle fault land on the same packet everywhere
    # (with a wider window, how far the receiver's dispatch loop lags
    # the wire at crash time decides the head, and that is pure timing)
    "crash": (AmConfig(recovery=True, window=1, ack_every=1), _ROOMY),
    # roomy receivers: the SACK/ECN contracts are about reordering and
    # congestion signaling, not receive-side shedding, so a clean run
    # must show zero drops
    "sack": (AmConfig(ack_mode="sack"), _ROOMY),
    "ecn": (AmConfig(ack_mode="sack", congestion="ecn", adaptive_window=True), _ROOMY),
}


def _preset(config_name: str) -> Tuple[AmConfig, dict]:
    if config_name not in CONFIG_PRESETS:
        raise ValueError(f"unknown config preset {config_name!r}; "
                         f"choose from {sorted(CONFIG_PRESETS)}")
    return CONFIG_PRESETS[config_name]


@dataclass(frozen=True)
class Message:
    """One workload operation: a request (optionally a full RPC)."""

    size: int
    rpc: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Message":
        return cls(size=int(d["size"]), rpc=bool(d["rpc"]))


@dataclass
class ConformanceCase:
    """One reproducible differential-checking case."""

    seed: int
    config_name: str
    messages: List[Message]
    faults: List[ScheduledFault] = field(default_factory=list)
    #: endpoint lifecycle events (crash/restart of the receiver),
    #: content-addressed exactly like scripted faults
    lifecycle: List[LifecycleFault] = field(default_factory=list)
    recv_queue_depth: int = 64
    rx_buffers: int = 32
    dispatch_overhead_us: float = 1.0
    time_limit_us: float = 10_000_000.0

    @property
    def name(self) -> str:
        return f"{self.config_name}/seed{self.seed}"

    @property
    def size(self) -> int:
        """Case size for shrinking: workload events + fault events."""
        return len(self.messages) + len(self.faults) + len(self.lifecycle)

    @property
    def n_replies(self) -> int:
        return sum(1 for m in self.messages if m.rpc)

    def am_config(self, receiver: bool = False) -> AmConfig:
        """The AM protocol configuration for one side of this case."""
        am, _sizing = _preset(self.config_name)
        return replace(am, dispatch_overhead_us=self.dispatch_overhead_us) if receiver else am

    def fwd_faults(self) -> List[ScheduledFault]:
        return [f for f in self.faults if f.direction == "fwd"]

    def rev_faults(self) -> List[ScheduledFault]:
        return [f for f in self.faults if f.direction == "rev"]

    def fwd_lifecycle(self) -> List[LifecycleFault]:
        return [e for e in self.lifecycle if e.direction == "fwd"]

    def overrun_possible(self) -> bool:
        """Can the sender legally outrun the receiver's capacity?

        True when the flow-control window exceeds what the receiver can
        absorb (queue slots or donated buffers) — classic U-Net then
        *may* shed at the receive queue or free queue; a roomy receiver
        must show zero drops.
        """
        window = self.am_config().window
        return min(self.recv_queue_depth, self.rx_buffers) < window

    def describe(self) -> str:
        ops = ", ".join(
            f"{'rpc' if m.rpc else 'req'}({m.size}B)" for m in self.messages
        )
        lines = [
            f"case {self.name}: {len(self.messages)} messages, "
            f"{len(self.faults)} faults, receiver depth={self.recv_queue_depth} "
            f"buffers={self.rx_buffers} dispatch={self.dispatch_overhead_us}us",
            f"  workload: [{ops}]",
        ]
        for f in self.faults:
            extra = f" +{f.delay_us:.0f}us" if f.action in ("delay", "dup") and f.delay_us else ""
            lines.append(f"  fault: {f.direction} seq={f.seq} occurrence={f.occurrence} "
                         f"{f.action}{extra}")
        for e in self.lifecycle:
            lines.append(f"  lifecycle: {e.direction} seq={e.seq} "
                         f"occurrence={e.occurrence} {e.kind}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ConformanceCase":
        return cls(
            seed=int(d["seed"]),
            config_name=d["config_name"],
            messages=[Message.from_dict(m) for m in d["messages"]],
            faults=[ScheduledFault.from_dict(f) for f in d["faults"]],
            lifecycle=[LifecycleFault.from_dict(e)
                       for e in d.get("lifecycle", [])],
            recv_queue_depth=int(d["recv_queue_depth"]),
            rx_buffers=int(d["rx_buffers"]),
            dispatch_overhead_us=float(d["dispatch_overhead_us"]),
            time_limit_us=float(d["time_limit_us"]),
        )


def generate_case(seed: int, config_name: str = "fixed", n_messages: int = 12) -> ConformanceCase:
    """Deterministically derive a case from ``seed``.

    Draw order is fixed (workload first, then faults, each from its own
    named stream), so a given (seed, config, n) names the same case
    forever — across substrates, machines, and shrinker re-runs.
    """
    _am, sizing = _preset(config_name)
    if config_name == "crash":
        return _generate_crash_case(seed, n_messages)
    scoped = RngRegistry(seed).scoped(f"conformance.{config_name}")
    wl = scoped.stream("workload")
    messages = [Message(size=wl.choice(_SIZES), rpc=wl.random() < 0.25)
                for _ in range(n_messages)]
    n_replies = sum(1 for m in messages if m.rpc)

    fr = scoped.stream("faults")
    faults: List[ScheduledFault] = []
    if config_name == "ecn":
        # request-path faults only, marks on first transmissions only:
        # the model's echo/backoff predictions are substrate-invariant
        # exactly because no echo-bearing reverse packet is ever faulted
        for _ in range(1 + fr.randrange(4)):
            seq = fr.randrange(n_messages)
            roll = fr.random()
            if roll < 0.50:
                action, delay, occurrence = "mark", 0.0, 0
            elif roll < 0.75:
                action, delay = "drop", 0.0
                occurrence = 0 if fr.random() < 0.8 else 1
            else:
                action, delay = "delay", fr.choice(_DELAYS_US)
                occurrence = 0 if fr.random() < 0.8 else 1
            fault = ScheduledFault(direction="fwd", seq=seq,
                                   occurrence=occurrence, action=action,
                                   delay_us=delay)
            if fault not in faults:
                faults.append(fault)
    else:
        # sack is reorder-heavy: delays make later packets overtake
        # earlier ones, which is exactly what the reorder buffer +
        # selective retransmit machinery exists for
        extra, p_rev, p_drop = (1, 0.2, 0.40) if config_name == "sack" else (0, 0.25, 0.60)
        for _ in range(extra + fr.randrange(4)):
            direction = "rev" if (n_replies and fr.random() < p_rev) else "fwd"
            seq = fr.randrange(n_replies) if direction == "rev" else fr.randrange(n_messages)
            occurrence = 0 if fr.random() < 0.8 else 1
            roll = fr.random()
            if roll < p_drop:
                action, delay = "drop", 0.0
            elif roll < 0.85:
                action, delay = "delay", fr.choice(_DELAYS_US)
            else:
                action, delay = "dup", 0.0
            fault = ScheduledFault(direction=direction, seq=seq, occurrence=occurrence,
                                   action=action, delay_us=delay)
            if fault not in faults:
                faults.append(fault)

    return ConformanceCase(seed=seed, config_name=config_name, messages=messages,
                           faults=faults, **sizing)


def _generate_crash_case(seed: int, n_messages: int) -> ConformanceCase:
    """A kill/restart case: the receiver dies mid-stream and comes back.

    Crash cases are deliberately narrower than wire-fault cases so the
    reference semantics stay substrate-invariant:

    * request-only (a reply in flight at the crash would drag the
      reply channel's fate into the contract);
    * the whole workload fits in one go-back-N window, so every send
      leaves before the crash can reorder the picture;
    * the restart triggers on a head *retransmission* (occurrence >= 1)
      and strictly before the sender's ack-starvation watchdog would
      declare the peer dead.
    """
    scoped = RngRegistry(seed).scoped("conformance.crash")
    wl = scoped.stream("workload")
    n = max(2, min(n_messages, 8))
    messages = [Message(size=wl.choice(_SIZES), rpc=False) for _ in range(n)]
    lr = scoped.stream("lifecycle")
    crash_seq = lr.randrange(n)
    restart_occurrence = 1 + lr.randrange(2)
    lifecycle = [CrashFault("fwd", crash_seq, 0),
                 RestartFault("fwd", crash_seq, restart_occurrence)]
    return ConformanceCase(seed=seed, config_name="crash", messages=messages,
                           lifecycle=lifecycle, **CONFIG_PRESETS["crash"][1])
