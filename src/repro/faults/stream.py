"""What the Active Message stream soaks share: topology and contract.

The chaos, crash and transport soaks all push numbered request streams
from sender nodes into one sink node and hold the result to the same
delivery contract.  This module is the one copy of both halves:
:func:`build_am_star` builds the hosts, endpoints and connected
:class:`~repro.am.AmEndpoint` objects, and :func:`check_delivery` is the
termination / exactly-once / FIFO / integrity verdict (the overload
soak, which builds its own lopsided cluster, shares only the verdict).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from ..am import AmConfig, AmEndpoint
from ..core import EndpointConfig

__all__ = ["ENDPOINT_CONFIG", "build_am_star", "stream_payload",
           "check_delivery", "render_fault_stats"]

#: endpoint sizing of every stream soak node, simulated or live
ENDPOINT_CONFIG = EndpointConfig(num_buffers=128, buffer_size=2048,
                                 send_queue_depth=64, recv_queue_depth=128)


def build_am_star(net, names: Sequence[str], sink: int,
                  config: Optional[AmConfig]) -> Tuple[list, List[AmEndpoint]]:
    """One host and one AM endpoint per name on ``net`` (which the caller
    built and closes), node id = position, every other node connected to
    node ``sink``; returns ``(hosts, ams)``."""
    from ..hw import PENTIUM_120

    hosts = [net.add_host(name, PENTIUM_120) for name in names]
    endpoints = [host.create_endpoint(config=ENDPOINT_CONFIG, rx_buffers=48)
                 for host in hosts]
    ams = [AmEndpoint(node, endpoint, config=config)
           for node, endpoint in enumerate(endpoints)]
    for node, endpoint in enumerate(endpoints):
        if node != sink:
            channel, sink_channel = net.connect(endpoint, endpoints[sink])
            ams[node].connect_peer(sink, channel)
            ams[sink].connect_peer(node, sink_channel)
    return hosts, ams


def stream_payload(i: int, size: int, sender: int = 0) -> bytes:
    """The bytes message ``i`` of ``sender`` carries (checked on arrival)."""
    return bytes((sender * 37 + i + j) % 256 for j in range(size))


def check_delivery(delivered: Mapping[int, Sequence[int]], messages: int,
                   completed: bool, time_limit_us: float,
                   corrupted: Sequence = ()) -> List[str]:
    """The delivery contract of a request stream, as violations.

    ``delivered`` maps each sender to the ids its sink dispatched, in
    dispatch order; every sender sent ids ``0..messages-1`` in order.
    A stream that did not complete is a **termination** violation (the
    per-id checks would only repeat it); a completed one must have
    dispatched every id **exactly once** and in send order (**fifo**).
    ``corrupted`` names dispatches whose payload failed its check
    (**integrity**) and is reported either way.
    """
    if not completed:
        got = sum(len(ids) for ids in delivered.values())
        violations = [f"termination: {got}/{len(delivered) * messages} "
                      f"dispatched at t={time_limit_us:.0f}us"]
    else:
        violations = []
        expected = list(range(messages))
        for sender, ids in sorted(delivered.items()):
            if list(ids) == expected:
                continue
            if sorted(ids) == expected:
                violations.append(f"fifo: sender {sender} dispatch order "
                                  f"differs from send order")
                continue
            seen: set = set()
            dupes = sorted({i for i in ids if i in seen or seen.add(i)})
            missing = sorted(set(expected) - set(ids))
            if dupes:
                violations.append(f"exactly-once: sender {sender} ids "
                                  f"dispatched twice {dupes[:8]}")
            if missing:
                violations.append(f"exactly-once: sender {sender} ids never "
                                  f"dispatched {missing[:8]}")
    if corrupted:
        violations.append(f"integrity: corrupted payload reached the "
                          f"handler for {list(corrupted)[:8]}")
    return violations


def render_fault_stats(results: Sequence) -> str:
    """The ``--stats`` dump of the runs that attach a fault pipeline."""
    from ..analysis import render_stats

    return "\n".join(f"\n{r.scenario} [{r.mode}] fault pipeline:\n"
                     f"{render_stats(r.fault_stats, indent=1)}"
                     for r in results)
