"""Ablation: IPv4 encapsulation for multi-switch scalability (§4.4.3).

"The use of Ethernet MAC addresses and port IDs to address endpoints
does not allow messages to traverse multiple switches or IP routers.
One solution would be to use a simple IPv4 encapsulation for U-Net
messages; however, this would add considerable communication overhead.
U-Net/ATM does not suffer this problem as virtual circuits are
established network-wide."

We built the proposal and measure the overhead: raw tags vs. IPv4/UDP
encapsulation on one segment, and the full path through a software IP
router between segments.
"""

import pytest

from repro.analysis import format_table, measure_rtt, setup_fe_switch
from repro.analysis.microbench import MicrobenchSetup, two_host_rig
from repro.ethernet import RoutedFeNetwork
from repro.sim import Simulator


def _routed_setup(cross_segment: bool) -> MicrobenchSetup:
    return two_host_rig(RoutedFeNetwork(Simulator(), segments=2),
                        label="routed" if cross_segment else "ip-same-segment",
                        where=({"segment": 0}, {"segment": 1 if cross_segment else 0}))


def test_ablation_ip_encapsulation(benchmark, emit):
    def run():
        results = {}
        for name, setup in (
            ("raw U-Net/FE tags (one switch)", setup_fe_switch()),
            ("IPv4 encapsulated (one switch)", _routed_setup(False)),
            ("IPv4 across a software router", _routed_setup(True)),
        ):
            with setup:
                results[name] = measure_rtt(setup, 40)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base = results["raw U-Net/FE tags (one switch)"]
    rows = [(name, rtt, f"+{rtt - base:.1f}") for name, rtt in results.items()]
    emit(format_table(
        ("configuration", "40B RTT (us)", "vs raw"),
        rows,
        title="Ablation - IPv4 encapsulation overhead (Section 4.4.3)",
    ))
    encap = results["IPv4 encapsulated (one switch)"]
    routed = results["IPv4 across a software router"]
    # 'considerable communication overhead': headers + checksum cost
    # noticeably more than the raw path even without a router...
    assert encap > base + 15.0
    # ...and crossing a mid-90s software router more than doubles the
    # end-to-end latency
    assert routed > 2 * base
