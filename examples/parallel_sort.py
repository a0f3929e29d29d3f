#!/usr/bin/env python3
"""Parallel radix sort on a simulated workstation cluster (Section 5).

Runs the paper's radix-sort benchmark — real keys, real all-to-all key
exchange over Active Messages over U-Net — on a 4-node Fast Ethernet
cluster and a 4-node ATM cluster, in both the small-message (two keys
per message) and large-message (one bulk transfer per peer) variants,
and prints the cpu/net time split the paper's Figure 7 is built from.
``run_radix_sort`` checks that the keys came out globally sorted before
it returns a time; a wrong sort raises ``WrongResult``.

Run:  python examples/parallel_sort.py
"""

from repro.apps import RadixConfig, run_radix_sort
from repro.splitc import Cluster

NODES = 4
KEYS_PER_NODE = 2048  # scaled down from the paper's 512K for a quick demo


def main() -> None:
    print(f"Parallel radix sort: {NODES} nodes x {KEYS_PER_NODE} keys")
    print(f"{'configuration':28s} {'time (ms)':>10s} {'cpu%':>6s} {'net%':>6s}")
    for substrate, label in (("fe-switch", "Fast Ethernet (Bay 28115)"), ("atm", "ATM (ASX-200)")):
        for small in (True, False):
            variant = "small msgs" if small else "bulk msgs"
            cfg = RadixConfig(keys_per_node=KEYS_PER_NODE, small_messages=small)
            cluster = Cluster(NODES, substrate=substrate)
            result = run_radix_sort(cluster, cfg)
            cpu = sum(result.per_node_cpu_us) / NODES
            net = sum(result.per_node_net_us) / NODES
            busy = cpu + net or 1.0
            print(f"{label + ', ' + variant:28s} {result.elapsed_us / 1000:10.1f} "
                  f"{cpu / busy * 100:5.0f}% {net / busy * 100:5.0f}%")
    print("(every sort above was checked: sorted, and the input's keys)")
    print()
    print("Note how the small-message variant is communication-bound and the")
    print("ATM cluster pays the i960 co-processor's per-message cost for it,")
    print("while bulk transfers flip the comparison (Section 5.2).")


if __name__ == "__main__":
    main()
