#!/usr/bin/env python3
"""Head-to-head: U-Net/ATM vs U-Net/FE latency and bandwidth.

Reproduces the core of the paper's Figures 5 and 6 in one run: sweeps
message sizes over all four network configurations (hub, Bay 28115
switch, Cabletron FN100 switch, Fore ASX-200 ATM) and prints the
latency and bandwidth curves side by side, highlighting:

* the ATM single-cell fast path (note the jump between 40 and 44 bytes),
* the per-switch latency differences on Fast Ethernet,
* FE saturating at ~97 Mb/s while ATM reaches ~118 Mb/s.

Run:  python examples/atm_vs_ethernet.py
"""

from repro.analysis import FIGURE5_CONFIGS, FIGURE6_CONFIGS, FIGURES, ascii_plot, format_table

LATENCY_SIZES = [0, 16, 40, 44, 64, 128, 256, 512, 1024, 1498]
BANDWIDTH_SIZES = [64, 256, 512, 1024, 1498]


def main() -> None:
    print("=== Round-trip latency (us) — Figure 5 ===")
    latency = FIGURES["fig5"].series(LATENCY_SIZES)
    rows = []
    for i, size in enumerate(LATENCY_SIZES):
        rows.append([size] + [latency[name][i][1] for name in FIGURE5_CONFIGS])
    print(format_table(["bytes"] + list(FIGURE5_CONFIGS), rows))
    print()
    print(ascii_plot(
        {name: [(float(s), r) for s, r in pts] for name, pts in latency.items()},
        title="RTT vs message size",
        xlabel="bytes",
        ylabel="us",
    ))

    print()
    print("=== One-way bandwidth (Mb/s) — Figure 6 ===")
    bandwidth = FIGURES["fig6"].series(BANDWIDTH_SIZES)
    rows = []
    for i, size in enumerate(BANDWIDTH_SIZES):
        rows.append([size] + [bandwidth[name][i][1] for name in FIGURE6_CONFIGS])
    print(format_table(["bytes"] + list(FIGURE6_CONFIGS), rows))

    atm40 = dict(latency["atm"])[40]
    atm44 = dict(latency["atm"])[44]
    print()
    print(f"ATM single-cell fast path: 40B -> {atm40:.0f} us, 44B -> {atm44:.0f} us "
          f"(+{atm44 - atm40:.0f} us once a second cell is needed)")


if __name__ == "__main__":
    main()
