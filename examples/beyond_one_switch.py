#!/usr/bin/env python3
"""Scaling beyond a single switch (Section 4.4.3).

U-Net/FE addresses endpoints with Ethernet MAC addresses + port IDs,
which cannot cross an IP router; the paper proposes IPv4 encapsulation
but warns of "considerable communication overhead".  U-Net/ATM uses
network-wide virtual circuits instead.  This example builds both
multi-hop topologies and measures a 40-byte round trip:

* two ATM switches joined by an OC-3 trunk (VCI programmed hop by hop),
* two Fast Ethernet segments joined by a software IP router, with
  U-Net messages carried in real IPv4/UDP datagrams.

Run:  python examples/beyond_one_switch.py
"""

from repro.atm import AtmFabric
from repro.ethernet import RoutedFeNetwork
from repro.hw import PENTIUM_120
from repro.sim import Simulator


def _rtt(sim, ep1, ep2, ch1, ch2, size=40, rounds=4):
    def ponger():
        while True:
            msg = yield from ep2.recv()
            yield from ep2.send(ch2, msg.data)

    def pinger():
        rtts = []
        for i in range(rounds):
            t0 = sim.now
            yield from ep1.send(ch1, b"x" * size)
            yield from ep1.recv()
            if i:
                rtts.append(sim.now - t0)
        return sum(rtts) / len(rtts)

    sim.process(ponger())
    return sim.run_until_complete(sim.process(pinger()))


def main() -> None:
    print("Crossing switch boundaries with U-Net (40-byte round trips)\n")

    for hops in (1, 2, 3):
        sim = Simulator()
        fabric = AtmFabric(sim, switches=hops)
        h1 = fabric.add_host("h1", PENTIUM_120, switch=0)
        h2 = fabric.add_host("h2", PENTIUM_120, switch=hops - 1)
        ep1 = h1.create_endpoint(rx_buffers=16)
        ep2 = h2.create_endpoint(rx_buffers=16)
        ch1, ch2 = fabric.connect(ep1, ep2)
        with fabric:
            rtt = _rtt(sim, ep1, ep2, ch1, ch2)
        print(f"  ATM, {hops} switch(es), network-wide VC:   {rtt:7.1f} us")

    for cross in (False, True):
        sim = Simulator()
        net = RoutedFeNetwork(sim, segments=2)
        h1 = net.add_host("h1", PENTIUM_120, segment=0)
        h2 = net.add_host("h2", PENTIUM_120, segment=1 if cross else 0)
        ep1 = h1.create_endpoint(rx_buffers=16)
        ep2 = h2.create_endpoint(rx_buffers=16)
        ch1, ch2 = net.connect(ep1, ep2)
        with net:
            rtt = _rtt(sim, ep1, ep2, ch1, ch2)
        where = "across the IP router " if cross else "same segment (IP encap)"
        print(f"  FE,  {where}: {rtt:7.1f} us")
        if cross:
            print(f"       (router forwarded {net.router.packets_forwarded} packets, "
                  f"55 us of software forwarding each)")

    print("\nEach extra ATM switch costs ~7 us of cell forwarding; the FE path")
    print("pays IPv4 headers + checksums on every message and a mid-90s software")
    print("router on the way — the paper's Section 4.4.3 trade-off, quantified.")


if __name__ == "__main__":
    main()
