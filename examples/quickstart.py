#!/usr/bin/env python3
"""Quickstart: two hosts exchange messages over U-Net on Fast Ethernet.

Builds the smallest possible U-Net system — two simulated Pentium
workstations on a 100BaseTX hub — creates an endpoint on each, connects
them with a communication channel, and ping-pongs a message, printing
the application-level round-trip time (the paper's headline number:
~57 us for 40 bytes over a hub).

Run:  python examples/quickstart.py
"""

from repro.ethernet import HubNetwork
from repro.hw import PENTIUM_120
from repro.sim import Simulator


def main() -> None:
    sim = Simulator()
    network = HubNetwork(sim)

    # two workstations on the shared hub
    alice = network.add_host("alice", PENTIUM_120)
    bob = network.add_host("bob", PENTIUM_120)

    # each application creates a U-Net endpoint (buffer area + queues)
    # and donates some receive buffers via the free queue
    ep_alice = alice.create_endpoint(rx_buffers=16)
    ep_bob = bob.create_endpoint(rx_buffers=16)

    # the OS channel service registers the (MAC, U-Net port) tags
    ch_alice, ch_bob = network.connect(ep_alice, ep_bob)

    def bob_echo():
        """Bob: receive and echo forever."""
        while True:
            message = yield from ep_bob.recv()
            yield from ep_bob.send(ch_bob, message.data)

    def alice_pingpong():
        """Alice: measure round trips for a few message sizes."""
        for size in (8, 40, 100, 500, 1498):
            rtts = []
            for round_number in range(4):
                t0 = sim.now
                yield from ep_alice.send(ch_alice, b"u" * size)
                yield from ep_alice.recv()
                if round_number:  # skip the cold-start round
                    rtts.append(sim.now - t0)
            print(f"  {size:5d} bytes: round-trip {sum(rtts) / len(rtts):7.1f} us")

    print("U-Net/FE ping-pong over a 100BaseTX hub (paper: ~57 us at 40 bytes)")
    sim.process(bob_echo())
    # leaving the block closes the machine: bob's echo loop ends where it
    # waits and both endpoints return their buffer areas (Section 3)
    with network:
        sim.run_until_complete(sim.process(alice_pingpong()))
    print(f"simulated time: {sim.now / 1000:.2f} ms, "
          f"events processed: {sim.events_processed}")


if __name__ == "__main__":
    main()
