#!/usr/bin/env python3
"""A small-message file-server workload (one of the paper's motivations).

The introduction argues low overheads matter because, among others,
"in network file systems ... the vast majority of messages are small
(less than 200 bytes) in size".  This example runs an NFS-like
request/response workload — lookups, getattrs, small reads — from three
clients against one server, over U-Net/FE and U-Net/ATM, and reports
operations per second.  Fast Ethernet's lower per-message overhead wins
exactly as Section 5.2 predicts for small-message traffic.

Run:  python examples/file_server.py
"""

from repro.am import AmEndpoint
from repro.atm import AtmNetwork
from repro.core import EndpointConfig
from repro.ethernet import SwitchedNetwork
from repro.hw import PENTIUM_120
from repro.sim import Simulator

OP_LOOKUP = 1
OP_GETATTR = 2
OP_READ = 3

CLIENTS = 3
OPS_PER_CLIENT = 120

CONFIG = EndpointConfig(num_buffers=256, buffer_size=2048,
                        send_queue_depth=128, recv_queue_depth=256)


def run_workload(substrate: str) -> float:
    sim = Simulator()
    network = SwitchedNetwork(sim) if substrate == "fe" else AtmNetwork(sim)
    server_host = network.add_host("server", PENTIUM_120)
    server_ep = server_host.create_endpoint(config=CONFIG, rx_buffers=96)
    server = AmEndpoint(0, server_ep)

    # the "filesystem"
    files = {i: bytes([i % 256]) * 180 for i in range(64)}

    def on_lookup(ctx):
        yield from ctx.reply(args=(ctx.args[0], 1), data=b"\x07" * 32)  # a file handle

    def on_getattr(ctx):
        yield from ctx.reply(args=(ctx.args[0],), data=b"\x00" * 68)  # struct stat

    def on_read(ctx):
        handle, offset = ctx.args[0], ctx.args[1]
        data = files.get(handle % 64, b"")[offset : offset + 180]
        yield from ctx.reply(args=(handle, len(data)), data=data)

    server.register_handler(OP_LOOKUP, on_lookup)
    server.register_handler(OP_GETATTR, on_getattr)
    server.register_handler(OP_READ, on_read)

    clients = []
    for c in range(CLIENTS):
        host = network.add_host(f"client{c}", PENTIUM_120)
        endpoint = host.create_endpoint(config=CONFIG, rx_buffers=96)
        am = AmEndpoint(c + 1, endpoint)
        ch_server, ch_client = network.connect(server_ep, endpoint)
        server.connect_peer(c + 1, ch_server)
        am.connect_peer(0, ch_client)
        clients.append(am)

    def client_program(am, c):
        def proc():
            for i in range(OPS_PER_CLIENT):
                # a typical NFS mix: lookup, getattr, then a small read
                yield from am.rpc(0, OP_LOOKUP, args=(i,), data=b"/home/u/file%d" % i)
                yield from am.rpc(0, OP_GETATTR, args=(i,))
                yield from am.rpc(0, OP_READ, args=(i, 0))

        return proc

    with network:  # closed once every client is done
        processes = [sim.process(client_program(am, c)()) for c, am in enumerate(clients)]
        for process in processes:
            sim.run_until_complete(process)
    total_ops = CLIENTS * OPS_PER_CLIENT * 3
    return total_ops / (sim.now / 1e6)  # ops per second


def main() -> None:
    print(f"NFS-like small-message workload: {CLIENTS} clients x "
          f"{OPS_PER_CLIENT * 3} RPCs against one server\n")
    fe = run_workload("fe")
    atm = run_workload("atm")
    print(f"  U-Net/FE  (Bay 28115):  {fe:10.0f} ops/s")
    print(f"  U-Net/ATM (ASX-200):    {atm:10.0f} ops/s")
    print()
    print(f"Fast Ethernet serves {fe / atm:.2f}x the operations: every RPC is a")
    print("small message, and the i960 charges ~10+13 us where the FE kernel")
    print("path charges ~4 us of (faster) host CPU — the Section 5.2 result.")


if __name__ == "__main__":
    main()
