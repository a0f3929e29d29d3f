#!/usr/bin/env python3
"""A distributed key-value store over Active Messages over U-Net/ATM.

Demonstrates the programming model the paper's Split-C stack is built
on: registered handlers, request/reply RPC, and one-way requests (a big
value goes as a stream of them) — all running over the simulated
PCA-200 ATM fabric with real AAL5 cells on the (virtual) wire.

Run:  python examples/active_messages_rpc.py
"""

from repro.am import AmEndpoint
from repro.atm import AtmNetwork
from repro.core import EndpointConfig
from repro.hw import SPARCSTATION_20
from repro.sim import Simulator

H_PUT = 1
H_GET = 2
H_APPEND = 3
H_SIZE = 4

BLOB = bytes(range(256)) * 256


def main() -> None:
    sim = Simulator()
    network = AtmNetwork(sim)
    config = EndpointConfig(num_buffers=128, buffer_size=2048, recv_queue_depth=128)

    server_host = network.add_host("server", SPARCSTATION_20)
    client_host = network.add_host("client", SPARCSTATION_20)
    server_ep = server_host.create_endpoint(config=config, rx_buffers=48)
    client_ep = client_host.create_endpoint(config=config, rx_buffers=48)
    ch_server, ch_client = network.connect(server_ep, client_ep)

    server = AmEndpoint(0, server_ep)
    client = AmEndpoint(1, client_ep)
    server.connect_peer(1, ch_server)
    client.connect_peer(0, ch_client)

    # ---- server: a tiny key-value store exposed as AM handlers --------
    store = {}

    def on_put(ctx):
        key = ctx.args[0]
        store[key] = ctx.data
        # one-way: no reply; U-Net+AM reliability still guarantees arrival

    def on_get(ctx):
        key = ctx.args[0]
        value = store.get(key, b"")
        yield from ctx.reply(args=(key, len(value)), data=value)

    def on_append(ctx):
        key, offset = ctx.args[0], ctx.args[1]
        value = store.setdefault(key, bytearray())
        value[offset : offset + len(ctx.data)] = ctx.data

    def on_size(ctx):
        key = ctx.args[0]
        yield from ctx.reply(args=(key, len(store.get(key, b""))))

    server.register_handler(H_PUT, on_put)
    server.register_handler(H_GET, on_get)
    server.register_handler(H_APPEND, on_append)
    server.register_handler(H_SIZE, on_size)

    # ---- client program -----------------------------------------------
    def client_program():
        t0 = sim.now
        yield from client.request(0, H_PUT, args=(7,), data=b"forty-two")
        args, data = yield from client.rpc(0, H_GET, args=(7,))
        print(f"GET key=7 -> {data!r}  (rpc took {sim.now - t0:.1f} us)")

        t0 = sim.now
        args, data = yield from client.rpc(0, H_GET, args=(99,))
        print(f"GET key=99 -> {data!r} (miss, {sim.now - t0:.1f} us)")

        # stream a 64 KB value as one-way appends, one packet each; AM
        # delivers in order, so the size rpc behind them sees them all
        t0 = sim.now
        for offset in range(0, len(BLOB), client.max_data):
            yield from client.request(0, H_APPEND, args=(8, offset),
                                      data=BLOB[offset : offset + client.max_data])
        args, _ = yield from client.rpc(0, H_SIZE, args=(8,))
        megabits = args[1] * 8 / (sim.now - t0)
        print(f"streamed PUT of {args[1]} bytes in {(sim.now - t0) / 1000:.2f} ms "
              f"({megabits:.0f} Mb/s over the simulated OC-3 link)")

    with network:  # closed on the way out; counters stay readable
        sim.run_until_complete(sim.process(client_program()))
    assert store[8] == BLOB
    print("streamed blob verified at the server")
    print(f"AM stats: client sent {client.requests_sent} requests, "
          f"server delivered {server.requests_delivered}, acks {server.acks_sent + client.acks_sent}")


if __name__ == "__main__":
    main()
