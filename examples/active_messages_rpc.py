#!/usr/bin/env python3
"""A distributed key-value store over Active Messages over U-Net/ATM.

Demonstrates the programming model the paper's Split-C stack is built
on: registered handlers, request/reply RPC, one-way requests, and bulk
transfers — all running over the simulated PCA-200 ATM fabric with real
AAL5 cells on the (virtual) wire.

Run:  python examples/active_messages_rpc.py
"""

from repro.am import AmEndpoint, BulkReceiver, BulkSender
from repro.atm import AtmNetwork
from repro.core import EndpointConfig
from repro.hw import SPARCSTATION_20
from repro.sim import Simulator

H_PUT = 1
H_GET = 2


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

    server.register_handler(H_PUT, on_put)
    server.register_handler(H_GET, on_get)

    # bulk path for big values
    blobs = {}
    BulkReceiver(server, lambda src, tag, data: blobs.update({tag: data}))

    # ---- client program -----------------------------------------------
    def client_program():
        t0 = sim.now
        yield from client.request(0, H_PUT, args=(7,), data=b"forty-two")
        args, data = yield from client.rpc(0, H_GET, args=(7,))
        print(f"GET key=7 -> {data!r}  (rpc took {sim.now - t0:.1f} us)")

        t0 = sim.now
        args, data = yield from client.rpc(0, H_GET, args=(99,))
        print(f"GET key=99 -> {data!r} (miss, {sim.now - t0:.1f} us)")

        # stream a 64 KB value with the bulk-transfer machinery
        sender = BulkSender(client)
        blob = bytes(range(256)) * 256
        t0 = sim.now
        tag = yield from sender.send(0, blob)
        megabits = len(blob) * 8 / (sim.now - t0)
        print(f"bulk PUT of {len(blob)} bytes in {(sim.now - t0) / 1000:.2f} ms "
              f"({megabits:.0f} Mb/s over the simulated OC-3 link)")
        return tag

    with network:  # closed on the way out; counters stay readable
        tag = sim.run_until_complete(sim.process(client_program()))
    assert blobs[tag] == bytes(range(256)) * 256
    print("bulk blob verified at the server")
    print(f"AM stats: client sent {client.requests_sent} requests, "
          f"server delivered {server.requests_delivered}, acks {server.acks_sent + client.acks_sent}")


if __name__ == "__main__":
    main()
