#!/usr/bin/env python3
"""Two-phase commit rounds over U-Net (another intro motivation).

"Software fault-tolerance protocols (establishing consistent views of a
distributed system among its members) ... often require multiple rounds
of small-message passing" — the paper's introduction.  This example
runs a coordinator + participants two-phase commit over Active Messages
on both substrates and reports commit latency, including a run where a
participant's link drops messages (the AM layer retransmits and the
protocol still completes).

Run:  python examples/fault_tolerant_commit.py
"""

from repro.am import AmConfig, AmEndpoint
from repro.core import EndpointConfig
from repro.ethernet import SwitchedNetwork
from repro.faults import UniformLoss, attach_pipeline
from repro.atm import AtmNetwork
from repro.hw import PENTIUM_120
from repro.sim import RngRegistry, Simulator

H_PREPARE = 1
H_COMMIT = 2

PARTICIPANTS = 4
ROUNDS = 20

CONFIG = EndpointConfig(num_buffers=128, buffer_size=2048, recv_queue_depth=128)


def build(substrate: str, lossy: bool):
    sim = Simulator()
    network = SwitchedNetwork(sim) if substrate == "fe" else AtmNetwork(sim)
    coord_host = network.add_host("coordinator", PENTIUM_120)
    coord_ep = coord_host.create_endpoint(config=CONFIG, rx_buffers=64)
    am_cfg = AmConfig(retransmit_timeout_us=500.0)
    coordinator = AmEndpoint(0, coord_ep, config=am_cfg)
    participants = []
    for p in range(PARTICIPANTS):
        host = network.add_host(f"participant{p}", PENTIUM_120)
        endpoint = host.create_endpoint(config=CONFIG, rx_buffers=64)
        am = AmEndpoint(p + 1, endpoint, config=am_cfg)
        ch_c, ch_p = network.connect(coord_ep, endpoint)
        coordinator.connect_peer(p + 1, ch_c)
        am.connect_peer(0, ch_p)

        state = {"prepared": set(), "committed": set()}

        def make_handlers(state=state, am=am):
            def on_prepare(ctx):
                state["prepared"].add(ctx.args[0])
                yield from ctx.reply(args=(ctx.args[0], 1))  # vote yes

            def on_commit(ctx):
                state["committed"].add(ctx.args[0])
                yield from ctx.reply(args=(ctx.args[0],))

            return on_prepare, on_commit

        on_prepare, on_commit = make_handlers()
        am.register_handler(H_PREPARE, on_prepare)
        am.register_handler(H_COMMIT, on_commit)
        participants.append((am, state))
    loss = None
    if lossy and substrate == "fe":
        # participant 2's inbound link loses 20% of its frames
        loss = UniformLoss(0.2)
        attach_pipeline(participants[2][0].user.host.backend, [loss],
                        rng=RngRegistry(13))
    return network, coordinator, participants, loss


def run(substrate: str, lossy: bool = False):
    network, coordinator, participants, loss = build(substrate, lossy)
    sim = network.sim
    latencies = []

    def coordinator_program():
        for txn in range(ROUNDS):
            t0 = sim.now
            # phase 1: prepare — gather unanimous votes
            votes = []
            for p in range(PARTICIPANTS):
                args, _ = yield from coordinator.rpc(p + 1, H_PREPARE, args=(txn,))
                votes.append(args[1])
            assert all(votes)
            # phase 2: commit
            for p in range(PARTICIPANTS):
                yield from coordinator.rpc(p + 1, H_COMMIT, args=(txn,))
            latencies.append(sim.now - t0)

    with network:  # closed on the way out; participants' state stays readable
        sim.run_until_complete(sim.process(coordinator_program()))
    for _am, state in participants:
        assert state["committed"] == set(range(ROUNDS))  # consistency held
    dropped = loss.dropped if loss else 0
    return sum(latencies) / len(latencies), max(latencies), dropped


def main() -> None:
    print(f"Two-phase commit, {PARTICIPANTS} participants, {ROUNDS} transactions\n")
    for substrate, label in (("fe", "U-Net/FE"), ("atm", "U-Net/ATM")):
        avg, worst, _ = run(substrate)
        print(f"  {label:10s} clean link:  avg {avg:7.0f} us/txn, worst {worst:7.0f} us")
    avg, worst, dropped = run("fe", lossy=True)
    print(f"  {'U-Net/FE':10s} 20% loss  :  avg {avg:7.0f} us/txn, worst {worst:7.0f} us "
          f"({dropped} frames dropped, all transactions still committed)")
    print()
    print("Every message here is tiny, so the low-overhead FE path wins; and")
    print("because U-Net leaves reliability to the layer above, the AM window")
    print("recovers lost messages and the commit protocol never notices.")


if __name__ == "__main__":
    main()
