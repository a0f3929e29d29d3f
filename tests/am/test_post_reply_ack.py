"""The server's standalone ACK after every reply, pinned as it is today.

A handler's reply carries the cumulative ack, so ``AmCore._prepare``
clears the request's ``ack_deadline``.  The driver's ``_note_delivery``
runs after ``_accept`` returns, finds no deadline pending and arms a new
one, so ``ACK_DELAY_US`` after every reply the server sends an ACK with
nothing new in it.  The count does not depend on the client's pace: 20
RPCs cost the server 20 ACKs whether the client waits 0 or 500 us
between calls.  The client's count does: back to back, each next
request carries the ack of the last reply and only the final reply is
acked alone; with a 500 us gap every reply's delayed ack fires.

Fixing it moves every simulated run that uses ``rpc`` (an ACK is a
packet and heap entries on every substrate), so the fix belongs to
ROADMAP item 3(v)'s re-baseline.  That change re-records the server
counts below as 0; until then this test says how many there are.
"""

import pytest

from repro import networks
from repro.am import AmEndpoint
from repro.sim import Simulator

RPCS = 20
ECHO = 1

#: (substrate, client gap in us) -> (server ACKs, client ACKs)
PINS = {
    ("fe-switch", 0.0): (RPCS, 1),
    ("fe-switch", 500.0): (RPCS, RPCS),
    ("atm", 0.0): (RPCS, 1),
    ("atm", 500.0): (RPCS, RPCS),
}


@pytest.mark.parametrize("substrate, gap_us", sorted(PINS))
def test_server_acks_every_reply_on_its_own(two_hosts, substrate, gap_us):
    rig = two_hosts(networks.get(substrate).build(Simulator()))
    client, server = AmEndpoint(0, rig.ep1), AmEndpoint(1, rig.ep2)
    client.connect_peer(1, rig.ch1)
    server.connect_peer(0, rig.ch2)

    def echo(ctx):
        yield from ctx.reply(args=(ctx.args[0],))

    server.register_handler(ECHO, echo)

    def calls():
        for i in range(RPCS):
            args, _data = yield from client.rpc(1, ECHO, args=(i,))
            assert args[0] == i
            if gap_us:
                yield gap_us
        yield 10 * gap_us + 1_000.0  # every delayed ack has fired
        client.shutdown()
        server.shutdown()

    rig.sim.run_until_complete(rig.sim.process(calls()))
    assert (server.acks_sent, client.acks_sent) == PINS[substrate, gap_us]
