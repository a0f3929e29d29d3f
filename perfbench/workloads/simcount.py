"""Counters the simulated substrates already expose, read from outside."""

from __future__ import annotations

from typing import Iterable

from ..harness import Rep


def count_sim(rep: Rep, sim, hosts: Iterable, ams: Iterable = (),
              engines: Iterable = ()) -> None:
    """Add one finished simulation's counters to ``rep``.

    ``atm.cells`` counts cells the hosts put on their own uplinks (switch
    and trunk hops carry the same cells again and are not added).
    """
    rep.count("sim.events", sim.events_processed)
    for host in hosts:
        backend = host.backend
        rep.count("core.drops", sum(backend.drop_stats().values()))
        for endpoint in backend.endpoints:
            rep.count("core.drops", sum(endpoint.drop_stats().values()))
        tx_link = getattr(backend, "tx_link", None)
        if tx_link is not None:
            rep.count("atm.cells", tx_link.cells_carried)
            rep.count("atm.pdus", backend.pdus_sent)
        nic = getattr(backend, "nic", None)
        if nic is not None:
            rep.count("ethernet.frames", nic.frames_sent)
    for am in ams:
        for peer in am.snapshot().values():
            rep.count("am.rexmit", peer["retransmissions"])
            rep.count("am.timeouts", peer["timeouts"])
            rep.count("am.credit_stalls", peer["credit_stalls"])
    for engine in engines:
        rep.count("collectives.packets", engine.packets_sent)
