"""One contract per row of the network table (``repro.networks``).

Every row builds at three sizes, takes its hosts, connects a pair and
carries a small and a full-size message each way; it closes with nothing
held (``tests/conftest.py``'s leak fixture checks that part).  A size
past a row's declared host limit is refused before anything is built.  Names,
aliases and the refusal of an unknown name are held here too, and so is
the bar the table exists for: no module outside it compares substrate
strings or spells a live substrate's name.
"""

import argparse
import pathlib
import re

import pytest

from repro import networks
from repro.cli import build_parser, main
from repro.conformance import SUBSTRATES
from repro.ethernet.switch import BAY_28115
from repro.hw import PENTIUM_120
from repro.sim import Simulator
from repro.splitc import Cluster
from repro.telemetry import collect

ROWS = networks.names()


@pytest.mark.parametrize("n", (2, 5, 40))
@pytest.mark.parametrize("name", ROWS)
def test_row_builds_attaches_connects_carries_and_closes(name, n):
    row = networks.get(name)
    if row.max_hosts is not None and n > row.max_hosts:
        # a row is as big as its device models: refused before anything is built
        with pytest.raises(networks.TooManyHosts, match=f"{name}.*at most {row.max_hosts}"):
            row.check_hosts(n)
        sim = Simulator()
        with pytest.raises(networks.TooManyHosts):
            row.build(sim, n)
        sim.close()
        return
    sim = Simulator()
    with row.build(sim, n) as net:
        hosts = [net.add_host(f"h{i}", PENTIUM_120) for i in range(n)]
        assert net.hosts == hosts
        # first and last host: across leaves on a Clos, across the relay on "mixed"
        a, b = hosts[0].create_endpoint(rx_buffers=8), hosts[-1].create_endpoint(rx_buffers=8)
        ch_a, ch_b = net.connect(a, b)
        got = {}

        def talk(me, channel, tag):
            for size in (40, 1498):
                yield from me.send(channel, bytes([tag]) * size)
            first = yield from me.recv()
            second = yield from me.recv()
            got[tag] = [first.data, second.data]

        done = [sim.process(talk(a, ch_a, 1)), sim.process(talk(b, ch_b, 2))]
        for process in done:
            sim.run_until_complete(process, limit=1e6)
        assert got == {1: [b"\x02" * 40, b"\x02" * 1498], 2: [b"\x01" * 40, b"\x01" * 1498]}
        # what the devices between the hosts carried, hosts' own links aside
        stats = {k: v for k, v in collect(net).items() if "hosts/" not in k}
        carried = sum(v for k, v in stats.items() if k.endswith(("_forwarded", "carried")))
        assert carried >= 4, stats


def test_a_declared_host_limit_is_the_one_its_builder_enforces():
    limited = {row.name: row.max_hosts for row in networks.NETWORKS.values() if row.max_hosts}
    assert limited == {"fe-switch": BAY_28115.ports}
    row = networks.get("fe-switch")
    # the builder itself, past the table's check: host 16 fits, host 17 does not
    with row.build(Simulator(), row.max_hosts) as net:
        for i in range(row.max_hosts):
            net.add_host(f"h{i}", PENTIUM_120)
        with pytest.raises(ValueError, match="only 16 ports"):
            net.switch.attach(0x02_00_00_00_00_FF)


def test_an_oversize_cluster_is_refused_before_anything_is_built():
    """One typed error naming the row and its limit, from ``Cluster`` and
    the CLI alike; the leak fixture sees no simulator built."""
    with pytest.raises(networks.TooManyHosts, match="'fe-switch' holds at most 16 hosts, not 40"):
        Cluster(40, "fe-switch")
    with pytest.raises(ValueError):  # still a ValueError to older callers
        Cluster(17, "fe")
    assert main(["splitc", "rsortsm", "--nodes", "40", "--substrate", "fe-switch"]) == 2


def test_the_one_switch_of_atm_is_reported_once():
    with networks.get("atm").build(Simulator()) as net:
        assert collect(net) == {"reroutes": 0,
                                "switches/0/cells_forwarded": 0,
                                "switches/0/unknown_vci_drops": 0}


def test_names_aliases_and_unknown_names():
    assert ROWS == ("fe-hub", "fe-switch", "fe-beowulf", "fe-clos", "atm", "atm-clos", "mixed")
    assert Cluster.SUBSTRATES == ROWS
    for row in networks.NETWORKS.values():
        assert networks.get(row.name) is row
        for alias in row.aliases:
            assert networks.get(alias) is row
    assert networks.get("fe").name == networks.get("ethernet").name == "fe-switch"
    with pytest.raises(ValueError) as refused:
        networks.get("token-ring")
    for choice in ROWS + ("fe", "ethernet"):
        assert choice in str(refused.value)
    with pytest.raises(ValueError, match="token-ring"):
        Cluster(2, substrate="token-ring")


def test_defaults_follow_the_ni_of_host_zero():
    assert [networks.get(name).ni.name for name in ROWS] == ["fe"] * 4 + ["atm"] * 3
    assert networks.get("fe-clos").ni.mesh_limit == 0xFF  # one-byte U-Net port ids
    assert networks.get("atm-clos").ni.mesh_limit is None
    with Cluster(3, "mixed") as cluster:
        assert cluster.cpus == networks.ATM.cpus(3)


#: the ROADMAP bar, and the lines it may still find: two soaks choose
#: between a simulated and a wall-clock *runner* (not between networks)
LADDER = re.compile(r'substrate (==|in) |startswith\("(fe|atm)')
#: a live name other than bare "live", which is also a package and a word
LIVE_NAME = re.compile("|".join(re.escape(name) for name in networks.LIVE if name != "live"))
RUNNER_DISPATCH = {
    ("faults/crashsoak.py", 'if scenario.substrate == "sigkill":'),
}


def _strays(sources):
    """The ``(module, line)`` pairs of ``sources`` that compare substrate
    strings or spell a live name."""
    found = set()
    for module, text in sources:
        for line in text.splitlines():
            line = line.strip()
            # a loop over substrates and a lookup in a dict keyed by
            # them match the pattern without being a comparison
            ladder = (LADDER.search(line) and not line.startswith("for ")
                      and "substrate in report.traces" not in line)
            if ladder or LIVE_NAME.search(line):
                found.add((module, line))
    return found


def test_no_module_but_the_table_compares_substrate_strings():
    table = pathlib.Path(networks.__file__)
    found = _strays((path.relative_to(table.parent).as_posix(), path.read_text(encoding="utf-8"))
                    for path in sorted(table.parent.rglob("*.py")) if path != table)
    assert found <= RUNNER_DISPATCH, sorted(found - RUNNER_DISPATCH)


def test_the_lint_catches_planted_offenders_and_spares_the_rest():
    planted = ('if name == "live-udp":\n'
               "    return run(LIVE[name])\n"
               'help = "the live* names run on real sockets"\n'
               "kind = 'live-event' if event else None\n"
               'if substrate == "fe":\n'
               "for substrate in SUBSTRATES:\n")
    assert sorted(line for _module, line in _strays([("planted.py", planted)])) == [
        'if name == "live-udp":', 'if substrate == "fe":',
        "kind = 'live-event' if event else None"]


def test_the_cli_offers_every_conformance_substrate_and_no_other():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (option,) = [a for a in sub.choices["conformance"]._actions if a.dest == "substrate"]
    assert tuple(option.choices) == SUBSTRATES + tuple(networks.LIVE)
    with pytest.raises(SystemExit) as refused:
        main(["conformance", "--substrate", "token-ring"])
    assert refused.value.code == 2
