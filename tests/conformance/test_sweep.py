"""The one conformance sweep: a bug runs exactly the configs its row names."""

import argparse

import pytest

from repro import cli
from repro.conformance import BUGS, CONFIG_PRESETS


@pytest.mark.parametrize("bug", ["heal-reroot", "credit-gate"])
def test_a_bug_sweeps_the_configs_its_row_names_and_is_caught(bug, capsys):
    # seed 2 is the first whose credit case drains remote credit to
    # exactly 0 on ATM, so three seeds are the fewest that catch the gate
    code = cli.main(["conformance", "--bug", bug, "--substrate", "atm",
                     "--seeds", "3", "--fail-fast"])
    assert code == 1
    summary = capsys.readouterr().out.splitlines()[-1]
    assert f"over {list(BUGS[bug]['configs'])} on ['atm']" in summary, summary


def test_the_cli_offers_every_config_preset_and_fabric():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    (option,) = [a for a in sub.choices["conformance"]._actions if a.dest == "config"]
    assert tuple(option.choices) == tuple(CONFIG_PRESETS) + ("fabric",)
    engaged = {config for row in BUGS.values() for config in row["configs"]}
    assert engaged <= set(option.choices)
