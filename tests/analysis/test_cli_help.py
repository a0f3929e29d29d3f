"""The CLI's discoverability contract: every experiment is enumerable.

``python -m repro --help`` (and the ``repro`` console script, which
shares ``repro.cli:main``) must list every subcommand with a one-line
description, and the ``list`` command must agree with the parser —
a subcommand that exists but is not discoverable is as good as gone.
"""

import pytest

from repro.cli import _EXPERIMENTS, build_parser, main


def _help_text(capsys) -> str:
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_experiment_with_its_one_liner(capsys):
    out = _help_text(capsys)
    flat = " ".join(out.split())  # argparse wraps long help lines
    for name, description in _EXPERIMENTS.items():
        assert name in out, f"subcommand {name!r} missing from --help"
        assert description in flat, f"help line for {name!r} missing from --help"


def test_every_subparser_is_in_the_experiments_table():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    for name in sub.choices:
        if name in ("atm-timeline", "journey"):
            continue  # auxiliary views, deliberately not in the table
        assert name in _EXPERIMENTS, (
            f"subcommand {name!r} has no entry in _EXPERIMENTS; "
            f"`repro list` would hide it")


def test_list_command_matches_the_table(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in _EXPERIMENTS:
        assert name in out


def test_bench_without_live_points_at_the_simulated_figures(capsys):
    assert main(["bench"]) == 2
    err = capsys.readouterr().err
    assert "--live" in err and "fig5" in err


def test_bench_refuses_the_event_doorbell_it_would_not_use(tmp_path, monkeypatch, capsys):
    """The timed AM phases pump by hand: event mode would time busy-polling."""
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--live", "--doorbell", "event"]) == 2
    err = capsys.readouterr().err
    assert "busy-polling" in err and "busy-poll or batched" in err
    assert not list(tmp_path.iterdir())


def test_console_script_entry_point_is_declared():
    import pathlib
    import re

    pyproject = pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    assert re.search(r'^\s*repro\s*=\s*"repro\.cli:main"\s*$', text, re.M), (
        "console script `repro = \"repro.cli:main\"` missing from pyproject")
