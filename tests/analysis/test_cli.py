"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out and "table1" in out


def test_fig3(capsys):
    assert main(["fig3"]) == 0
    out = capsys.readouterr().out
    assert "trap entry" in out
    assert "4.20us" in out


def test_fig4(capsys):
    assert main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4a" in out and "Figure 4b" in out


def test_fig5_custom_sizes(capsys):
    assert main(["fig5", "--sizes", "40", "100"]) == 0
    out = capsys.readouterr().out
    assert "atm" in out and "hub" in out
    assert "57.0" in out  # hub 40B


def test_fig6_custom_sizes(capsys):
    assert main(["fig6", "--sizes", "1498"]) == 0
    out = capsys.readouterr().out
    assert "Mb/s" in out


def test_table1_small_keys(capsys):
    assert main(["table1", "--keys", "4096"]) == 0
    out = capsys.readouterr().out
    assert "mm 128x128" in out and "rsortlg512K" in out


def test_table2(capsys):
    assert main(["table2", "--keys", "4096"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_fig7(capsys):
    assert main(["fig7", "--keys", "4096"]) == 0
    out = capsys.readouterr().out
    assert "normalized" in out
    assert "C" in out and "n" in out


def test_rtt_single(capsys):
    assert main(["rtt", "--config", "hub", "--size", "40"]) == 0
    out = capsys.readouterr().out
    assert "57.0 us" in out


def test_rtt_unknown_config():
    assert main(["rtt", "--config", "tokenring"]) == 2


def test_bandwidth_single(capsys):
    assert main(["bandwidth", "--config", "atm", "--size", "1498"]) == 0
    out = capsys.readouterr().out
    assert "Mb/s" in out


def test_bandwidth_unknown_config():
    assert main(["bandwidth", "--config", "nope"]) == 2


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_atm_timeline_command(capsys):
    assert main(["atm-timeline", "--size", "40"]) == 0
    out = capsys.readouterr().out
    assert "single-cell fast path" in out


def test_atm_timeline_multicell(capsys):
    assert main(["atm-timeline", "--size", "200"]) == 0
    out = capsys.readouterr().out
    assert "allocate buffer from free queue" in out
    assert "check hardware CRC" in out


def test_splitc_command(capsys):
    assert main(["splitc", "rsortlg", "--nodes", "2", "--keys", "256"]) == 0
    out = capsys.readouterr().out
    assert "verified: True" in out


def test_splitc_mm_prefetch(capsys):
    assert main(["splitc", "mm", "--nodes", "2", "--blocks", "2",
                 "--block-size", "4", "--prefetch"]) == 0
    out = capsys.readouterr().out
    assert "verified: True" in out


def test_splitc_unknown_benchmark():
    assert main(["splitc", "quicksort"]) == 2


@pytest.mark.parametrize("flag", ["--nodes", "--keys", "--blocks", "--block-size"])
def test_splitc_refuses_a_non_positive_size(flag, capsys):
    benchmark = "mm" if flag.startswith("--block") else "ssortsm"
    assert main(["splitc", benchmark, flag, "0"]) == 2
    err = capsys.readouterr().err
    assert err == f"{flag} must be at least 1\n"


def test_splitc_exits_1_on_a_wrong_answer(capsys, monkeypatch):
    from tests.apps.test_benchmarks import plant_wrong_answer

    from repro.apps import radix_sort

    plant_wrong_answer(radix_sort, "radix_program", "rx_src", monkeypatch)
    assert main(["splitc", "rsortlg", "--nodes", "2", "--keys", "64"]) == 1
    captured = capsys.readouterr()
    assert "verified" not in captured.out
    assert captured.err.startswith("rsortlg on 2-node fe-switch: the heap does not hold")


def test_splitc_stats_flag(capsys):
    assert main(["splitc", "ssortlg", "--nodes", "2", "--keys", "128",
                 "--substrate", "atm", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "pdus_sent" in out


def test_report_command(capsys):
    assert main(["report", "--keys", "2048"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "Table 2" in out and "Figure 7" in out


def test_table1_des_command(capsys):
    assert main(["table1", "--des", "--keys", "256"]) == 0
    out = capsys.readouterr().out
    assert "event-level DES" in out
    assert "rsortsm256" in out
