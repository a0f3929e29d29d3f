"""Tests for the analysis harness (microbench, timelines, tables, report)."""

import pytest

from repro.analysis import (
    BENCHMARKS,
    ascii_plot,
    figure3_timeline,
    figure4_timeline,
    figure7,
    format_comparison,
    format_table,
    measure_bandwidth,
    measure_rtt,
    setup_atm,
    setup_fe_hub,
    setup_fe_switch,
    table1,
    table2,
)
from repro.ethernet import FN100


# ---------------------------------------------------------------- microbench


def test_rtt_hub_matches_paper_57us():
    rtt = measure_rtt(setup_fe_hub(), 40)
    assert rtt == pytest.approx(57.0, rel=0.10)


def test_rtt_fn100_matches_paper_91us():
    rtt = measure_rtt(setup_fe_switch(FN100), 40)
    assert rtt == pytest.approx(91.0, rel=0.10)


def test_rtt_atm_matches_paper_89us():
    rtt = measure_rtt(setup_atm(), 40)
    assert rtt == pytest.approx(89.0, rel=0.10)


def test_atm_multicell_discontinuity():
    # Figure 5: >40-byte ATM messages jump toward ~130 us
    setup = setup_atm()
    low = measure_rtt(setup, 40)
    setup = setup_atm()
    high = measure_rtt(setup, 44)
    assert high == pytest.approx(130.0, rel=0.15)
    assert high - low > 25.0


def test_bandwidth_fe_saturates_near_97():
    from repro.analysis import FIGURE6_CONFIGS

    bw = measure_bandwidth(FIGURE6_CONFIGS["hub"](), 1498)
    assert bw == pytest.approx(96.5, rel=0.05)


def test_bandwidth_atm_exceeds_fe():
    from repro.analysis import FIGURE6_CONFIGS

    atm = measure_bandwidth(FIGURE6_CONFIGS["atm"](), 1498)
    fe = measure_bandwidth(FIGURE6_CONFIGS["hub"](), 1498)
    assert atm == pytest.approx(118.0, rel=0.08)
    assert atm > fe + 10


def test_bandwidth_small_messages_much_lower():
    # tiny messages ride minimum-size (padded) frames: goodput collapses
    bw_small = measure_bandwidth(setup_fe_hub(), 16, messages=40)
    bw_large = measure_bandwidth(setup_fe_hub(), 1400, messages=40)
    assert bw_small < bw_large / 3


# ---------------------------------------------------------------- timelines


def test_figure3_total_and_steps():
    timeline = figure3_timeline()
    assert timeline.total == pytest.approx(4.2, abs=0.05)
    labels = [s.label for s in timeline.steps()]
    assert labels[0].startswith("trap entry")
    assert labels[-1] == "return from trap"
    assert len(labels) == 8  # the paper's eight numbered steps


def test_figure4_inline_vs_buffered():
    t40 = figure4_timeline(40)
    t100 = figure4_timeline(100)
    # an extra empty ring poll closes our handler span
    assert t40.total == pytest.approx(4.1 + 0.52, abs=0.3)
    assert t100.total == pytest.approx(5.6 + 0.52, abs=0.3)
    labels_100 = [s.label for s in t100.steps()]
    assert any("allocate U-Net recv buffer" in l for l in labels_100)
    labels_40 = [s.label for s in t40.steps()]
    assert not any("allocate U-Net recv buffer" in l for l in labels_40)


def test_timeline_renders():
    text = figure3_timeline().render(title="TX")
    assert "TX" in text and "total" in text


# ---------------------------------------------------------------- tables


def test_table1_complete_grid():
    entries = table1(keys_per_node=4096)  # small keys: fast projection
    assert len(entries) == 6 * 3 * 2
    assert all(e.seconds > 0 for e in entries)
    assert all(abs(e.seconds - (e.cpu_seconds + e.net_seconds)) < 1e-9 for e in entries)


def test_table2_speedups_positive():
    rows = table2(table1(keys_per_node=4096))
    assert len(rows) == 6
    for _name, atm_speedup, fe_speedup in rows:
        assert atm_speedup > 1.0
        assert fe_speedup > 1.0


def test_figure7_normalization():
    bars = figure7(table1(keys_per_node=4096))
    assert len(bars) == 6 * 2 * 3
    reference = [b for b in bars if b["substrate"] == "ATM" and b["nodes"] == 2]
    assert all(b["relative_total"] == pytest.approx(1.0) for b in reference)
    for b in bars:
        assert b["relative_total"] == pytest.approx(b["relative_cpu"] + b["relative_net"], rel=1e-6)


# ---------------------------------------------------------------- report


def test_format_table_alignment():
    text = format_table(("a", "bench"), [("x", 1.5), ("longer", 22.0)], title="T")
    assert "T" in text and "bench" in text and "22.00" in text


def test_format_comparison_deviation():
    text = format_comparison([("rtt", 57.0, 57.0), ("bw", 97.0, 95.5)])
    assert "+0%" in text
    assert "-2%" in text


def test_ascii_plot_contains_series():
    text = ascii_plot({"a": [(0, 0), (10, 10)], "b": [(5, 5)]}, title="P")
    assert "P" in text
    assert "*=a" in text and "o=b" in text


def test_ascii_plot_empty():
    assert ascii_plot({}, title="nothing") == "nothing"


def test_send_overhead_measured_in_des():
    """Section 4.4 processor-overhead asymmetry, measured end to end.

    The sending process's elapsed time per ``send()`` is the host
    overhead (compose copy, descriptor push, doorbell or trap): the NIC
    and the wire work in other processes."""

    def per_send(setup):
        sim = setup.sim

        def sender():
            t0 = sim.now
            for _ in range(20):
                yield from setup.ep1.send(setup.ch1, bytes(40))
            return (sim.now - t0) / 20

        return sim.run_until_complete(sim.process(sender(), name="overhead"))

    fe = per_send(setup_fe_hub())
    atm = per_send(setup_atm())
    # FE: trap 4.2 + compose/push ~1.1 ; ATM: doorbell path ~1.5
    assert fe == pytest.approx(5.3, abs=0.4)
    assert atm == pytest.approx(1.5, abs=0.3)
    assert fe > 3 * atm
