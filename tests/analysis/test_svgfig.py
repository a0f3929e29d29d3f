"""Tests for the SVG figure renderer."""

import re
from pathlib import Path

import pytest

from repro.analysis import line_chart_svg, save_figure_svg
from repro.analysis.svgfig import SERIES_COLORS


def _chart(**kwargs):
    series = {
        "alpha": [(0.0, 10.0), (100.0, 50.0), (200.0, 90.0)],
        "beta": [(0.0, 20.0), (100.0, 30.0), (200.0, 40.0)],
    }
    return line_chart_svg(series, title="T", xlabel="x", ylabel="y", **kwargs)


def test_svg_well_formed():
    import xml.etree.ElementTree as ET

    root = ET.fromstring(_chart())
    assert root.tag.endswith("svg")


def test_series_get_fixed_slot_colors():
    svg = _chart()
    assert SERIES_COLORS[0] in svg  # alpha = slot 1
    assert SERIES_COLORS[1] in svg  # beta = slot 2
    assert SERIES_COLORS[2] not in svg


def test_marks_follow_spec():
    svg = _chart()
    # 2px lines, 8px (r=4) markers ringed by the surface
    assert 'stroke-width="2"' in svg
    assert re.search(r'circle[^>]+r="4"', svg)
    assert svg.count("<circle") == 6  # every data point marked


def test_identity_not_color_alone():
    svg = _chart()
    # legend and direct labels both name the series, in ink (not series color)
    assert svg.count(">alpha</text>") == 2  # legend + direct label
    assert svg.count(">beta</text>") == 2
    assert 'fill="#0b0b0b">alpha' in svg  # text wears ink tokens


def test_single_y_axis():
    svg = _chart()
    # exactly one rotated y-axis label
    assert svg.count("rotate(-90") == 1


def test_too_many_series_rejected():
    series = {f"s{i}": [(0.0, 1.0), (1.0, 2.0)] for i in range(9)}
    with pytest.raises(ValueError):
        line_chart_svg(series, title="t", xlabel="x", ylabel="y")


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        line_chart_svg({}, title="t", xlabel="x", ylabel="y")


def test_direct_labels_do_not_collide():
    # three series ending at nearly the same value
    series = {
        "a": [(0.0, 0.0), (10.0, 50.0)],
        "b": [(0.0, 5.0), (10.0, 50.5)],
        "c": [(0.0, 9.0), (10.0, 51.0)],
    }
    svg = line_chart_svg(series, title="t", xlabel="x", ylabel="y")
    label_ys = sorted(
        float(y) for x, y in re.findall(r'<text x="(6\d\d)" y="([\d.]+)"', svg)
    )
    for a, b in zip(label_ys, label_ys[1:]):
        assert b - a >= 13.0


def test_save_figure5(tmp_path):
    path = save_figure_svg("fig5", str(tmp_path / "fig5.svg"), sizes=[40, 1498])
    content = Path(path).read_text()
    assert "Figure 5" in content
    assert ">hub</text>" in content and ">atm</text>" in content


def test_save_figure6(tmp_path):
    path = save_figure_svg("fig6", str(tmp_path / "fig6.svg"), sizes=[64, 1498])
    content = Path(path).read_text()
    assert "Figure 6" in content
    assert "Mb/s" in content
