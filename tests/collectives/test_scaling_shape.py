"""NIC collective latency follows tree depth: the grid's scaling guard.

At fanout 4 the NIC-resident tree over 8 / 32 / 128 / 256 nodes is
2 / 3 / 4 / 4 edges deep, and a round is a walk up and back down it, so
Yu et al.'s log-depth law (PAPERS.md) predicts the shape of every
substrate's and every op's NIC column in ``BENCH_collectives.json``:

* ``mean_us`` rises strictly with depth;
* points of equal depth agree within :data:`EQUAL_DEPTH_BAND`.

The second holds today only loosely: from 128 to 256 nodes ATM reads
-3.8 % and FE -15.3 % (ROADMAP item 1(ii), unexplained).  The band
admits that and no worse, so the next anomaly fails here instead of
going unnoticed.  The check runs on the committed grid and, when
it is there, on ``bench-collectives-check.json``, the copy CI's
``collectives-smoke`` job regenerates beside it.
"""

import json
import pathlib

import pytest

from repro.collectives import KAryTree

ROOT = pathlib.Path(__file__).resolve().parents[2]
GRIDS = [path for path in (ROOT / "BENCH_collectives.json",
                           ROOT / "bench-collectives-check.json") if path.exists()]
FANOUT = 4
#: largest relative move allowed from one point to the next of equal
#: tree depth (today's worst: FE's 128 -> 256 nodes, -15.3 %)
EQUAL_DEPTH_BAND = 0.20


def _nic_columns(grid):
    """``(substrate, op) -> [(depth, nodes, mean_us)]`` in node order."""
    columns = {}
    for point in grid["points"]:
        if point["mode"] == "nic":
            depth = KAryTree(point["nodes"], FANOUT).depth(point["nodes"] - 1)
            columns.setdefault((point["substrate"], point["op"]), []).append(
                (depth, point["nodes"], point["mean_us"]))
    return {key: sorted(column, key=lambda p: p[1]) for key, column in columns.items()}


@pytest.fixture(params=GRIDS, ids=lambda path: path.name)
def columns(request):
    return _nic_columns(json.loads(request.param.read_text(encoding="utf-8")))


def test_the_grid_spans_four_depths_on_both_fabrics_and_ops(columns):
    assert sorted(columns) == [("atm-clos", "barrier"), ("atm-clos", "reduce"),
                               ("fe-clos", "barrier"), ("fe-clos", "reduce")]
    for column in columns.values():
        assert [(depth, nodes) for depth, nodes, _mean in column] == [
            (2, 8), (3, 32), (4, 128), (4, 256)]


def _neighbours(column):
    """Consecutive points in node order: ``(depth, mean)`` pairs."""
    return [((d0, m0), (d1, m1)) for (d0, _n0, m0), (d1, _n1, m1) in zip(column, column[1:])]


def test_nic_latency_rises_strictly_with_tree_depth(columns):
    for key, column in columns.items():
        for (d0, m0), (d1, m1) in _neighbours(column):
            if d1 > d0:
                assert m1 > m0, (key, column)


def test_equal_depth_points_agree_within_the_band(columns):
    for key, column in columns.items():
        for (d0, m0), (d1, m1) in _neighbours(column):
            if d1 == d0:
                assert abs(m1 / m0 - 1.0) <= EQUAL_DEPTH_BAND, (key, column)
