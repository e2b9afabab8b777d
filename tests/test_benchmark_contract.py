"""The benchmark's tracer still finds every name it wraps and reads.

``perfbench/tracer.py`` replaces module attributes of ``ripsbars`` with
timing wrappers, reads fields of the filtrations it sees, and replays
``reduce_matrix(record=True)``.  Renaming or deleting any of these breaks
the benchmark's traced runs; this test runs one small ``persist`` under the
tracer to catch that.  It reads ``perfbench/`` and changes nothing in it.
"""

import json
import sys
from pathlib import Path

import pytest

from ripsbars import cli, cloud, dice, fileio, metrics, persistence, render, stats

ROOT = Path(__file__).resolve().parent.parent

MODULES = {
    "cli": cli,
    "cloud": cloud,
    "dice": dice,
    "fileio": fileio,
    "metrics": metrics,
    "persistence": persistence,
    "render": render,
    "stats": stats,
}


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    return tracer


def test_tracer_counts_a_persist_run(tmp_path, tracer):
    points = tmp_path / "points.csv"
    cloud.write_points_csv(str(points), [(0, 0), (1, 0), (0, 1), (1, 1)])
    out = tmp_path / "out"
    original = cli.build_filtration
    trace = tracer.Tracer(MODULES)
    trace.begin(0)
    with trace:
        assert cli.main(["persist", "--input", str(points), "--out", str(out)]) == 0
    assert cli.build_filtration is original  # every wrapper is removed again

    found = trace.counters(str(out))
    reduction = tracer.reduction_counters(persistence, trace.filtrations())
    assert reduction is not None
    # Every per-layer metric that is not a time is one of these counters.
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    counts = {m["name"] for m in per_layer if not m["name"].endswith("_s")}
    assert set(found) | set(reduction) == counts
    assert found["filtration.simplices"] == 4 + 6 + 4
    assert found["filtration.thresholds"] == 2  # 1 and √2
    assert found["metrics.pairs"] == 6
    assert found["fileio.bytes_read"] == points.stat().st_size
    assert found["persistence.bars"] > 0
    assert reduction["persistence.column_additions"] > 0
