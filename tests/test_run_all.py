"""The benchmark sweep's timings aggregate adds up.

``benchmarks/run_all.py --only X`` merges X's timing into the committed
``run_all_timings.json``; the aggregate's ``total_seconds`` must then be
the sum of every merged entry, not the wall time of the partial run.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def run_all():
    spec = importlib.util.spec_from_file_location(
        "run_all", BENCHMARKS / "run_all.py"
    )
    mod = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:  # the script puts benchmarks/ on sys.path for its bench imports
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = saved
    return mod


def _entry(seconds, status="ok"):
    return {"seconds": seconds, "status": status}


def test_partial_run_merges_and_totals_every_entry(run_all):
    previous = {
        "total_seconds": 0.5,  # a stale wall time, ignored
        "quick": False,
        "benches": {"bench_a": _entry(100.0), "bench_b": _entry(2.5)},
    }
    doc = run_all.merge_timings(previous, {"bench_b": _entry(3.25)},
                                quick=False)
    assert doc["benches"] == {"bench_a": _entry(100.0),
                              "bench_b": _entry(3.25)}
    assert doc["total_seconds"] == 103.25
    assert doc["quick"] is False


def test_fresh_run_totals_its_own_entries(run_all):
    doc = run_all.merge_timings(
        None, {"bench_z": _entry(1.5), "bench_y": _entry(0.25, "failed")},
        quick=True,
    )
    assert list(doc["benches"]) == ["bench_y", "bench_z"]  # sorted
    assert doc["total_seconds"] == 1.75
    assert doc["quick"] is True


def test_committed_aggregate_total_is_its_entries_sum(run_all):
    doc = json.loads(
        (BENCHMARKS / "results" / "run_all_timings.json").read_text()
    )
    assert doc["total_seconds"] == run_all.merge_timings(
        None, doc["benches"], doc["quick"]
    )["total_seconds"]
