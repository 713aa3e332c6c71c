"""Smoke test of the benchmark itself at tiny sizes (about a minute)::

    python3 -m pytest hlsbench/test_smoke.py -q

Reference outputs for the tiny inputs are made fresh by the reference
engines, then every workload runs untraced and traced through the same
command the full benchmark uses.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import make_expected  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def expected(tmp_path_factory):
    out = tmp_path_factory.mktemp("expected")
    make_expected.generate(inputs.TINY, out, jobs=2)
    return out


def bench(expected, workload, trace, seed=3, cwd=BENCH.parent):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--tiny", "--expected-dir", str(expected)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_spec_matches_the_tracer():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [row[:3] for row in tracer.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == [
        "dmachine_cli", "faultsim_serial", "serve_mix"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(expected, workload):
    result = bench(expected, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in values(result).values())


def test_traced_runs_load_the_claimed_layers(expected):
    dm = values(bench(expected, "dmachine_cli", 1))
    assert dm["atpg.calls"] > 0 and dm["batch.calls"] == 0
    fs = values(bench(expected, "faultsim_serial", 1))
    assert fs["atpg.calls"] == 0 and fs["batch.calls"] == 0
    assert fs["serve.runs"] == 0 and fs["shard.two_shard_s"] > 0
    sm = bench(expected, "serve_mix", 1)
    assert sm["correct"]
    sm = values(sm)
    assert sm["serve.batch_fused"] > 0
    assert sm["serve.deduped"] > 0 or sm["flow.cache_hit_frac"] > 0
    assert set(sm) == {m["name"] for m in SPEC["per_layer"]}


def test_exact_counts_repeat_across_traced_runs(expected):
    first = bench(expected, "faultsim_serial", 1, seed=11)
    second = bench(expected, "faultsim_serial", 1, seed=11)
    assert first["correct"] and second["correct"]  # the gate passed
    for name in tracer.EXACT:
        assert first["metrics"][name] == second["metrics"][name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
