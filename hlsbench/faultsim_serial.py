"""``faultsim_serial``: one full-universe ``fault_simulate_cycles``
call per operation, ``shards=1``, default kernel backend and
collapsing, each on a freshly built pool design.

The run is split into three worker processes, one after the other;
each one's launch-to-ready time (imports plus its first design) is one
set-up sample.  The traced run adds one more process that repeats
operation 0's design (the exact-count gate) and times ``shards=2``
against ``shards=1``.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import common
import inputs
import tracer as tracing

SEGMENTS = 3
#: the traced run always completes this many operations, so its exact
#: counts cover the same designs on every run of one seed
EXACT_OPS = 3


def _worker(ctx, env, indices, first_op, budget, min_ops, spans=None,
            shard_check=False):
    cmd = [sys.executable, str(common.BENCH / "fs_worker.py"),
           "--indices", ",".join(map(str, indices)),
           "--first-op", str(first_op), "--budget", f"{budget:.3f}",
           "--min-ops", str(min_ops), "--expected",
           str(ctx.expected_path)]
    if ctx.tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if shard_check:
        cmd.append("--shard-check")
    t0 = time.monotonic()
    proc = ctx.popen(cmd, env, None)
    killer = threading.Timer(ctx.remaining(), proc.kill)
    killer.start()
    lines = []
    try:
        for raw in proc.stdout:
            lines.append(json.loads(raw))
    finally:
        killer.cancel()
        proc.stdout.close()
        rc = common.wait_child(proc, ctx.watch, timeout=30)
    if rc != 0:
        raise RuntimeError(f"fault-simulation worker exited with {rc}")
    ready = [ln["ready"] - t0 for ln in lines if "ready" in ln]
    return ready, [ln for ln in lines if "ready" not in ln]


def run(ctx) -> dict:
    env = ctx.env()
    order = inputs.fs_order(ctx.seed, ctx.sizes)
    setups, ops = [], []
    t_start = time.monotonic()
    for seg in range(SEGMENTS):
        if len(ops) >= len(order):
            break  # pool exhausted: never repeat a design in a run
        budget = ctx.seconds * (seg + 1) / SEGMENTS - (
            time.monotonic() - t_start)
        min_ops = EXACT_OPS if ctx.trace and seg == 0 else 1
        spans = ctx.path(f"spans{seg}.json") if ctx.trace else None
        ready, lines = _worker(ctx, env, order[len(ops):], len(ops),
                               max(budget, 0.0), min_ops, spans)
        setups += ready
        ops += lines
        if spans is not None:
            ctx.spans[f"worker {seg}"] = json.loads(spans.read_text())
    wall = time.monotonic() - t_start

    times = [op["seconds"] for op in ops]
    out = {
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "e2e": {
            "setup_s": common.median(setups),
            "op_p50_s": common.median(times),
            "op_p95_s": common.p95(times),
            "ops_per_s": len(ops) / wall,
            "peak_rss_mb": ctx.watch.peak_mb(),
        },
        "samples": {"op_s": times, "setup_s": setups,
                    "design": [op["index"] for op in ops],
                    "build_s": [op["build_s"] for op in ops]},
    }
    if ctx.trace:
        spans = ctx.path("spans_check.json")
        _, (check,) = _worker(ctx, env, [order[0]], 0, 0.0, 1, spans,
                              shard_check=True)
        ctx.spans["shard check"] = json.loads(spans.read_text())
        if not check["ok"]:
            out["failed"] += 1
        out["attempted"] += 1
        if not check["identical"]:
            ctx.errors.append("shards=2 result differs from serial")
        groups = [[s for s in ctx.spans[k] if isinstance(s[3], int)]
                  for k in ctx.spans if k.startswith("worker")]
        layer = tracing.layer_metrics(groups, len(ops))
        exact = {op["op"]: op["counts"] for op in ops[:EXACT_OPS]}
        if check["gate_counts"] != exact[0]:
            ctx.errors.append(
                f"exact counts differ on a re-run of op 0: "
                f"{check['gate_counts']} != {exact[0]}")
        layer.update({k: sum(c[k] for c in exact.values()) / len(exact)
                      for k in tracing.EXACT})
        layer["shard.serial_s"] = check["serial_s"]
        layer["shard.two_shard_s"] = check["two_shard_s"]
        layer["shard.speedup"] = check["serial_s"] / check["two_shard_s"]
        out["layer"] = layer
        out["exact"] = exact
    return out
