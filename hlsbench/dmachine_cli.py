"""``dmachine_cli``: the registered ``dmachine`` flow at its defaults,
run the way a CLI user runs it.

Each operation is a fresh ``python -m repro.flow run dmachine
--no-cache`` process (one caller, closed loop), so every in-process
cache starts cold, as it does for a user.  Set-up is the CLI's own
start-up: ``python -m repro.flow list --json``, before each operation
and after the last.
"""

from __future__ import annotations

import json
import sys
import time

import common
import inputs
import tracer as tracing

#: an operation starts only if the run is expected to end within this
#: share of one operation past ``--seconds``
OVERRUN = 0.5


def _setup(ctx, env) -> float:
    """One CLI start-up: ``repro.flow list --json`` must name the flow."""
    t0 = time.monotonic()
    proc = ctx.popen([sys.executable, "-m", "repro.flow", "list",
                      "--json"], env, "list.out")
    if common.wait_child(proc, ctx.watch, timeout=60) != 0:
        raise RuntimeError("`repro.flow list` failed")
    seconds = time.monotonic() - t0
    flows = {f["name"] for f in json.loads(ctx.read("list.out"))}
    if "dmachine" not in flows:
        raise RuntimeError("no `dmachine` flow registered")
    return seconds


def run(ctx) -> dict:
    env = ctx.env()
    # one set-up before each operation and one after the last, so the
    # median samples the host's speed across the whole run
    setups = [_setup(ctx, env)]
    argv = inputs.dmachine_argv(ctx.sizes)
    want = ctx.expected["lines"]
    times, ok, counts, flow_starts = [], [], [], []
    t_start = time.monotonic()
    while True:
        op = len(times)
        if op >= 2:
            est = common.median(times)
            if time.monotonic() - t_start + est > \
                    ctx.seconds + OVERRUN * est:
                break
        if op:
            setups.append(_setup(ctx, env))
        spans_file = ctx.path(f"spans{op}.json")
        metrics_file = ctx.path(f"metrics{op}.json")
        if ctx.trace:
            cmd = [sys.executable, str(common.BENCH / "traced_flow.py"),
                   str(spans_file), str(op), "--", *argv,
                   "--metrics", str(metrics_file)]
        else:
            cmd = [sys.executable, "-m", "repro.flow", *argv]
        t0 = time.monotonic()
        proc = ctx.popen(cmd, env, "op.out")
        rc = common.wait_child(proc, ctx.watch, timeout=ctx.remaining())
        times.append(time.monotonic() - t0)
        ok.append(rc == 0 and
                  common.dmachine_lines(ctx.read("op.out")) == want)
        if ctx.trace:
            spans = json.loads(spans_file.read_text())
            ctx.spans[f"flow op {op}"] = spans
            runs = [s for s in spans if s[0] == "flow.run"]
            flow_starts.append(runs[0][5] - t0 if runs else 0.0)
            predrop = sum(
                st.get("custom", {}).get("predrop_detected", 0)
                for st in json.loads(metrics_file.read_text())["stages"])
            counts.append(tracing.exact_counts(
                tracing.SpanIndex(spans), predrop))

    setups.append(_setup(ctx, env))
    n = len(times)
    out = {
        "attempted": n, "failed": n - sum(ok),
        "e2e": {
            "setup_s": common.median(setups),
            "op_p50_s": common.median(times),
            "op_p95_s": common.p95(times),
            "ops_per_s": n / (time.monotonic() - t_start),
            "peak_rss_mb": ctx.watch.peak_mb(),
        },
        "samples": {"op_s": times, "setup_s": setups},
    }
    if ctx.trace:
        layer = tracing.layer_metrics(ctx.spans.values(), n)
        layer["flow.process_start_s"] = common.median(flow_starts)
        for op, got in enumerate(counts[1:], 1):
            if got != counts[0]:
                ctx.errors.append(f"exact counts of op {op} differ from "
                                  f"op 0: {got} != {counts[0]}")
        layer.update(counts[0])
        out["layer"] = layer
        out["exact"] = dict(enumerate(counts))
    return out
