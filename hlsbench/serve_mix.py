"""``serve_mix``: a ``repro.flow serve`` server with a fresh cache
directory and a 0.02 s coalescing window, loaded by two callers.

Each caller submits a burst of jobs from three tenants, waits for all
of them, then sends the next burst (a closed loop at burst level, the
way a script submits a sweep).  The mix is in :mod:`inputs`: coverage
jobs on distinct small genscale designs (batchable, so they fuse),
testability reports over the CDFG suite (the HLS front end), and exact
repeats (dedupe and warm-cache reads).

Untraced, the server is its own process.  The traced run hosts it in
this process, so the span wrappers reach ``flow`` and ``batch``; stages
the server hands to its worker pool run outside the trace.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import common
import inputs
import tracer as tracing

WINDOW = "0.02"
SETUPS = 3


class ProcessServer:
    def __init__(self, ctx, env, cache) -> None:
        self.ctx = ctx
        self.proc = ctx.popen(
            [sys.executable, "-m", "repro.flow", "serve", "--port", "0",
             "--cache-dir", str(cache)], env, None)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            common.wait_child(self.proc, ctx.watch, timeout=30)
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split()[-1]

    def stop(self, client) -> None:
        client.shutdown()
        self.proc.stdout.close()
        common.wait_child(self.proc, self.ctx.watch, timeout=30)


class InProcessServer:
    def __init__(self, ctx, env, cache) -> None:
        from repro.serve.server import BackgroundServer

        os.environ["REPRO_SERVE_BATCH_WINDOW"] = WINDOW
        self.bg = BackgroundServer(cache_dir=str(cache)).start()
        self.url = self.bg.url

    def stop(self, client) -> None:
        self.bg.stop()


def _finish(ctx, client, t0, flow, params, job_id) -> dict:
    """Wait for one job and check its result against the reference."""
    rec = {"flow": flow, "ok": False, "t_submit": t0}
    try:
        status = client.wait(job_id, timeout=ctx.remaining())
        result = (client.result(job_id)
                  if status["state"] == "done" else None)
        rec["t_end"] = time.monotonic()
        rec["status"] = status
        rec["ok"] = result is not None and common.sha(
            result["rendered"]) == ctx.expected.get(
                inputs.job_key(flow, params))
    except Exception as exc:  # a lost or failed job is a failed op
        rec["error"] = repr(exc)
    return rec


def _caller(ctx, client, stream, stop_at, records) -> None:
    """Send a burst, wait for every job of it (each on its own thread,
    so a job's latency ends when it does), then send the next."""
    with ThreadPoolExecutor(ctx.sizes.burst) as waiters:
        while time.monotonic() < stop_at:
            pending = []
            for _ in range(ctx.sizes.burst):
                tenant, flow, params = next(stream)
                t0 = time.monotonic()
                try:
                    job = client.submit(flow, params, tenant, retries=8)
                except Exception as exc:  # a refused job is a failed op
                    records.append({"flow": flow, "ok": False,
                                    "error": repr(exc)})
                    continue
                pending.append(waiters.submit(
                    _finish, ctx, client, t0, flow, params, job["id"]))
            records.extend(f.result() for f in pending)


def run(ctx) -> dict:
    from repro.serve.client import ServeClient

    env = ctx.env(REPRO_SERVE_BATCH_WINDOW=WINDOW)
    kind = InProcessServer if ctx.trace else ProcessServer

    def start(k):
        t0 = time.monotonic()
        server = kind(ctx, env, ctx.path(f"cache{k}"))
        client = ServeClient(server.url, timeout=60)
        client.wait_until_up()
        return server, client, time.monotonic() - t0

    server, client, first = start(0)

    records: list[dict] = []
    t_start = time.monotonic()
    callers = [
        threading.Thread(target=_caller, args=(
            ctx, client, inputs.serve_stream(ctx.seed, c, ctx.sizes),
            t_start + ctx.seconds, records))
        for c in range(inputs.CALLERS)
    ]
    for t in callers:
        t.start()
    for t in callers:
        t.join()
    served = client.metrics()
    server.stop(client)
    # more set-ups after the load, so the median samples the host's
    # speed at both ends of the run
    setups = [first]
    for k in range(1, SETUPS):
        extra, extra_client, seconds = start(k)
        extra.stop(extra_client)
        setups.append(seconds)

    done = [r for r in records if "t_end" in r]
    latency = [r["t_end"] - r["t_submit"] for r in done]
    wall = (max(r["t_end"] for r in done) - t_start) if done else 1.0
    counters = served["counters"]
    cache = served["registry"]["cache"]
    if not counters["batch_fused"]:
        ctx.errors.append("no job went through batch fusion")
    if not (counters["deduped"] or cache["memory_hits"]
            or cache["disk_hits"]):
        ctx.errors.append("no dedupe and no cache hit")
    out = {
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "e2e": {
            "setup_s": common.median(setups),
            "op_p50_s": common.median(latency),
            "op_p95_s": common.p95(latency),
            "ops_per_s": len(done) / wall,
            "peak_rss_mb": (ctx.watch.peak_mb(server.proc.pid)
                            if not ctx.trace else 0.0),
        },
        "samples": {"setup_s": setups, "n_ops": len(latency)},
        "served": served,
    }
    if ctx.trace:
        out["layer"] = _layer(ctx, done, latency, counters)
    return out


def _layer(ctx, done, latency, counters) -> dict:
    ran = [r["status"] for r in done if not r["status"]["deduped"]]
    waits = [s["started_at"] - s["queued_at"] for s in ran
             if s["started_at"]]
    runs = [s["finished_at"] - s["started_at"] for s in ran
            if s["started_at"] and s["finished_at"]]
    http = [lat - (r["status"]["finished_at"] - r["status"]["created_at"])
            for lat, r in zip(latency, done)]
    report = [sum(st["seconds"] for st in s["metrics"]["stages"])
              for s in ran if s["flow"] == "report" and s["metrics"]]
    spans = ctx.tracer.dump()
    layer = tracing.layer_metrics([spans], len(done))
    # run totals here: coalescing and dedupe make them timing-dependent
    layer.update(tracing.exact_counts(tracing.SpanIndex(spans)))
    layer.update({
        "hls.report_s": sum(report) / len(report) if report else 0.0,
        "serve.queue_wait_p50_s": common.median(waits),
        "serve.queue_wait_p95_s": common.p95(waits),
        "serve.run_p50_s": common.median(runs),
        "serve.http_s": common.median(http),
        "serve.deduped": counters["deduped"],
        "serve.runs": counters["runs"],
        "serve.batches": counters["batches"],
        "serve.batch_fused": counters["batch_fused"],
        "serve.rejected": counters["rejected"],
    })
    return layer
