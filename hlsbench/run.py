"""The repository's benchmark: one command per workload and seed.

    python3 hlsbench/run.py --workload dmachine_cli --seed 1 \\
        --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``dmachine_cli`` -- ``python -m repro.flow run dmachine --no-cache``,
  a fresh process per operation (:mod:`dmachine_cli`);
* ``faultsim_serial`` -- one full-universe serial fault simulation of a
  fresh 2,000-gate design per operation (:mod:`faultsim_serial`);
* ``serve_mix`` -- a served mix of coverage, report and repeated jobs
  from two callers (:mod:`serve_mix`).

Every operation's output is checked against reference outputs made by
the reference engines (``make_expected.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer ones (from spans around each layer's
public functions, see :mod:`tracer`) with ``--trace 1``.  The line
before it is the environment stamp.  Results, stamps and Chrome traces
are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("dmachine_cli", "faultsim_serial", "serve_mix")
#: a run stops waiting on the program after this many seconds, so it
#: always ends (with an error, if the program hangs) within three minutes
RUN_LIMIT = 150.0
E2E = [("setup_s", "s"), ("op_p50_s", "s"), ("op_p95_s", "s"),
       ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"), ("ok_frac", "frac")]


class Context:
    """What a workload gets: its inputs, a scratch directory and the
    process bookkeeping.  Problems that make the run wrong without
    failing an operation go to ``errors``."""

    def __init__(self, args, expected_dir: pathlib.Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tiny = args.tiny
        self.sizes = inputs.TINY if args.tiny else inputs.FULL
        self.expected_path = expected_dir / f"{args.workload}.json"
        self.expected = json.loads(self.expected_path.read_text())
        self.work = common.OUT / "work" / f"{args.workload}-{os.getpid()}"
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        self.deadline = time.monotonic() + RUN_LIMIT
        self.watch = common.SessionWatch()
        self.spans: dict[str, list] = {}
        self.errors: list[str] = []
        self.knobs: dict[str, str] = {}
        self.tracer = None

    def env(self, **knobs: str) -> dict[str, str]:
        """The program's environment: inherited ``REPRO_*`` knobs
        cleared, a private flow cache, plus the workload's ``knobs``."""
        self.knobs = {"REPRO_FLOWCACHE": str(self.work / "flowcache"),
                      **knobs}
        return dict(common.clean_env(self.knobs),
                    TMPDIR=str(self.work / "tmp"))

    def remaining(self) -> float:
        """Seconds left before the run must wrap up; waits on the
        program use it as their timeout."""
        return max(self.deadline - time.monotonic(), 1.0)

    def path(self, name: str) -> pathlib.Path:
        return self.work / name

    def read(self, name: str) -> str:
        return self.path(name).read_text()

    def popen(self, cmd, env, stdout_name):
        """Start one program process in its own session.  Its standard
        output goes to ``stdout_name`` in the scratch directory (and
        its standard error beside it, with ``.err`` appended), or to a
        pipe when that is ``None``."""
        if stdout_name is None:
            proc = subprocess.Popen(cmd, env=env, cwd=common.ROOT,
                                    stdout=subprocess.PIPE, text=True,
                                    start_new_session=True)
        else:
            with open(self.path(stdout_name), "w") as out, \
                    open(self.path(stdout_name + ".err"), "w") as err:
                proc = subprocess.Popen(cmd, env=env, cwd=common.ROOT,
                                        stdout=out, stderr=err,
                                        start_new_session=True)
        self.watch.add(proc.pid)
        return proc


def stamp(ctx: Context) -> dict:
    import numpy

    sha = None
    if (common.ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                             capture_output=True, text=True).stdout.strip()
    return {
        "workload": ctx.workload, "seed": ctx.seed,
        "seconds": ctx.seconds, "trace": int(ctx.trace), "tiny": ctx.tiny,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha, "src_digest": src_digest(),
        "calibration_s": common.calibrate(),
        "repro_env": ctx.knobs,
        "host": platform.node(),
    }


def src_digest() -> str:
    parts = []
    for path in sorted((common.SRC / "repro").rglob("*.py")):
        parts.append(f"{path.relative_to(common.SRC)}\n"
                     f"{common.sha(path.read_text())}")
    return common.sha("\n".join(parts))


def exact_gate(ctx: Context, exact: dict, digest: str) -> None:
    """Compare this run's exact counts with an earlier traced run of
    the same code and seed (kept under ``.bench_out/exact``)."""
    size = "tiny" if ctx.tiny else "full"
    path = (common.OUT / "exact" /
            f"{ctx.workload}-{size}-seed{ctx.seed}-{digest[:16]}.json")
    seen = json.loads(path.read_text()) if path.exists() else {}
    for op, counts in exact.items():
        before = seen.get(str(op))
        if before is not None and before != counts:
            ctx.errors.append(f"exact counts of op {op} differ from an "
                              f"earlier traced run: {counts} != {before}")
        seen.setdefault(str(op), counts)
    common.write_json(path, seen)


def own_children() -> list[int]:
    pids = []
    for task in pathlib.Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids += [int(p) for p in
                     (task / "children").read_text().split()]
        except OSError:
            pass
    return pids


def finish_processes(ctx: Context) -> list[str]:
    """Every process the run started must be gone: stragglers (such as
    a ``multiprocessing`` resource tracker orphaned by a killed pool
    worker) are killed, and named in the result file and on stderr."""
    left = ctx.watch.close()
    deadline = time.monotonic() + 5
    while own_children() and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in own_children():
        left.append(common.describe(pid))
        try:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        except OSError:
            pass
    for proc in left:
        print(f"killed leftover process {proc}", file=sys.stderr)
    return left


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="HLS-for-testability "
                                            "toolkit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (needs --expected-dir)")
    p.add_argument("--expected-dir", default=str(common.EXPECTED))
    args = p.parse_args(argv)
    expected_dir = pathlib.Path(args.expected_dir)
    if not common.have_program():
        print(f"no program sources under {common.SRC}", file=sys.stderr)
        return 2
    if not (expected_dir / f"{args.workload}.json").is_file():
        print(f"no reference outputs in {expected_dir}", file=sys.stderr)
        return 2
    common.use_program()
    import tracer as tracing

    ctx = Context(args, expected_dir)
    module = __import__(args.workload)
    if ctx.trace and args.workload == "serve_mix":
        ctx.tracer = tracing.Tracer()
        ctx.tracer.install()
    try:
        out = module.run(ctx)
    finally:
        if ctx.tracer is not None:
            ctx.tracer.uninstall()
            ctx.spans["server"] = ctx.tracer.dump()
        killed = finish_processes(ctx)
        shutil.rmtree(ctx.work, ignore_errors=True)
    env_stamp = stamp(ctx)

    e2e = dict(out["e2e"])
    e2e["ok_frac"] = (out["attempted"] - out["failed"]) / out["attempted"]
    if ctx.trace:
        layer = out["layer"]
        layer["trace.op_p50_s"] = e2e["op_p50_s"]
        if "exact" in out:
            exact_gate(ctx, out["exact"], env_stamp["src_digest"])
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit, _b, _m in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E}
    for err in ctx.errors:
        print(f"error: {err}", file=sys.stderr)
    result = {
        "correct": out["failed"] == 0 and not ctx.errors,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    results = common.OUT / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "stamp": env_stamp, "result": result, "errors": ctx.errors,
        "e2e": e2e, "samples": out.get("samples"),
        "exact": out.get("exact"), "killed_leftovers": killed,
    }
    untraced = results / f"{args.workload}-seed{args.seed}-trace0.json"
    if ctx.trace and untraced.exists():
        base = json.loads(untraced.read_text())["e2e"]["op_p50_s"]
        record["tracing_cost"] = {"untraced_op_p50_s": base,
                                  "traced_op_p50_s": e2e["op_p50_s"],
                                  "ratio": e2e["op_p50_s"] / base}
    common.write_json(results / f"{tag}.json", record)
    if ctx.trace:
        tracing.write_trace(common.OUT / "traces" / f"{tag}.json",
                            ctx.spans)
    print(json.dumps({"stamp": env_stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
