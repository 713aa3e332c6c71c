"""Outside-in tracing: spans around the calls into each layer's public
functions, installed from the benchmark's own files.

Nothing inside ``src/repro`` changes.  :meth:`Tracer.install` swaps
each public function (or method) named in :data:`TARGETS` for a
wrapper, in its defining module and in every loaded ``repro`` module
that imported it by name.  A span records its name, start, end, the
span that caused it (the innermost open span on the same thread) and
the operation it belongs to; spans stay in memory and are written once,
as Chrome trace-event JSON, when the run ends.

:data:`PER_LAYER` names every per-layer metric, its unit, which way is
better, and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# -- the metrics ---------------------------------------------------------

#: name, unit, better, the end-to-end metric(s) it should move.
#: ``*_s`` values are seconds per operation; counts marked exact are per
#: operation over the first ``exact_ops`` operations of a run and must
#: repeat exactly for a fixed seed; ``serve.*`` counters are run totals.
PER_LAYER = [
    ("kernel.compile_s", "s", "lower", "faultsim_serial/op_p50_s"),
    ("kernel.cone_calls", "count", "lower",
     "faultsim_serial/op_p50_s, dmachine_cli/op_p50_s"),
    ("kernel.cone_s", "s", "lower",
     "faultsim_serial/op_p50_s, dmachine_cli/op_p50_s"),
    ("kernel.detect_masks_s", "s", "lower",
     "faultsim_serial/op_p50_s, dmachine_cli/op_p50_s"),
    ("kernel.fault_sim_s", "s", "lower", "faultsim_serial/op_p50_s"),
    ("structure.busy_s", "s", "lower", "faultsim_serial/op_p50_s"),
    ("structure.collapse_ratio", "ratio", "lower",
     "faultsim_serial/op_p50_s"),
    ("fault_sim.calls", "count", "lower",
     "faultsim_serial/op_p50_s, dmachine_cli/op_p50_s"),
    ("fault_sim.fault_cycles", "count", "lower",
     "faultsim_serial/op_p50_s, dmachine_cli/op_p50_s"),
    ("fault_sim.self_s", "s", "lower",
     "faultsim_serial/op_p50_s, dmachine_cli/op_p50_s"),
    ("atpg.calls", "count", "lower", "dmachine_cli/op_p50_s"),
    ("atpg.backtracks", "count", "lower", "dmachine_cli/op_p50_s"),
    ("atpg.decisions", "count", "lower", "dmachine_cli/op_p50_s"),
    ("atpg.aborted", "count", "lower", "dmachine_cli/op_p50_s"),
    ("atpg.busy_s", "s", "lower", "dmachine_cli/op_p50_s"),
    ("test_generation.self_s", "s", "lower", "dmachine_cli/op_p50_s"),
    ("test_generation.vectors", "count", "lower", "dmachine_cli/op_p50_s"),
    ("test_generation.predrop_hit_frac", "ratio", "higher",
     "dmachine_cli/op_p50_s"),
    ("random_patterns.busy_s", "s", "lower", "dmachine_cli/op_p50_s"),
    ("bist_session.busy_s", "s", "lower", "dmachine_cli/op_p50_s"),
    ("designs.build_s", "s", "lower", "dmachine_cli/op_p50_s"),
    ("genscale.build_s", "s", "lower",
     "faultsim_serial/setup_s, serve_mix/op_p50_s"),
    ("batch.calls", "count", "lower", "serve_mix/ops_per_s"),
    ("batch.designs_per_call", "count", "higher", "serve_mix/ops_per_s"),
    ("batch.fuse_s", "s", "lower", "serve_mix/ops_per_s"),
    ("batch.busy_s", "s", "lower", "serve_mix/ops_per_s"),
    ("hls.report_s", "s", "lower", "serve_mix/op_p50_s"),
    ("flow.stage_keys_s", "s", "lower", "serve_mix/op_p50_s"),
    ("flow.cache_hit_frac", "ratio", "higher", "serve_mix/op_p50_s"),
    ("flow.cache_get_s", "s", "lower", "serve_mix/op_p50_s"),
    ("flow.cache_put_s", "s", "lower", "serve_mix/op_p50_s"),
    ("flow.process_start_s", "s", "lower", "dmachine_cli/op_p50_s"),
    ("serve.queue_wait_p50_s", "s", "lower",
     "serve_mix/op_p95_s, serve_mix/ops_per_s"),
    ("serve.queue_wait_p95_s", "s", "lower",
     "serve_mix/op_p95_s, serve_mix/ops_per_s"),
    ("serve.run_p50_s", "s", "lower",
     "serve_mix/op_p95_s, serve_mix/ops_per_s"),
    ("serve.http_s", "s", "lower",
     "serve_mix/op_p95_s, serve_mix/ops_per_s"),
    ("serve.deduped", "count", "higher",
     "serve_mix/op_p95_s, serve_mix/ops_per_s"),
    ("serve.runs", "count", "lower",
     "serve_mix/op_p95_s, serve_mix/ops_per_s"),
    ("serve.batches", "count", "lower",
     "serve_mix/op_p95_s, serve_mix/ops_per_s"),
    ("serve.batch_fused", "count", "higher",
     "serve_mix/op_p95_s, serve_mix/ops_per_s"),
    ("serve.rejected", "count", "lower",
     "serve_mix/op_p95_s, serve_mix/ops_per_s"),
    ("shard.serial_s", "s", "lower", "none (base of shard.speedup)"),
    ("shard.two_shard_s", "s", "lower", "none (guards shard dispatch)"),
    ("shard.speedup", "ratio", "higher", "none (guards shard dispatch)"),
    ("trace.op_p50_s", "s", "lower",
     "none (traced op_p50_s; minus the untraced one = tracing cost)"),
]

EXACT = (
    "kernel.cone_calls", "structure.collapse_ratio", "fault_sim.calls",
    "fault_sim.fault_cycles", "atpg.calls", "atpg.backtracks",
    "atpg.decisions", "atpg.aborted", "test_generation.vectors",
    "test_generation.predrop_hit_frac",
)


# -- what gets wrapped ----------------------------------------------------

def _arg(fn, a, kw, name, default=None):
    try:
        return inspect.signature(fn).bind(*a, **kw).arguments.get(
            name, default)
    except TypeError:
        return default


def _atpg(fn, a, kw, res):
    return {"backtracks": res.backtracks, "decisions": res.decisions,
            "aborted": int(res.aborted)}


def _fault_sim(fn, a, kw, res):
    faults = _arg(fn, a, kw, "faults", ())
    return {"faults": len(faults),
            "cycles": len(_arg(fn, a, kw, "pi_sequence", ()))}


def _reps(fn, a, kw, res):
    return {"faults": len(_arg(fn, a, kw, "faults", ())),
            "reps": len(res)}


def _tests(fn, a, kw, res):
    faults = _arg(fn, a, kw, "faults")
    return {"faults": res.total_faults if faults is None else len(faults),
            "vectors": len(res.vectors)}


def _designs(fn, a, kw, res):
    return {"designs": len(res)}


def _cache_get(fn, a, kw, res):
    return {"hit": int(res is not None)}


#: span name -> (module, attribute path, optional args hook).  Hooks
#: read counts from the call's arguments and result.
TARGETS = {
    "kernel.compile": (
        "repro.gatelevel.kernel", "CompiledNetlist.__init__", None),
    "kernel.cone": (
        "repro.gatelevel.kernel", "CompiledNetlist.cone", None),
    "kernel.detect_masks": (
        "repro.gatelevel.kernel", "CompiledNetlist.detect_masks", None),
    "kernel.fault_sim": (
        "repro.gatelevel.kernel", "CompiledNetlist.fault_simulate_cycles",
        None),
    "kernel.seq_detect": (
        "repro.gatelevel.kernel", "CompiledNetlist.sequential_fault_detect",
        None),
    "kernel.simulate": (
        "repro.gatelevel.kernel", "CompiledNetlist.simulate", None),
    "kernel.checkpoints": (
        "repro.gatelevel.kernel", "CompiledNetlist.state_checkpoints", None),
    "structure.analysis": (
        "repro.gatelevel.structure", "structural_analysis", None),
    "structure.collapse_map": (
        "repro.gatelevel.structure", "collapse_map", None),
    "structure.scoap": (
        "repro.gatelevel.structure", "scoap", None),
    "structure.fault_order": (
        "repro.gatelevel.structure", "atpg_fault_order", None),
    "structure.representatives": (
        "repro.gatelevel.structure", "CollapseMap.representatives", _reps),
    "structure.expand": (
        "repro.gatelevel.structure", "CollapseMap.expand", None),
    "fault_sim.simulate": (
        "repro.gatelevel.fault_sim", "fault_simulate", _fault_sim),
    "fault_sim.cycles": (
        "repro.gatelevel.fault_sim", "fault_simulate_cycles", _fault_sim),
    "atpg.podem": (
        "repro.gatelevel.atpg", "combinational_atpg", _atpg),
    "test_generation.generate": (
        "repro.gatelevel.test_generation", "generate_tests", _tests),
    "random_patterns.coverage": (
        "repro.gatelevel.random_patterns", "random_pattern_coverage", None),
    "random_patterns.curve": (
        "repro.gatelevel.random_patterns", "bist_coverage_curve", None),
    "bist_session.coverage": (
        "repro.gatelevel.bist_session", "bist_fault_coverage", None),
    "bist_session.attribution": (
        "repro.gatelevel.bist_session", "bist_fault_attribution", None),
    "designs.dmachine": (
        "repro.designs.dmachine", "build_dmachine", None),
    "designs.dmachine_bist": (
        "repro.designs.dmachine", "dmachine_bist", None),
    "designs.resolve": (
        "repro.designs", "resolve_design", None),
    "genscale.generate": (
        "repro.gatelevel.genscale", "generate_netlist", None),
    "batch.fault_simulate_many": (
        "repro.gatelevel.batch", "fault_simulate_many", _designs),
    "batch.detect_masks_many": (
        "repro.gatelevel.batch", "detect_masks_many", _designs),
    "batch.sequential_detect_many": (
        "repro.gatelevel.batch", "sequential_detect_many", _designs),
    "batch.bist_attribution_many": (
        "repro.gatelevel.batch", "bist_attribution_many", _designs),
    "batch.random_coverage_many": (
        "repro.gatelevel.batch", "random_coverage_many", _designs),
    "batch.fuse": (
        "repro.gatelevel.batch", "fused_compiled", None),
    "flow.run": (
        "repro.flow.runner", "Runner.run", None),
    "flow.stage_keys": (
        "repro.flow.runner", "Runner.stage_keys", None),
    "flow.cache_get": (
        "repro.flow.cache", "FlowCache.get", _cache_get),
    "flow.cache_put": (
        "repro.flow.cache", "FlowCache.put", None),
    "flow.warm_get": (
        "repro.serve.registry", "WarmCache.get", _cache_get),
    "flow.warm_put": (
        "repro.serve.registry", "WarmCache.put", None),
}

#: public entry points of ``batch``: calls and designs per call count
#: these, not the fusion helper they share.
BATCH_CALLS = tuple(n for n in TARGETS
                    if n.startswith("batch.") and n != "batch.fuse")


# -- the tracer -------------------------------------------------------------

class Tracer:
    """In-memory span recorder.  A span is the list
    ``[name, id, parent, op, thread, start, end, args]`` with
    ``time.monotonic`` stamps (one clock for every process on a host,
    so spans of child processes merge onto one time line)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patched: list[tuple] = []
        self.op = None  # the operation new spans belong to

    # -- spans --
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, next(self._ids), stack[-1][1] if stack else 0,
                self.op,
                threading.get_ident(), time.monotonic(), None, None]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[6] = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*a, **kw):
            span = self.begin(name)
            try:
                res = fn(*a, **kw)
            finally:
                self.end(span)
            if hook is not None:
                span[7] = hook(fn, a, kw, res)
            return res
        return traced

    # -- installing --
    def install(self) -> None:
        """Wrap every function in :data:`TARGETS`.  The modules that
        import them by name are loaded first, so those names are
        rebound too."""
        for modname in ("repro.flow.flows", "repro.flow.cli",
                        "repro.report"):
            importlib.import_module(modname)
        for modname, _path, _hook in TARGETS.values():
            importlib.import_module(modname)
        for name, (modname, path, hook) in TARGETS.items():
            mod = sys.modules[modname]
            owner, attr = mod, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, hook)
            self._set(owner, attr, original, wrapper)
            if owner is mod:
                # modules that did ``from x import fn`` hold their own
                # reference; rebind those too
                for other in list(sys.modules.values()):
                    if (other is not mod and getattr(other, "__name__", "")
                            .startswith("repro")
                            and getattr(other, attr, None) is original):
                        self._set(other, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output --
    def dump(self) -> list[list]:
        """The closed spans (for a parent process to merge)."""
        return [s for s in self.spans if s[6] is not None]


def chrome_trace(processes: dict[str, list[list]]) -> dict:
    """Chrome trace-event JSON for spans grouped by process label."""
    starts = [s[5] for spans in processes.values() for s in spans]
    t0 = min(starts) if starts else 0.0
    events = []
    for pid, (label, spans) in enumerate(sorted(processes.items()), 1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        tids: dict[int, int] = {}
        for name, sid, parent, op, thread, start, end, args in spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": pid, "tid": tids.setdefault(thread, len(tids) + 1),
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": sid, "parent": parent, "op": op,
                         **(args or {})},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- reading spans back ------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _union(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanIndex:
    """Queries over one process's spans."""

    def __init__(self, spans) -> None:
        self.spans = [s for s in spans if s[6] is not None]
        self.by_id = {s[1]: s for s in self.spans}
        self.child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[2]:
                self.child_time[s[2]] += s[6] - s[5]

    def _outer(self, span, names) -> bool:
        """No ancestor of ``span`` is named in ``names``."""
        parent = self.by_id.get(span[2])
        while parent is not None:
            if parent[0] in names:
                return False
            parent = self.by_id.get(parent[2])
        return True

    def named(self, *names, outer: bool = False):
        """Spans called ``names``; with ``outer`` only those not nested
        in another of them (a recursive call counts once)."""
        out = [s for s in self.spans if s[0] in names]
        if outer:
            out = [s for s in out if self._outer(s, names)]
        return out

    def total(self, *names) -> float:
        return sum(s[6] - s[5] for s in self.named(*names))

    def busy(self, layer: str) -> float:
        return _union((s[5], s[6]) for s in self.spans
                      if _layer(s[0]) == layer)

    def self_time(self, layer: str) -> float:
        return sum(s[6] - s[5] - self.child_time[s[1]]
                   for s in self.spans if _layer(s[0]) == layer)

    def arg_sum(self, key: str, *names, outer: bool = False) -> int:
        return sum((s[7] or {}).get(key, 0)
                   for s in self.named(*names, outer=outer))


def exact_counts(index: SpanIndex, predrop_detected: int = 0) -> dict:
    """The exact per-operation counts from one operation's spans."""
    reps = index.named("structure.representatives")
    faults_in = sum(s[7]["faults"] for s in reps)
    fs_outer = index.named("fault_sim.simulate", "fault_sim.cycles",
                           outer=True)
    tests = index.named("test_generation.generate")
    leaf_ids = {s[2] for s in tests}
    targeted = sum(s[7]["faults"] for s in tests if s[1] not in leaf_ids)
    return {
        "kernel.cone_calls": len(index.named("kernel.cone")),
        "structure.collapse_ratio":
            round(sum(s[7]["reps"] for s in reps) / faults_in, 6)
            if faults_in else 0.0,
        "fault_sim.calls": len(fs_outer),
        "fault_sim.fault_cycles": sum(s[7]["faults"] * s[7]["cycles"]
                                      for s in fs_outer),
        "atpg.calls": len(index.named("atpg.podem")),
        "atpg.backtracks": index.arg_sum("backtracks", "atpg.podem"),
        "atpg.decisions": index.arg_sum("decisions", "atpg.podem"),
        "atpg.aborted": index.arg_sum("aborted", "atpg.podem"),
        "test_generation.vectors": index.arg_sum(
            "vectors", "test_generation.generate",
            outer=True),
        "test_generation.predrop_hit_frac":
            round(predrop_detected / targeted, 6) if targeted else 0.0,
    }


def layer_times(index: SpanIndex) -> dict:
    """Per-layer seconds (totals over the spans given)."""
    cone = index.total("kernel.cone")
    return {
        "kernel.compile_s": index.total("kernel.compile"),
        "kernel.cone_s": cone,
        "kernel.detect_masks_s": index.total("kernel.detect_masks"),
        "kernel.fault_sim_s": index.total("kernel.fault_sim"),
        "structure.busy_s": index.busy("structure"),
        "fault_sim.self_s": index.self_time("fault_sim"),
        "atpg.busy_s": index.busy("atpg"),
        "test_generation.self_s": index.self_time("test_generation"),
        "random_patterns.busy_s": index.busy("random_patterns"),
        "bist_session.busy_s": index.busy("bist_session"),
        "designs.build_s": index.busy("designs"),
        "genscale.build_s": index.busy("genscale"),
        "batch.fuse_s": index.total("batch.fuse"),
        "batch.busy_s": index.busy("batch"),
        "flow.stage_keys_s": index.total("flow.stage_keys"),
        "flow.cache_get_s": _union(
            (s[5], s[6]) for s in index.named(
                "flow.cache_get", "flow.warm_get")),
        "flow.cache_put_s": _union(
            (s[5], s[6]) for s in index.named(
                "flow.cache_put", "flow.warm_put")),
    }


def layer_metrics(groups, n_ops: int) -> dict:
    """Per-layer metrics from span lists, one list per process (span
    ids are per process).  Seconds are per operation; cache and batch
    figures are over the whole run."""
    times: dict[str, float] = defaultdict(float)
    gets = hits = calls = designs = 0
    for spans in groups:
        index = SpanIndex(spans)
        for key, value in layer_times(index).items():
            times[key] += value
        got = index.named("flow.cache_get", "flow.warm_get", outer=True)
        gets += len(got)
        hits += sum(s[7]["hit"] for s in got)
        fused = index.named(*BATCH_CALLS, outer=True)
        calls += len(fused)
        designs += sum(s[7]["designs"] for s in fused)
    out = {key: value / max(n_ops, 1) for key, value in times.items()}
    out["flow.cache_hit_frac"] = hits / gets if gets else 0.0
    out["batch.calls"] = calls
    out["batch.designs_per_call"] = designs / calls if calls else 0.0
    return out


def write_trace(path, processes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(processes)))
