"""Fused multi-design kernel execution (block-diagonal batching).

The compiled kernel (:mod:`repro.gatelevel.kernel`) amortises per-gate
Python cost, but every *call* still pays fixed dispatch overhead: one
``good_cycle`` per design per cycle, one numpy call per (level, opcode)
group, per-call packing.  In the many-small-designs regime — corpus
coverage sweeps, hierarchical per-module checks, multi-tenant serving —
that per-call overhead dominates wall-clock.

This module runs N independent designs as **one** N-block
:class:`~repro.gatelevel.kernel.CompiledNetlist`
(:meth:`~repro.gatelevel.kernel.CompiledNetlist.fuse`): concatenated
row spaces, instruction groups re-merged by ``(level, opcode)`` across
designs, and nets qualified per design (``d3/net``), so fault
splitting, PI packing and result fan-out are exact inverses of the
fusion.

Jobs fuse only when compatible (same pattern width and cycle count —
a design evaluated at a wider width than its own pattern block would
see phantom all-zero patterns, breaking identity), so the public
entry points group jobs first and fall back to per-design serial runs
for singletons, the interpreter backend, or ``batch=False``.

Sharded fused runs partition the *job list* into contiguous chunks
(per-design independence makes any partition exact) and reuse the
shm payload plane: member netlists travel once, by content digest, so
a warm worker serves repeated corpora from its compiled cache and the
per-worker fused-program LRU below.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Mapping, Sequence

from repro.flow.metrics import metrics_active, record_metric
from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import Netlist
from repro.gatelevel.kernel import (
    CompiledNetlist,
    _qual,
    compiled,
    netlist_hash,
    resolve_netlist,
)

WINDOW_ENV = "REPRO_SERVE_BATCH_WINDOW"

#: cumulative fused-execution counters; served by ``/metrics`` (see
#: :func:`batch_stats`) so under-filled fusions are visible in ops.
_BATCH_STATS = {
    "fused_calls": 0,
    "fused_designs": 0,
    "fused_rows": 0,
    "last_designs": 0,
    "last_rows": 0,
    "last_fill_ratio": 0.0,
}


def resolve_batch(batch: bool | None = None) -> bool:
    """Normalise the fused-execution switch (``None`` means on)."""
    from repro.knobs import coerce_flag

    if batch is None:
        return True
    return coerce_flag(batch, "batch")


def resolve_batch_window(window: float | None = None) -> float:
    """The serve scheduler's coalescing window in seconds (>= 0)."""
    from repro.knobs import coerce_float, env_float

    if window is None:
        return env_float(WINDOW_ENV, 0.0, minimum=0.0)
    return coerce_float(window, "batch_window", minimum=0.0)


def batch_stats() -> dict[str, float]:
    """Cumulative fused-execution counters (process-wide)."""
    return dict(_BATCH_STATS)


def qualify_faults(k: int, faults: Sequence[Fault]) -> list[Fault]:
    """Design *k*'s faults renamed into the fused namespace."""
    return [Fault(_qual(k, f.net), f.stuck_at) for f in faults]


def merge_values(per_design: Sequence[Mapping[str, int]]
                 ) -> dict[str, int]:
    """Per-design name->value dicts merged into one qualified dict."""
    out: dict[str, int] = {}
    for k, values in enumerate(per_design):
        if values:
            for name, v in values.items():
                out[_qual(k, name)] = v
    return out


# ---------------------------------------------------------------------------
# fused-program cache (warm workers fuse each corpus once)

_FUSED: "OrderedDict[tuple, CompiledNetlist]" = OrderedDict()


def fused_compiled(netlists: Sequence[Netlist]) -> CompiledNetlist:
    """The cached fused program for this exact design sequence.

    Keyed by the members' content digests (plus each netlist's
    mutation counter via :func:`repro.gatelevel.kernel.netlist_blob`'s
    memo), so a warm worker that has seen a corpus re-fuses nothing.
    Bounded by :data:`repro.flow.shm.WORKER_CACHE_SIZE` like the
    kernel's own netlist registry.
    """
    from repro.flow import shm

    key = tuple(netlist_hash(nl) for nl in netlists)
    hit = _FUSED.get(key)
    if hit is not None:
        _FUSED.move_to_end(key)
        return hit
    fused = CompiledNetlist.fuse([compiled(nl) for nl in netlists])
    _FUSED[key] = fused
    while len(_FUSED) > shm.WORKER_CACHE_SIZE:
        _FUSED.popitem(last=False)
    return fused


def _note_fusion(n_designs: int, fused: CompiledNetlist) -> None:
    """Batch-occupancy bookkeeping: cumulative counters for ``/metrics``
    plus per-stage flow metrics when a collector is open."""
    rows = fused.n_gates
    ends = fused.offsets[1:] + [rows]
    biggest = max(e - s for s, e in zip(fused.offsets, ends))
    fill = rows / (n_designs * biggest) if n_designs else 0.0
    _BATCH_STATS["fused_calls"] += 1
    _BATCH_STATS["fused_designs"] += n_designs
    _BATCH_STATS["fused_rows"] += rows
    _BATCH_STATS["last_designs"] = n_designs
    _BATCH_STATS["last_rows"] = rows
    _BATCH_STATS["last_fill_ratio"] = round(fill, 4)
    if metrics_active():
        record_metric("batch_designs", n_designs)
        record_metric("batch_rows", rows)
        record_metric("batch_fill_ratio", round(fill, 4))


# ---------------------------------------------------------------------------
# job types


class SimJob:
    """One design's fault-simulation request (see
    :func:`fault_simulate_many`)."""

    __slots__ = ("netlist", "faults", "pi_sequence", "width",
                 "initial_state", "drop_detected")

    def __init__(self, netlist: Netlist, faults: Sequence[Fault],
                 pi_sequence: Sequence[Mapping[str, int]],
                 width: int = 64,
                 initial_state: Mapping[str, int] | None = None,
                 drop_detected: bool = False) -> None:
        self.netlist = netlist
        self.faults = list(faults)
        self.pi_sequence = list(pi_sequence)
        self.width = width
        self.initial_state = dict(initial_state) if initial_state else None
        self.drop_detected = drop_detected


class SeqJob:
    """One design's packed sequential free-run request (see
    :func:`sequential_detect_many`)."""

    __slots__ = ("netlist", "faults", "pi_values", "checkpoints",
                 "observe", "forced", "initial_state")

    def __init__(self, netlist: Netlist, faults: Sequence[Fault],
                 pi_values: Mapping[str, int],
                 checkpoints: Sequence[int],
                 observe: Sequence[str],
                 forced: Mapping[str, int] | None = None,
                 initial_state: Mapping[str, int] | None = None) -> None:
        self.netlist = netlist
        self.faults = list(faults)
        self.pi_values = dict(pi_values)
        self.checkpoints = tuple(sorted({int(c) for c in checkpoints}))
        self.observe = list(observe)
        self.forced = dict(forced) if forced else None
        self.initial_state = dict(initial_state) if initial_state else None


class MaskJob:
    """One design's single-cycle detect-mask request (see
    :func:`detect_masks_many`)."""

    __slots__ = ("netlist", "faults", "pi_values", "state", "width")

    def __init__(self, netlist: Netlist, faults: Sequence[Fault],
                 pi_values: Mapping[str, int],
                 state: Mapping[str, int] | None = None,
                 width: int = 64) -> None:
        self.netlist = netlist
        self.faults = list(faults)
        self.pi_values = dict(pi_values)
        self.state = dict(state) if state else None
        self.width = width


# ---------------------------------------------------------------------------
# fused fault simulation


def fault_simulate_many(
    jobs: Sequence[SimJob],
    backend: str | None = None,
    shards: int | None = None,
    batch: bool | None = None,
    collapse: bool | None = None,
) -> list[dict[Fault, int | None]]:
    """Fault-simulate many designs; ``result[i]`` is byte-identical to
    ``fault_simulate_cycles(jobs[i].netlist, ...)`` run serially.

    Jobs with the same ``(cycles, width)`` signature fuse into one
    block-diagonal kernel invocation; the rest (and every job on the
    interpreter backend, or with ``batch`` off) run per design.
    ``shards`` partitions the *job list* of each fused group into
    contiguous chunks across worker processes — per-design
    independence makes the positional merge exact for any shard count.
    ``collapse`` collapses each design's fault list to structural
    representatives up front and fans results back out, exactly as the
    single-design path does.
    """
    from repro.gatelevel.fault_sim import resolve_backend, resolve_shards
    from repro.gatelevel.structure import (
        collapse_map,
        record_collapse_metrics,
        resolve_collapse,
    )

    jobs = list(jobs)
    if not jobs:
        return []
    backend = resolve_backend(backend)
    shards = resolve_shards(shards)
    batch = resolve_batch(batch)

    if resolve_collapse(collapse):
        cmaps = [collapse_map(j.netlist) for j in jobs]
        reps = [cm.representatives(j.faults)
                for cm, j in zip(cmaps, jobs)]
        if any(len(r) < len(j.faults) for r, j in zip(reps, jobs)):
            record_collapse_metrics(
                sum(len(j.faults) for j in jobs),
                sum(len(r) for r in reps),
            )
            reduced = [
                SimJob(j.netlist, r, j.pi_sequence, j.width,
                       j.initial_state, j.drop_detected)
                for j, r in zip(jobs, reps)
            ]
            res = fault_simulate_many(
                reduced, backend=backend, shards=shards, batch=batch,
                collapse=False,
            )
            return [cm.expand(r, list(j.faults))
                    for cm, r, j in zip(cmaps, res, jobs)]

    if not (batch and backend == "kernel") or len(jobs) == 1:
        return [_serial_sim(j, backend, shards) for j in jobs]

    # Group compatible jobs; incompatible signatures never fuse
    # (phantom zero-pattern columns would break identity).
    groups: dict[tuple[int, int], list[int]] = {}
    for i, j in enumerate(jobs):
        groups.setdefault((len(j.pi_sequence), j.width), []).append(i)
    out: list[dict[Fault, int | None] | None] = [None] * len(jobs)
    for _sig, idxs in sorted(groups.items()):
        if len(idxs) == 1:
            out[idxs[0]] = _serial_sim(jobs[idxs[0]], backend, shards)
            continue
        group = [jobs[i] for i in idxs]
        results = _fused_sim_group(group, shards)
        for i, res in zip(idxs, results):
            out[i] = res
    return out  # type: ignore[return-value]


def _serial_sim(job: SimJob, backend: str,
                shards: int) -> dict[Fault, int | None]:
    from repro.gatelevel.fault_sim import fault_simulate_cycles

    return fault_simulate_cycles(
        job.netlist, job.faults, job.pi_sequence, width=job.width,
        initial_state=job.initial_state,
        drop_detected=job.drop_detected, backend=backend,
        shards=shards, collapse=False,
    )


def _fused_sim_group(group: Sequence[SimJob],
                     shards: int) -> list[dict[Fault, int | None]]:
    from repro.gatelevel.fault_sim import MIN_FAULTS_PER_SHARD

    total_faults = sum(len(j.faults) for j in group)
    if shards > 1 and len(group) >= 2 and \
            total_faults >= 2 * MIN_FAULTS_PER_SHARD:
        return _fused_sim_sharded(group, shards)
    return _fused_sim(group)


def _fused_sim(group: Sequence[SimJob]) -> list[dict[Fault, int | None]]:
    """One fused kernel invocation for a compatible job group."""
    from repro.gatelevel.fault_sim import _record_pps

    fused = fused_compiled([j.netlist for j in group])
    _note_fusion(len(group), fused)
    qfaults: list[Fault] = []
    spans: list[tuple[int, int]] = []
    for k, job in enumerate(group):
        start = len(qfaults)
        qfaults.extend(qualify_faults(k, job.faults))
        spans.append((start, len(qfaults)))
    cycles = len(group[0].pi_sequence)
    seq = [
        merge_values([j.pi_sequence[c] for j in group])
        for c in range(cycles)
    ]
    state = merge_values(
        [j.initial_state or {} for j in group]
    ) or None
    t0 = time.perf_counter()
    res = fused.fault_simulate_cycles(
        qfaults, seq, width=group[0].width, initial_state=state,
        drop_detected=all(j.drop_detected for j in group),
    )
    _record_pps(fused._pattern_cycles, time.perf_counter() - t0)
    out: list[dict[Fault, int | None]] = []
    for job, (start, end) in zip(group, spans):
        out.append({
            f: res[qf]
            for f, qf in zip(job.faults, qfaults[start:end])
        })
    return out


def _batch_shard_worker(refs, start, end):
    """One contiguous job chunk of a fused group, re-fused in-worker."""
    from repro.flow.shm import fetch

    chunk = []
    for digest, faults, seq, width, state, drop in \
            fetch(refs["jobs"])[start:end]:
        netlist = resolve_netlist(digest, lambda d=digest: fetch(refs[d]))
        chunk.append(SimJob(netlist, faults, seq, width, state, drop))
    return fault_simulate_many(
        chunk, backend="kernel", shards=1, batch=True, collapse=False,
    )


def _fused_sim_sharded(group: Sequence[SimJob],
                       shards: int) -> list[dict[Fault, int | None]]:
    """Contiguous job partition across workers.

    Member netlists are published once through
    :func:`repro.flow.shard_map`, keyed by content digest, so a warm
    worker resolves them from its hash cache without fetching the body;
    each worker fuses its own chunk (and caches the fused program by
    digest tuple), then the results merge positionally —
    byte-identical to the unsharded fused run, which is itself
    byte-identical to per-design serial runs.
    """
    from repro.flow.shm import Pickled, shard_map
    from repro.gatelevel import kernel

    payloads: dict[str, object] = {"jobs": []}
    for job in group:
        digest, blob = kernel.netlist_blob(job.netlist)
        payloads.setdefault(digest, Pickled(job.netlist, digest, blob))
        payloads["jobs"].append(
            (digest, job.faults, job.pi_sequence, job.width,
             job.initial_state, job.drop_detected)
        )
    results = shard_map(_batch_shard_worker, payloads, len(group),
                        shards, 1, "batch_shard")
    return [res for part in results for res in part]


# ---------------------------------------------------------------------------
# fused detect masks (corpus sweeps)


def detect_masks_many(
    jobs: Sequence[MaskJob],
    batch: bool | None = None,
) -> list[dict[Fault, int]]:
    """Per-design detect masks; byte-identical to serial
    ``compiled(nl).detect_masks`` calls.  Kernel-only (the mask path
    has no interpreter twin); jobs group by width."""
    jobs = list(jobs)
    if not jobs:
        return []
    if not resolve_batch(batch) or len(jobs) == 1:
        return [
            compiled(j.netlist).detect_masks(
                j.faults, j.pi_values, j.state, j.width
            )
            for j in jobs
        ]
    groups: dict[int, list[int]] = {}
    for i, j in enumerate(jobs):
        groups.setdefault(j.width, []).append(i)
    out: list[dict[Fault, int] | None] = [None] * len(jobs)
    for width, idxs in sorted(groups.items()):
        if len(idxs) == 1:
            j = jobs[idxs[0]]
            out[idxs[0]] = compiled(j.netlist).detect_masks(
                j.faults, j.pi_values, j.state, j.width
            )
            continue
        group = [jobs[i] for i in idxs]
        fused = fused_compiled([j.netlist for j in group])
        _note_fusion(len(group), fused)
        qfaults: list[Fault] = []
        spans: list[tuple[int, int]] = []
        for k, job in enumerate(group):
            start = len(qfaults)
            qfaults.extend(qualify_faults(k, job.faults))
            spans.append((start, len(qfaults)))
        piv = merge_values([j.pi_values for j in group])
        state = merge_values(
            [j.state or {} for j in group]
        ) or None
        res = fused.detect_masks(qfaults, piv, state, width)
        for i, job, (start, end) in zip(idxs, group, spans):
            out[i] = {
                f: res[qf]
                for f, qf in zip(job.faults, qfaults[start:end])
            }
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# fused sequential free-runs (BIST attribution)


def sequential_detect_many(
    jobs: Sequence[SeqJob],
    batch: bool | None = None,
) -> list[dict[Fault, int | None]]:
    """Fused fault-parallel sequential free-runs; byte-identical to
    serial ``sequential_fault_detect`` per design.  Jobs group by
    checkpoint schedule (every column of a packed run sees the same
    cycle marks)."""
    jobs = list(jobs)
    if not jobs:
        return []
    if not resolve_batch(batch) or len(jobs) == 1:
        return [_serial_seq(j) for j in jobs]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, j in enumerate(jobs):
        groups.setdefault(j.checkpoints, []).append(i)
    out: list[dict[Fault, int | None] | None] = [None] * len(jobs)
    for marks, idxs in sorted(groups.items()):
        if len(idxs) == 1:
            out[idxs[0]] = _serial_seq(jobs[idxs[0]])
            continue
        group = [jobs[i] for i in idxs]
        fused = fused_compiled([j.netlist for j in group])
        _note_fusion(len(group), fused)
        qfaults: list[Fault] = []
        spans: list[tuple[int, int]] = []
        observe: list[str] = []
        for k, job in enumerate(group):
            start = len(qfaults)
            qfaults.extend(qualify_faults(k, job.faults))
            spans.append((start, len(qfaults)))
            observe.extend(_qual(k, n) for n in job.observe)
        piv = merge_values([j.pi_values for j in group])
        forced = merge_values(
            [j.forced or {} for j in group]
        ) or None
        state = merge_values(
            [j.initial_state or {} for j in group]
        ) or None
        res = fused.sequential_fault_detect(
            qfaults, piv, list(marks), observe, forced=forced,
            initial_state=state,
        )
        for i, job, (start, end) in zip(idxs, group, spans):
            out[i] = {
                f: res[qf]
                for f, qf in zip(job.faults, qfaults[start:end])
            }
    return out  # type: ignore[return-value]


def _serial_seq(job: SeqJob) -> dict[Fault, int | None]:
    return compiled(job.netlist).sequential_fault_detect(
        job.faults, job.pi_values, list(job.checkpoints), job.observe,
        forced=job.forced, initial_state=job.initial_state,
    )


def bist_attribution_many(
    items: Sequence[tuple],
    cycles: int = 64,
    checkpoints: Sequence[int] | None = None,
    backend: str | None = None,
    batch: bool | None = None,
    collapse: bool | None = None,
) -> list[dict[Fault, tuple[int, int] | None]]:
    """Batched BIST first-detection attribution over many designs.

    ``items`` is a sequence of ``(hardware, sessions, faults)``
    triples; ``result[i]`` is byte-identical to
    ``bist_fault_attribution(hardware, sessions=…, faults=…)`` run
    serially.  On the kernel backend every design's current session
    free-runs in one fused packed pass per round; the interpreter
    backend (or ``batch`` off) falls back to per-design attribution.
    """
    from repro.gatelevel.bist_session import (
        _default_checkpoints,
        bist_fault_attribution,
        session_configuration,
    )
    from repro.gatelevel.fault_sim import resolve_backend
    from repro.gatelevel.structure import (
        collapse_map,
        record_collapse_metrics,
        resolve_collapse,
    )

    items = [(hw, [list(u) for u in sessions], list(faults))
             for hw, sessions, faults in items]
    if not items:
        return []
    backend = resolve_backend(backend)
    if resolve_collapse(collapse):
        cmaps = [collapse_map(hw.netlist) for hw, _s, _f in items]
        reps = [cm.representatives(f)
                for cm, (_hw, _s, f) in zip(cmaps, items)]
        if any(len(r) < len(f) for r, (_hw, _s, f) in zip(reps, items)):
            record_collapse_metrics(
                sum(len(f) for _hw, _s, f in items),
                sum(len(r) for r in reps),
            )
            res = bist_attribution_many(
                [(hw, s, r) for (hw, s, _f), r in zip(items, reps)],
                cycles=cycles, checkpoints=checkpoints, backend=backend,
                batch=batch, collapse=False,
            )
            return [cm.expand(r, f)
                    for cm, r, (_hw, _s, f) in zip(cmaps, res, items)]

    if not (resolve_batch(batch) and backend == "kernel") \
            or len(items) == 1:
        return [
            bist_fault_attribution(
                hw, sessions=sessions, cycles=cycles, faults=faults,
                checkpoints=checkpoints, backend=backend, collapse=False,
            )
            for hw, sessions, faults in items
        ]

    marks = (sorted({int(c) for c in checkpoints})
             if checkpoints is not None
             else _default_checkpoints(cycles))
    configs = [
        [session_configuration(hw, units) for units in sessions]
        for hw, sessions, _f in items
    ]
    observes = [
        [net for bits in hw.signature_bit_nets().values() for net in bits]
        for hw, _s, _f in items
    ]
    results: list[dict[Fault, tuple[int, int] | None]] = [
        {f: None for f in faults} for _hw, _s, faults in items
    ]
    remaining = [list(faults) for _hw, _s, faults in items]
    max_sessions = max(len(cfgs) for cfgs in configs)
    for s in range(max_sessions):
        active = [
            i for i in range(len(items))
            if s < len(configs[i]) and remaining[i]
        ]
        if not active:
            break
        jobs = [
            SeqJob(items[i][0].netlist, remaining[i], configs[i][s],
                   marks, observes[i])
            for i in active
        ]
        det_list = sequential_detect_many(jobs, batch=True)
        for i, det in zip(active, det_list):
            still = []
            for f in remaining[i]:
                if det[f] is None:
                    still.append(f)
                else:
                    results[i][f] = (s, det[f])
            remaining[i] = still
    return results


# ---------------------------------------------------------------------------
# fused corpus coverage (genscale campaigns)


def random_coverage_many(
    netlists: Sequence[Netlist],
    n_patterns: int = 256,
    seed: int = 1,
    faults_list: Sequence[Sequence[Fault]] | None = None,
    sequence_length: int = 1,
    backend: str | None = None,
    shards: int | None = None,
    batch: bool | None = None,
    collapse: bool | None = None,
) -> list[float]:
    """Random-pattern coverage over a design corpus, fused per block.

    ``result[k]`` is byte-identical to
    :func:`repro.gatelevel.random_patterns.random_pattern_coverage`
    run on ``netlists[k]`` with the same arguments: each design draws
    from its own ``random.Random(seed)`` stream, blocks are 64 wide,
    survivors carry forward — only the kernel invocations fuse across
    the corpus.
    """
    import random

    from repro.gatelevel.faults import all_faults, coverage
    from repro.gatelevel.structure import (
        collapse_map,
        record_collapse_metrics,
        resolve_collapse,
    )

    netlists = list(netlists)
    if not netlists:
        return []
    if faults_list is None:
        faults_list = [all_faults(nl) for nl in netlists]
    faults_list = [list(f) for f in faults_list]
    rngs = [random.Random(seed) for _ in netlists]
    pis_list = [nl.inputs() for nl in netlists]
    work = [list(f) for f in faults_list]
    cmaps: list = [None] * len(netlists)
    if resolve_collapse(collapse):
        for k, nl in enumerate(netlists):
            cmap = collapse_map(nl)
            reps = cmap.representatives(work[k])
            if len(reps) < len(work[k]):
                record_collapse_metrics(len(work[k]), len(reps))
                work[k] = reps
                cmaps[k] = cmap
    detected: list[set] = [set() for _ in netlists]
    remaining = work
    done = 0
    while done < n_patterns and any(remaining):
        width = min(64, n_patterns - done)
        # Every design stays in the job list -- finished ones carry an
        # empty fault list and draw no patterns (their rng stream stops
        # exactly where the serial loop stops), so the member tuple is
        # stable across blocks and the corpus fuses exactly once
        # instead of re-fusing each survivor subset.
        jobs = []
        for k in range(len(netlists)):
            seq = [
                {pi: rngs[k].getrandbits(width) for pi in pis_list[k]}
                if remaining[k] else {}
                for _ in range(sequence_length)
            ]
            jobs.append(SimJob(netlists[k], remaining[k], seq,
                               width=width, drop_detected=True))
        res_list = fault_simulate_many(
            jobs, backend=backend, shards=shards, batch=batch,
            collapse=False,
        )
        for k, res in zip(range(len(netlists)), res_list):
            detected[k].update(f for f, c in res.items()
                               if c is not None)
            remaining[k] = [f for f, c in res.items() if c is None]
        done += width
    out: list[float] = []
    for k, faults in enumerate(faults_list):
        if cmaps[k] is not None:
            n_det = sum(1 for f in faults
                        if cmaps[k].rep(f) in detected[k])
        else:
            n_det = len(detected[k])
        out.append(coverage(n_det, len(faults)))
    return out
