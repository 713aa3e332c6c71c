"""Canonical flow definitions for the library's synthesis→test pipelines.

Each builder returns a :class:`~repro.flow.graph.Flow` whose merge
stage produces a ``table`` artifact: a plain table *spec* dict
(``experiment/title/header/rows/notes/extra``) that the benchmark
harness turns into a ``benchmarks.common.Table`` and the CLI renders
directly.  Keeping specs as plain data means they cache, pickle, and
JSON-serialise without the engine knowing anything about benches.

Stage functions here are module-level and pure so they can run in
worker processes and participate in content-addressed caching; each
declares the ``repro`` packages it computes with as ``code_deps``, so
touching one module invalidates exactly the stages (and downstream
stages) that depend on it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Sequence

from repro.flow.graph import Flow
from repro.flow.metrics import record_metric
from repro.flow.stage import Stage


def table_spec(
    experiment: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: Iterable[str] = (),
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    return {
        "experiment": experiment,
        "title": title,
        "header": list(header),
        "rows": [tuple(r) for r in rows],
        "notes": list(notes),
        "extra": dict(extra or {}),
    }


def conventional_datapath(cdfg, slack: float = 1.5,
                          register_style: str = "left_edge"):
    """The testability-blind baseline synthesis (same as the benches)."""
    from repro import hls
    from repro.cdfg.analysis import critical_path_length

    latency = max(
        critical_path_length(cdfg),
        int(slack * critical_path_length(cdfg)),
    )
    alloc = hls.allocate_for_latency(cdfg, latency)
    sched = hls.list_schedule(cdfg, alloc)
    fub = hls.bind_functional_units(cdfg, sched, alloc)
    if register_style == "left_edge":
        regs = hls.assign_registers_left_edge(cdfg, sched)
    else:
        regs = hls.assign_registers_coloring(cdfg, sched)
    dp = hls.build_datapath(cdfg, sched, fub, regs)
    return dp, sched, fub, alloc, latency


# ---------------------------------------------------------------------------
# full-scan (E-4.1b)
# ---------------------------------------------------------------------------

FULLSCAN_CASES = [("figure1", 3, 400), ("tseng", 3, 3000), ("fir8", 2, 400)]


def synth_suite_design(design: str, width: int, slack: float):
    from repro.cdfg import suite

    cdfg = suite.standard_suite(width=width)[design]
    dp, *_ = conventional_datapath(cdfg, slack=slack)
    return dp


def fullscan_row(dp, design: str, backtracks: int, max_faults: int,
                 backend: str | None = None,
                 atpg_backend: str | None = None,
                 predrop: int | None = None,
                 shards: int | None = None):
    from repro.rtl import fullscan_report

    t0 = time.perf_counter()
    rep = fullscan_report(dp, backtrack_limit=backtracks,
                          max_faults=max_faults, backend=backend,
                          atpg_backend=atpg_backend, predrop=predrop,
                          shards=shards)
    elapsed = time.perf_counter() - t0
    if elapsed > 0:
        record_metric("faults_per_s", round(rep.total_faults / elapsed, 1))
    return (design, rep.total_faults, rep.detected, rep.untestable,
            rep.aborted, f"{rep.coverage:.3f}",
            f"{rep.test_efficiency:.3f}")


def fullscan_table(notes: Sequence[str] = (), **rows):
    ordered = [rows[k] for k in sorted(rows, key=lambda k: int(k[4:]))]
    return table_spec(
        "E-4.1b",
        "[8] full-scan test efficiency after restructuring",
        ["design", "faults", "detected", "untestable", "aborted",
         "coverage", "efficiency"],
        ordered,
        notes or [
            "claim shape: 100% test efficiency (no aborts) on every "
            "full-scan design; coverage ~100%"
        ],
    )


def fullscan_flow(cases: Sequence[tuple[str, int, int]] | None = None,
                  slack: float = 1.5, max_faults: int = 300,
                  backend: str | None = None,
                  atpg_backend: str | None = None,
                  predrop: int | None = None,
                  shards: int | None = None) -> Flow:
    """Full-scan test efficiency after restructuring (E-4.1b)."""
    cases = list(cases if cases is not None else FULLSCAN_CASES)
    f = Flow("fullscan")
    for i, (design, width, backtracks) in enumerate(cases):
        f.stage(
            f"synth:{design}", synth_suite_design,
            outputs=(f"dp_{design}",),
            params={"design": design, "width": width, "slack": slack},
            code_deps=("repro.cdfg", "repro.hls"),
        )
        f.stage(
            f"fullscan:{design}", fullscan_row,
            inputs={"dp": f"dp_{design}"},
            outputs=(f"row_{i}",),
            params={"design": design, "backtracks": backtracks,
                    "max_faults": max_faults, "backend": backend,
                    "atpg_backend": atpg_backend, "predrop": predrop,
                    "shards": shards},
            code_deps=("repro.rtl", "repro.gatelevel", "repro.flow.shm"),
        )
    f.stage(
        "table", fullscan_table,
        inputs=tuple(f"row_{i}" for i in range(len(cases))),
        outputs=("table",),
    )
    return f


# ---------------------------------------------------------------------------
# partial-scan selection (E-3.3.1)
# ---------------------------------------------------------------------------

PARTIAL_SCAN_NAMES = ["diffeq_loop", "iir2", "iir3", "ewf", "ar4", "ar6"]


def _boundary_flow(cdfg, latency):
    from repro import hls
    from repro.scan import select_boundary_variables
    from repro.scan.report import minimize_scan_registers
    from repro.scan.scan_select import assign_registers_with_plan
    from repro.scan.simultaneous import ensure_loop_free

    alloc = hls.allocate_for_latency(cdfg, latency)
    sched = hls.list_schedule(cdfg, alloc)
    plan = select_boundary_variables(cdfg, sched)
    ra = assign_registers_with_plan(cdfg, sched, plan)
    fub = hls.bind_functional_units(cdfg, sched, alloc)
    dp = hls.build_datapath(cdfg, sched, fub, ra)
    dp.mark_scan(*sorted({
        dp.register_of_variable(v).name for v in plan.variables
    }))
    ensure_loop_free(dp)
    minimize_scan_registers(dp)
    return dp


def partial_scan_row(design: str, slack: float):
    from repro import hls
    from repro.cdfg import suite
    from repro.cdfg.analysis import critical_path_length
    from repro.scan import gate_level_partial_scan, loop_aware_synthesis
    from repro.sgraph import build_sgraph, is_loop_free, sgraph_without_scan

    cdfg = suite.standard_suite()[design]
    latency = int(slack * critical_path_length(cdfg))
    dp_gate, *_ = conventional_datapath(cdfg, slack=slack)
    rep = gate_level_partial_scan(dp_gate)
    dp_b = _boundary_flow(cdfg, latency)
    alloc = hls.allocate_for_latency(cdfg, latency)
    dp_a, _plan = loop_aware_synthesis(cdfg, alloc, num_steps=latency)
    scan_bits = lambda dp: sum(r.width for r in dp.scan_registers())
    loop_free = all(
        is_loop_free(sgraph_without_scan(build_sgraph(d)))
        for d in (dp_gate, dp_b, dp_a)
    )
    return (design, rep.scan_bits, scan_bits(dp_b), scan_bits(dp_a),
            loop_free)


def partial_scan_table(**rows):
    ordered = [rows[k] for k in sorted(rows, key=lambda k: int(k[4:]))]
    totals = [0, 0, 0]
    for row in ordered:
        totals = [a + b for a, b in zip(totals, row[1:4])]
    ordered.append(("TOTAL", *totals, ""))
    return table_spec(
        "E-3.3.1",
        "scan cost: gate-level MFVS vs [24] boundary vs [33] loop-aware",
        ["design", "gate bits", "[24] bits", "[33] bits", "all loop-free"],
        ordered,
        ["claim shape: [33] <= [24] <= gate-level on totals; every flow "
         "loop-free (self-loops tolerated)"],
        extra={"totals": totals},
    )


def partial_scan_flow(names: Sequence[str] | None = None,
                      slack: float = 1.5) -> Flow:
    """Partial-scan cost: gate-level MFVS vs boundary vs loop-aware
    (E-3.3.1)."""
    names = list(names if names is not None else PARTIAL_SCAN_NAMES)
    f = Flow("partial_scan")
    for i, design in enumerate(names):
        f.stage(
            f"scan:{design}", partial_scan_row,
            outputs=(f"row_{i}",),
            params={"design": design, "slack": slack},
            code_deps=("repro.cdfg", "repro.hls", "repro.scan",
                       "repro.sgraph"),
        )
    f.stage(
        "table", partial_scan_table,
        inputs=tuple(f"row_{i}" for i in range(len(names))),
        outputs=("table",),
    )
    return f


# ---------------------------------------------------------------------------
# BIST sessions (E-5.2)
# ---------------------------------------------------------------------------

BIST_SESSION_NAMES = ["diffeq", "iir2", "iir3", "ewf", "ar4", "fir8"]


def bist_session_row(design: str, slack: float):
    from repro import hls
    from repro.bist import (
        assign_test_roles,
        schedule_sessions,
        sharing_register_assignment,
    )
    from repro.bist.sessions import (
        path_based_sessions,
        session_aware_assignment,
    )
    from repro.cdfg import suite
    from repro.cdfg.analysis import critical_path_length

    cdfg = suite.standard_suite()[design]
    latency = int(slack * critical_path_length(cdfg))
    alloc = hls.allocate_for_latency(cdfg, latency)
    sched = hls.list_schedule(cdfg, alloc)
    fub = hls.bind_functional_units(cdfg, sched, alloc)
    shared = hls.build_datapath(
        cdfg, sched, fub, sharing_register_assignment(cdfg, sched, fub)
    )
    aware = hls.build_datapath(
        cdfg, sched, fub, session_aware_assignment(cdfg, sched, fub)
    )
    _cfg, envs = assign_test_roles(shared)
    return (design, len(schedule_sessions(envs)),
            len(path_based_sessions(aware)),
            len(shared.registers), len(aware.registers))


def bist_session_table(**rows):
    ordered = [rows[k] for k in sorted(rows, key=lambda k: int(k[4:]))]
    return table_spec(
        "E-5.2",
        "[20] test concurrency: per-module sessions vs path-based",
        ["design", "sessions per-module", "sessions path [20]",
         "regs shared", "regs concurrency"],
        ordered,
        ["claim shape: path-based testing reaches one session on every "
         "data path; per-module sharing needs several; concurrency may "
         "cost extra registers (the survey's noted trade-off)"],
    )


def bist_sessions_flow(names: Sequence[str] | None = None,
                       slack: float = 1.6) -> Flow:
    """BIST test concurrency: per-module vs path-based sessions (E-5.2)."""
    names = list(names if names is not None else BIST_SESSION_NAMES)
    f = Flow("bist_sessions")
    for i, design in enumerate(names):
        f.stage(
            f"bist:{design}", bist_session_row,
            outputs=(f"row_{i}",),
            params={"design": design, "slack": slack},
            code_deps=("repro.cdfg", "repro.hls", "repro.bist"),
        )
    f.stage(
        "table", bist_session_table,
        inputs=tuple(f"row_{i}" for i in range(len(names))),
        outputs=("table",),
    )
    return f


# ---------------------------------------------------------------------------
# in-situ BIST signature coverage (E-5.5)
# ---------------------------------------------------------------------------

INSITU_BIST_NAMES = ["iir2", "ar4"]
INSITU_BIST_WIDTH = 4
INSITU_BIST_FAULTS = 90


def insitu_bist_row(design: str, slack: float, width: int,
                    n_faults: int, backend: str | None = None,
                    shards: int | None = None):
    from repro.bist import assign_test_roles, schedule_sessions
    from repro.cdfg import suite
    from repro.gatelevel.bist_session import (
        bist_fault_coverage,
        build_bist_hardware,
    )
    from repro.gatelevel.faults import all_faults
    from repro.gatelevel.genscale import sample_faults

    cdfg = suite.standard_suite(width=width)[design]
    dp, *_ = conventional_datapath(cdfg, slack=slack)
    _cfg, envs = assign_test_roles(dp)
    hw = build_bist_hardware(dp, envs)
    sessions = schedule_sessions(list(envs))
    unit_faults = [
        f for f in all_faults(hw.netlist)
        if f.net.startswith(("fa_", "pp_"))
    ][:n_faults]
    kw = dict(backend=backend, shards=shards)
    t0 = time.perf_counter()
    cov16 = bist_fault_coverage(
        hw, sessions=sessions, cycles=16, faults=unit_faults, **kw
    )
    cov64 = bist_fault_coverage(
        hw, sessions=sessions, cycles=64, faults=unit_faults, **kw
    )
    # Seeded sample of the whole-machine universe: the old ``[:n_faults]``
    # prefix only ever saw the first nets in declaration order, biasing
    # the all-in-one/scheduled comparison toward one corner of the
    # datapath.
    sample = sample_faults(hw.netlist, n_faults, seed=5)
    one = bist_fault_coverage(
        hw, sessions=[[u.name for u in dp.units]],
        cycles=48, faults=sample, **kw
    )
    multi = bist_fault_coverage(
        hw, sessions=sessions, cycles=48, faults=sample, **kw
    )
    elapsed = time.perf_counter() - t0
    if elapsed > 0:
        # four coverage runs over ~n_faults faults each
        record_metric("faults_per_s",
                      round((2 * len(unit_faults) + 2 * len(sample))
                            / elapsed, 1))
    return (design, len(sessions), f"{cov16:.3f}", f"{cov64:.3f}",
            f"{one:.3f}", f"{multi:.3f}")


def insitu_bist_table(**rows):
    ordered = [rows[k] for k in sorted(rows, key=lambda k: int(k[4:]))]
    return table_spec(
        "E-5.5",
        "in-situ BIST: signature-based coverage of the logic blocks",
        ["design", "sessions", "unit cov @16", "unit cov @64",
         "all-in-one cov", "scheduled cov"],
        ordered,
        ["claim shape: logic-block coverage high and growing with "
         "session length; the conflict-free session schedule never "
         "covers less than the all-in-one session"],
    )


def insitu_bist_flow(names: Sequence[str] | None = None,
                     slack: float = 1.5,
                     width: int = INSITU_BIST_WIDTH,
                     n_faults: int = INSITU_BIST_FAULTS,
                     backend: str | None = None,
                     shards: int | None = None) -> Flow:
    """In-situ BIST signature coverage of the logic blocks (E-5.5)."""
    names = list(names if names is not None else INSITU_BIST_NAMES)
    f = Flow("insitu_bist")
    for i, design in enumerate(names):
        f.stage(
            f"bist:{design}", insitu_bist_row,
            outputs=(f"row_{i}",),
            params={"design": design, "slack": slack, "width": width,
                    "n_faults": n_faults, "backend": backend,
                    "shards": shards},
            code_deps=("repro.cdfg", "repro.hls", "repro.bist",
                       "repro.gatelevel.bist_session",
                       "repro.gatelevel.kernel",
                       "repro.gatelevel.fault_sim",
                       "repro.gatelevel.structure",
                       "repro.flow.shm"),
        )
    f.stage(
        "table", insitu_bist_table,
        inputs=tuple(f"row_{i}" for i in range(len(names))),
        outputs=("table",),
    )
    return f


# ---------------------------------------------------------------------------
# hierarchical test generation (E-6)
# ---------------------------------------------------------------------------

HIER_WIDTH = 4
HIER_FAULT_SAMPLE = 40


def hier_build(width: int, fault_sample: int):
    from repro import hls
    from repro.cdfg import suite
    from repro.gatelevel import all_faults, expand_composite
    from repro.hls import build_controller

    cdfg = suite.figure1(width=width)
    alloc = hls.Allocation({"alu": 2})
    sched = hls.list_schedule(cdfg, alloc)
    fub = hls.bind_functional_units(cdfg, sched, alloc)
    ra = hls.assign_registers_left_edge(cdfg, sched)
    dp = hls.build_datapath(cdfg, sched, fub, ra)
    ctrl = build_controller(dp)
    composite = expand_composite(dp, ctrl)
    faults = [
        f for f in all_faults(composite)
        if f.net.startswith(("fa", "mx"))
    ][:fault_sample]
    return {
        "hier_cdfg": cdfg,
        "hier_fub": fub,
        "hier_composite": composite,
        "hier_steps": ctrl.num_steps,
        "hier_faults": faults,
    }


def hier_generate(hier_cdfg, hier_fub, width: int, budget: int):
    from repro.hier import hierarchical_test_suite, module_test_environments

    t0 = time.perf_counter()
    envs = module_test_environments(hier_cdfg, hier_fub)
    tests, uncovered = hierarchical_test_suite(
        hier_cdfg, envs, width=width, budget_per_module=budget
    )
    return {
        "hier_tests": tests,
        "hier_uncovered": uncovered,
        "hier_gen_seconds": time.perf_counter() - t0,
    }


def hier_apply(hier_composite, hier_steps, hier_tests, hier_faults,
               width: int, backend: str | None = None,
               shards: int | None = None, batch: bool | None = None):
    """Fault-simulate the composed tests at gate level (with fault
    dropping: a detected fault is never simulated again).

    With ``batch`` (on by default) up to 64 composed
    tests pack along the pattern-width axis into one kernel invocation
    instead of one call per test.  Each packed column is exactly one
    test's constant-input sequence (absent input names default to 0 in
    both paths), and a fault counts as detected when *any* test
    detects it -- so ``hier_detected`` is identical either way; only
    the per-call overhead changes.
    """
    from repro.gatelevel.batch import resolve_batch
    from repro.gatelevel.fault_sim import fault_simulate

    t0 = time.perf_counter()
    n_detected = 0
    remaining = list(hier_faults)
    pattern_cycles = 0
    tests = list(hier_tests)
    if resolve_batch(batch):
        chunks = [tests[i:i + 64] for i in range(0, len(tests), 64)]
    else:
        chunks = [[t] for t in tests]
    for chunk in chunks:
        if not remaining:
            break
        w = len(chunk)
        piv: dict[str, int] = {"reset": 0}
        for col, test in enumerate(chunk):
            for name, val in test.inputs.items():
                for i in range(width):
                    key = f"pi_{name}_b{i}"
                    piv[key] = piv.get(key, 0) | (((val >> i) & 1) << col)
        seq = [dict(piv, reset=(1 << w) - 1)] + [piv] * (hier_steps + 1)
        pattern_cycles += len(seq) * w * len(remaining)
        results = fault_simulate(
            hier_composite, remaining, seq, width=w, drop_detected=True,
            backend=backend, shards=shards,
        )
        n_detected += sum(1 for hit in results.values() if hit)
        remaining = [f for f, hit in results.items() if not hit]
    elapsed = time.perf_counter() - t0
    if elapsed > 0:
        record_metric("patterns_per_s", round(pattern_cycles / elapsed, 1))
    return n_detected


def hier_flat_atpg(hier_composite, hier_faults, max_frames: int,
                   backtracks: int):
    from repro.gatelevel.seq_atpg import sequential_atpg

    t0 = time.perf_counter()
    detected = 0
    for fault in hier_faults:
        res = sequential_atpg(hier_composite, fault,
                              max_frames=max_frames,
                              backtrack_limit=backtracks)
        detected += res.detected
    return {
        "flat_detected": detected,
        "flat_seconds": time.perf_counter() - t0,
    }


def hier_table(hier_tests, hier_uncovered, hier_gen_seconds,
               hier_detected, hier_faults, flat_detected, flat_seconds):
    n = len(hier_faults)
    rows = [
        ("hierarchical [7,38]", f"{len(hier_tests)} tests",
         f"{hier_detected}/{n}", f"{hier_gen_seconds:.3f}"),
        ("flat sequential ATPG", f"{n} faults",
         f"{flat_detected}/{n}", f"{flat_seconds:.3f}"),
    ]
    return table_spec(
        "E-6",
        "[7,38] hierarchical test generation vs flat sequential ATPG",
        ["method", "tests / faults", "detected", "time (s)"],
        rows,
        ["claim shape: hierarchical generation is much faster at "
         "comparable coverage of the sampled unit faults"],
        extra={
            "det_h": hier_detected,
            "det_f": flat_detected,
            "t_hier": hier_gen_seconds,
            "t_flat": flat_seconds,
            "uncovered": hier_uncovered,
        },
    )


def hierarchical_flow(width: int = HIER_WIDTH,
                      fault_sample: int = HIER_FAULT_SAMPLE,
                      budget: int = 16,
                      backend: str | None = None,
                      shards: int | None = None,
                      batch: bool | None = None) -> Flow:
    """Hierarchical test generation vs flat sequential ATPG (E-6)."""
    f = Flow("hierarchical")
    f.stage(
        "build", hier_build,
        outputs=("hier_cdfg", "hier_fub", "hier_composite",
                 "hier_steps", "hier_faults"),
        params={"width": width, "fault_sample": fault_sample},
        code_deps=("repro.cdfg", "repro.hls", "repro.gatelevel"),
    )
    f.stage(
        "generate", hier_generate,
        inputs=("hier_cdfg", "hier_fub"),
        outputs=("hier_tests", "hier_uncovered", "hier_gen_seconds"),
        params={"width": width, "budget": budget},
        code_deps=("repro.hier",),
    )
    f.stage(
        "faultsim", hier_apply,
        inputs=("hier_composite", "hier_steps", "hier_tests",
                "hier_faults"),
        outputs=("hier_detected",),
        params={"width": width, "backend": backend, "shards": shards,
                "batch": batch},
        code_deps=("repro.gatelevel.fault_sim",
                   "repro.gatelevel.kernel",
                   "repro.gatelevel.batch",
                   "repro.gatelevel.structure",
                   "repro.flow.shm"),
    )
    f.stage(
        "flat_atpg", hier_flat_atpg,
        inputs=("hier_composite", "hier_faults"),
        outputs=("flat_detected", "flat_seconds"),
        params={"max_frames": 6, "backtracks": 60},
        code_deps=("repro.gatelevel",),
    )
    f.stage(
        "table", hier_table,
        inputs=("hier_tests", "hier_uncovered", "hier_gen_seconds",
                "hier_detected", "hier_faults", "flat_detected",
                "flat_seconds"),
        outputs=("table",),
    )
    return f


# ---------------------------------------------------------------------------
# Figure 1 / Table 1 regeneration (F1, T1)
# ---------------------------------------------------------------------------

def figure1_variant_row(variant: str):
    from repro.sgraph import (
        build_sgraph,
        estimate_cost,
        minimum_feedback_vertex_set,
        nontrivial_cycles,
        self_loops,
    )
    from repro.survey import figure1_datapath

    g = build_sgraph(figure1_datapath(variant))
    return (
        f"figure1({variant})",
        len(nontrivial_cycles(g)),
        len(self_loops(g)),
        len(minimum_feedback_vertex_set(g)),
        f"{estimate_cost(g, respect_scan=False).score:.1f}",
    )


def figure1_loop_aware_row():
    from repro.cdfg.suite import figure1
    from repro.hls import Allocation
    from repro.scan import loop_aware_synthesis
    from repro.sgraph import (
        build_sgraph,
        estimate_cost,
        minimum_feedback_vertex_set,
        nontrivial_cycles,
        self_loops,
    )

    dp, _plan = loop_aware_synthesis(
        figure1(), Allocation({"alu": 2}), num_steps=3
    )
    g = build_sgraph(dp)
    return (
        "loop-aware [33]",
        len(nontrivial_cycles(g)),
        len(self_loops(g)),
        len(minimum_feedback_vertex_set(g)),
        f"{estimate_cost(g, respect_scan=False).score:.1f}",
    )


def figure1_table(row_b, row_c, row_loop_aware):
    return table_spec(
        "F1",
        "Figure 1: loops formed during assignment (3 steps, 2 adders)",
        ["variant", "nontrivial cycles", "self-loops", "scan regs needed",
         "ATPG cost score"],
        [row_b, row_c, row_loop_aware],
        ["paper: (b) needs one scanned register; (c) 'contains only two "
         "self-loops' and needs none"],
    )


def figure1_flow() -> Flow:
    """Figure 1: loops formed during register assignment (F1)."""
    f = Flow("figure1")
    for variant in ("b", "c"):
        f.stage(
            f"variant:{variant}", figure1_variant_row,
            outputs=(f"row_{variant}",),
            params={"variant": variant},
            code_deps=("repro.survey", "repro.sgraph"),
        )
    f.stage(
        "loop_aware", figure1_loop_aware_row,
        outputs=("row_loop_aware",),
        code_deps=("repro.cdfg", "repro.hls", "repro.scan",
                   "repro.sgraph"),
    )
    f.stage(
        "table", figure1_table,
        inputs=("row_b", "row_c", "row_loop_aware"),
        outputs=("table",),
    )
    return f


def table1_rows():
    from repro.survey import TABLE1

    return [
        (row.name, row.synthesis_base,
         " or ".join(l.value for l in row.levels), row.repro_flow)
        for row in TABLE1
    ]


def table1_table(t1_rows):
    return table_spec(
        "T1",
        "Operational Level of Testability Insertion (Table 1, verbatim)",
        ["Name", "Synthesis Base", "Insertion Level", "repro flow"],
        t1_rows,
    )


def table1_flow() -> Flow:
    """Table 1 verbatim: operational level of testability insertion (T1)."""
    f = Flow("table1")
    f.stage("rows", table1_rows, outputs=("t1_rows",),
            code_deps=("repro.survey",))
    f.stage("table", table1_table, inputs=("t1_rows",),
            outputs=("table",))
    return f


# ---------------------------------------------------------------------------
# corpus coverage (batchable) -- COV
# ---------------------------------------------------------------------------

def coverage_build(design: str):
    from repro.designs import resolve_design

    return resolve_design(design)


def _coverage_row(netlist, design: str, cov: float, n_patterns: int):
    """One coverage row.  Shared by the per-flow stage and the batched
    runner so both produce byte-identical artifacts."""
    from repro.gatelevel.faults import all_faults

    return (design, netlist.num_gates(), len(netlist.dffs()),
            len(all_faults(netlist)), n_patterns, f"{cov:.4f}")


def coverage_row(cov_netlist, design: str, n_patterns: int, seed: int,
                 backend: str | None = None):
    from repro.gatelevel.random_patterns import random_pattern_coverage

    cov = random_pattern_coverage(
        cov_netlist, n_patterns=n_patterns, seed=seed, backend=backend
    )
    return _coverage_row(cov_netlist, design, cov, n_patterns)


def coverage_table(cov_row):
    return table_spec(
        "COV",
        "random-pattern stuck-at coverage",
        ["design", "gates", "dffs", "faults", "patterns", "coverage"],
        [cov_row],
    )


def coverage_flow(design: str = "gs:400:3", n_patterns: int = 256,
                  seed: int = 1, backend: str | None = None) -> Flow:
    """Random-pattern coverage of one registered or genscale design
    (COV; batchable -- compatible queued submissions fuse)."""
    f = Flow("coverage")
    f.stage(
        "build", coverage_build,
        outputs=("cov_netlist",),
        params={"design": design},
        code_deps=("repro.designs", "repro.gatelevel.genscale"),
    )
    f.stage(
        "coverage", coverage_row,
        inputs=("cov_netlist",),
        outputs=("cov_row",),
        params={"design": design, "n_patterns": n_patterns,
                "seed": seed, "backend": backend},
        code_deps=("repro.gatelevel.random_patterns",
                   "repro.gatelevel.kernel",
                   "repro.gatelevel.fault_sim",
                   "repro.gatelevel.batch",
                   "repro.gatelevel.structure"),
    )
    f.stage(
        "table", coverage_table,
        inputs=("cov_row",),
        outputs=("table",),
    )
    return f


def _filled_params(builder, params):
    """``params`` completed with the builder's defaults; raises
    ``KeyError`` on names the builder does not accept."""
    import inspect

    full: dict[str, Any] = {}
    for name, p in inspect.signature(builder).parameters.items():
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        full[name] = p.default
    for key, value in params.items():
        if key not in full:
            raise KeyError(key)
        full[key] = value
    return full


def coverage_batch_key(params):
    """Hashable compatibility key: submissions fusing together must
    agree on everything except the design under test."""
    full = _filled_params(coverage_flow, dict(params))
    full.pop("design")
    return tuple(sorted(full.items()))


def coverage_batch_run(params_list, cache=None, pools=None, jobs=1):
    """Run many ``coverage`` submissions as ONE fused kernel sweep.

    Returns one result dict per submission, shaped and byte-identical
    to what :meth:`repro.serve.scheduler.Scheduler._run` produces for
    a solo execution of the same params: the covers come from
    :func:`repro.gatelevel.batch.random_coverage_many` (proven
    byte-identical to per-design serial coverage) and the artifacts
    are rebuilt through the same row/table helpers the flow stages
    use.  Coalesced runs bypass the stage cache; stage keys are still
    reported so clients can correlate.
    """
    from types import SimpleNamespace

    from repro.designs import resolve_design
    from repro.flow.cli import render_artifacts
    from repro.flow.runner import Runner
    from repro.gatelevel.batch import random_coverage_many
    from repro.serve.scheduler import json_safe_artifacts

    full = [_filled_params(coverage_flow, dict(p)) for p in params_list]
    shared = full[0]
    netlists = [resolve_design(p["design"]) for p in full]
    covs = random_coverage_many(
        netlists, n_patterns=shared["n_patterns"], seed=shared["seed"],
        backend=shared["backend"],
    )
    runner = Runner(cache=cache, pools=pools)
    out = []
    for p, nl, cov in zip(full, netlists, covs):
        row = _coverage_row(nl, p["design"], cov, p["n_patterns"])
        artifacts = {
            "cov_netlist": nl,
            "cov_row": row,
            "table": coverage_table(row),
        }
        safe, omitted = json_safe_artifacts(artifacts)
        out.append({
            "rendered": render_artifacts(
                SimpleNamespace(artifacts=artifacts)
            ),
            "artifacts": safe,
            "omitted": omitted,
            "keys": runner.stage_keys(coverage_flow(**p)),
            "ok": True,
        })
    return out


#: flow name -> (batch_key_fn, batch_run_fn).  The serve scheduler's
#: coalescing window fuses queued submissions of the same flow whose
#: batch keys agree into one ``batch_run_fn`` invocation.
BATCHABLE: dict[str, tuple[Callable, Callable]] = {
    "coverage": (coverage_batch_key, coverage_batch_run),
}


# ---------------------------------------------------------------------------
# the d_machine CPU benchmark (DM)
# ---------------------------------------------------------------------------

def dmachine_build(width: int, nregs: int, ram_words: int):
    from repro.designs import build_dmachine

    return build_dmachine(width=width, nregs=nregs,
                          ram_words=ram_words)


def dmachine_scan_row(dm_netlist, width: int, nregs: int,
                      ram_words: int, n_faults: int, patterns: int,
                      seed: int, backend: str | None = None):
    """Scan-selection trade: random coverage full-scan vs core-scan
    (RAM bank unscanned) on the same fault sample."""
    from repro.designs import build_dmachine
    from repro.gatelevel.genscale import sample_faults
    from repro.gatelevel.random_patterns import random_pattern_coverage

    core = build_dmachine(width=width, nregs=nregs,
                          ram_words=ram_words, scan="core")
    faults = sample_faults(dm_netlist, n_faults, seed=seed)
    t0 = time.perf_counter()
    cov_full = random_pattern_coverage(
        dm_netlist, n_patterns=patterns, seed=seed, faults=faults,
        backend=backend,
    )
    cov_core = random_pattern_coverage(
        core, n_patterns=patterns, seed=seed, faults=faults,
        backend=backend,
    )
    elapsed = time.perf_counter() - t0
    return ("scan-select",
            f"full={len(dm_netlist.scan_dffs())} "
            f"core={len(core.scan_dffs())} dffs",
            f"cov full={cov_full:.3f}", f"cov core={cov_core:.3f}",
            f"{elapsed:.2f}")


def dmachine_atpg_row(dm_netlist, n_faults: int, backtracks: int,
                      seed: int, backend: str | None = None,
                      shards: int | None = None):
    from repro.gatelevel.genscale import sample_faults
    from repro.gatelevel.test_generation import generate_tests

    faults = sample_faults(dm_netlist, n_faults, seed=seed + 1)
    t0 = time.perf_counter()
    ts = generate_tests(dm_netlist, faults=faults,
                        backtrack_limit=backtracks, backend=backend,
                        shards=shards)
    elapsed = time.perf_counter() - t0
    if elapsed > 0:
        record_metric("faults_per_s",
                      round(ts.total_faults / elapsed, 1))
    return ("atpg", f"{ts.total_faults} faults",
            f"cov={ts.coverage:.3f}",
            f"eff={ts.test_efficiency:.3f} "
            f"aborted={len(ts.aborted)}",
            f"{elapsed:.2f}")


def dmachine_random_row(dm_netlist, patterns: int, n_faults: int,
                        seed: int, backend: str | None = None):
    from repro.gatelevel.genscale import sample_faults
    from repro.gatelevel.random_patterns import random_pattern_coverage

    faults = sample_faults(dm_netlist, n_faults, seed=seed + 2)
    t0 = time.perf_counter()
    cov = random_pattern_coverage(
        dm_netlist, n_patterns=patterns, seed=seed, faults=faults,
        backend=backend,
    )
    elapsed = time.perf_counter() - t0
    return ("random", f"{patterns} patterns", f"cov={cov:.3f}",
            f"{len(faults)} faults", f"{elapsed:.2f}")


def dmachine_bist_row(width: int, nregs: int, ram_words: int,
                      bist_cycles: int, n_faults: int, seed: int,
                      backend: str | None = None,
                      shards: int | None = None):
    """The no-scan, MISR-observed variant through BIST attribution."""
    from repro.designs import dmachine_bist
    from repro.gatelevel.bist_session import bist_fault_coverage
    from repro.gatelevel.genscale import sample_faults

    hw = dmachine_bist(width=width, nregs=nregs, ram_words=ram_words)
    faults = sample_faults(hw.netlist, n_faults, seed=seed + 3)
    t0 = time.perf_counter()
    cov = bist_fault_coverage(
        hw, sessions=[["u0"]], cycles=bist_cycles, faults=faults,
        backend=backend, shards=shards,
    )
    elapsed = time.perf_counter() - t0
    return ("bist", f"{bist_cycles} cycles", f"cov={cov:.3f}",
            f"{len(faults)} faults", f"{elapsed:.2f}")


def dmachine_table(dm_netlist, scan_row, atpg_row, random_row,
                   bist_row):
    return table_spec(
        "DM",
        f"d_machine CPU ({dm_netlist.name}): "
        f"{dm_netlist.num_gates()} gates, "
        f"{len(dm_netlist.dffs())} dffs",
        ["phase", "config", "result", "detail", "time (s)"],
        [scan_row, atpg_row, random_row, bist_row],
        ["hand-built 16-bit CPU (ALU / regfile / decode / RAM / PC+SP) "
         "through the full scan-selection, ATPG, random-pattern and "
         "BIST flows"],
        extra={"gates": dm_netlist.num_gates(),
               "dffs": len(dm_netlist.dffs())},
    )


def dmachine_flow(width: int = 16, nregs: int = 16,
                  ram_words: int = 128, n_faults: int = 240,
                  patterns: int = 256, bist_cycles: int = 128,
                  backtracks: int = 600, seed: int = 1,
                  backend: str | None = None,
                  shards: int | None = None) -> Flow:
    """The d_machine CPU through scan-selection / ATPG / random /
    BIST (DM)."""
    f = Flow("dmachine")
    f.stage(
        "build", dmachine_build,
        outputs=("dm_netlist",),
        params={"width": width, "nregs": nregs,
                "ram_words": ram_words},
        code_deps=("repro.designs",),
    )
    f.stage(
        "scan_select", dmachine_scan_row,
        inputs=("dm_netlist",),
        outputs=("scan_row",),
        params={"width": width, "nregs": nregs,
                "ram_words": ram_words, "n_faults": n_faults,
                "patterns": patterns, "seed": seed,
                "backend": backend},
        code_deps=("repro.designs",
                   "repro.gatelevel.random_patterns",
                   "repro.gatelevel.kernel",
                   "repro.gatelevel.fault_sim",
                   "repro.gatelevel.structure"),
    )
    f.stage(
        "atpg", dmachine_atpg_row,
        inputs=("dm_netlist",),
        outputs=("atpg_row",),
        params={"n_faults": n_faults, "backtracks": backtracks,
                "seed": seed, "backend": backend, "shards": shards},
        code_deps=("repro.gatelevel.test_generation",
                   "repro.gatelevel.atpg",
                   "repro.gatelevel.kernel",
                   "repro.gatelevel.fault_sim",
                   "repro.gatelevel.structure",
                   "repro.flow.shm"),
    )
    f.stage(
        "random", dmachine_random_row,
        inputs=("dm_netlist",),
        outputs=("random_row",),
        params={"patterns": patterns, "n_faults": n_faults,
                "seed": seed, "backend": backend},
        code_deps=("repro.gatelevel.random_patterns",
                   "repro.gatelevel.kernel",
                   "repro.gatelevel.fault_sim",
                   "repro.gatelevel.structure"),
    )
    f.stage(
        "bist", dmachine_bist_row,
        outputs=("bist_row",),
        params={"width": width, "nregs": nregs,
                "ram_words": ram_words, "bist_cycles": bist_cycles,
                "n_faults": n_faults, "seed": seed,
                "backend": backend, "shards": shards},
        code_deps=("repro.designs",
                   "repro.gatelevel.bist_session",
                   "repro.gatelevel.kernel",
                   "repro.gatelevel.fault_sim",
                   "repro.gatelevel.structure",
                   "repro.flow.shm"),
    )
    f.stage(
        "table", dmachine_table,
        inputs=("dm_netlist", "scan_row", "atpg_row", "random_row",
                "bist_row"),
        outputs=("table",),
    )
    return f


def fuzz_smoke_run(trials: int, seed: int, max_gates: int,
                   oracles: str | None = None):
    """A small fixed-seed differential fuzzing campaign; raises on any
    non-match outcome so the flow (and CI) fails loudly."""
    import os
    import tempfile

    from repro.fuzz.campaign import CampaignConfig, run_campaign

    with tempfile.TemporaryDirectory() as td:
        config = CampaignConfig(
            seed=seed,
            trials=trials,
            max_gates=max_gates,
            oracles=tuple(oracles.split(",")) if oracles else None,
            exec_mode="inproc",
            minimize=False,
            journal=os.path.join(td, "journal.jsonl"),
            repro_dir=os.path.join(td, "repros"),
        )
        summary = run_campaign(config)
    out = summary["outcomes"]
    bad = out["divergence"] + out["crash"] + out["hang"]
    if bad:
        raise RuntimeError(
            f"fuzz smoke campaign found {bad} non-match outcomes: "
            f"{summary['findings']}"
        )
    return {
        "trials": summary["trials"],
        "arms": summary["arms"],
        "policy": summary["policy"],
        "outcomes": out,
    }


def fuzz_smoke_table(fuzz_summary):
    return table_spec(
        "FUZZ",
        "differential fuzz smoke campaign",
        ["trials", "arms", "policy", "match", "divergence", "crash",
         "hang"],
        [(
            fuzz_summary["trials"],
            fuzz_summary["arms"],
            fuzz_summary["policy"],
            fuzz_summary["outcomes"]["match"],
            fuzz_summary["outcomes"]["divergence"],
            fuzz_summary["outcomes"]["crash"],
            fuzz_summary["outcomes"]["hang"],
        )],
        notes=["every backend pair agreed on every generated design"],
    )


def fuzz_smoke_flow(trials: int = 8, seed: int = 0,
                    max_gates: int = 400,
                    oracles: str | None = None) -> Flow:
    """Fixed-seed differential fuzz campaign over generated designs
    (FUZZ; fails on any divergence/crash/hang)."""
    f = Flow("fuzz_smoke")
    f.stage(
        "campaign", fuzz_smoke_run,
        outputs=("fuzz_summary",),
        params={"trials": trials, "seed": seed,
                "max_gates": max_gates, "oracles": oracles},
        code_deps=("repro.fuzz",
                   "repro.gatelevel.genscale",
                   "repro.gatelevel.kernel",
                   "repro.gatelevel.fault_sim",
                   "repro.gatelevel.atpg",
                   "repro.gatelevel.bist_session",
                   "repro.gatelevel.batch",
                   "repro.gatelevel.structure",
                   "repro.flow.shm"),
    )
    f.stage(
        "table", fuzz_smoke_table,
        inputs=("fuzz_summary",),
        outputs=("table",),
    )
    return f


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def report_flow(design: str = "iir2", slack: float = 1.5,
                width: int = 8) -> Flow:
    """Testability-report pipeline (lazy import: repro.report imports
    the flow engine, so the builder must not import it at load time)."""
    from repro.report import build_report_flow

    return build_report_flow(design=design, slack=slack, width=width)


FLOWS: dict[str, Callable[..., Flow]] = {
    "fullscan": fullscan_flow,
    "report": report_flow,
    "partial_scan": partial_scan_flow,
    "bist_sessions": bist_sessions_flow,
    "insitu_bist": insitu_bist_flow,
    "hierarchical": hierarchical_flow,
    "figure1": figure1_flow,
    "table1": table1_flow,
    "coverage": coverage_flow,
    "dmachine": dmachine_flow,
    "fuzz_smoke": fuzz_smoke_flow,
}


def get_flow(name: str, **params) -> Flow:
    try:
        builder = FLOWS[name]
    except KeyError:
        raise KeyError(
            f"unknown flow {name!r}; available: {', '.join(sorted(FLOWS))}"
        ) from None
    return builder(**params)


def describe_flow(name: str) -> dict[str, Any]:
    """The discoverable API surface of one flow.

    ``description`` is the first line of the builder's docstring;
    ``params`` maps each accepted builder parameter to the repr of its
    default.  Service clients (and ``python -m repro.flow list``) use
    this instead of guessing the accepted ``--param`` keys.
    """
    import inspect

    builder = FLOWS[name]
    doc = inspect.getdoc(builder) or ""
    description = doc.splitlines()[0].strip() if doc else ""
    params: dict[str, str] = {}
    for p in inspect.signature(builder).parameters.values():
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        params[p.name] = (
            "(required)" if p.default is p.empty else repr(p.default)
        )
    return {"name": name, "description": description, "params": params}


def describe_flows() -> list[dict[str, Any]]:
    """:func:`describe_flow` for every registered flow, sorted by name."""
    return [describe_flow(name) for name in sorted(FLOWS)]
