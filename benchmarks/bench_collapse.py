"""PERF -- structural fault collapsing + SCOAP-guided ATPG.

Measures what the :mod:`repro.gatelevel.structure` engine buys on the
two fault-facing hot paths:

* **Fault simulation**: full stuck-at universes on genscale designs
  with technology-mapper-shaped buffer/inverter chains
  (``buf_ratio``), swept over {collapse on, off} x shard counts
  {1, 2, 4} on the compiled kernel, plus a reference-interpreter row
  on the smallest case.  Every collapsed run must expand
  byte-identically to its uncollapsed twin.
* **Deterministic ATPG**: ``generate_tests`` with pre-drop disabled so
  PODEM does the work, {collapse+guidance on, off}, on abort-free
  configurations (classification identity is exact only when no
  search aborts -- see ``docs/fault_collapsing.md``).  Reports
  wall-clock and PODEM backtracks.

Results land in ``benchmarks/results/PERF-collapse.{txt,json}`` and
the repo-root ``BENCH_collapse.json`` scoreboard.  ``--smoke`` (or
``REPRO_BENCH_QUICK=1``) runs reduced cases as the CI identity gate
and leaves the committed scoreboard alone.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

from common import Table
from repro.flow.metrics import collect
from repro.gatelevel import genscale
from repro.gatelevel.fault_sim import fault_simulate_cycles
from repro.gatelevel.faults import all_faults
from repro.gatelevel.structure import structural_analysis
from repro.gatelevel.test_generation import generate_tests

ROOT_JSON = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_collapse.json"
)

#: buffer/inverter chain density for the swept designs -- the shape a
#: technology mapper leaves behind, and the shape collapsing eats.
BUF_RATIO = 0.55

#: (gate budget, pattern cycles) -- small to large, full fault
#: universe each (sampling would break up the equivalence classes).
FS_CASES = [
    (2_000, 8),
    (5_000, 8),
    (10_000, 6),
]
FS_SMOKE = [(800, 4)]

#: (gate budget, backtrack limit) for the ATPG sweep; both
#: configurations are abort-free at these limits, so collapsed and
#: guided runs classify every fault identically to the reference.
ATPG_CASES = [
    (300, 4_000),
    (500, 4_000),
]
ATPG_SMOKE = [(300, 4_000)]

SHARD_SWEEP = (1, 2, 4)


def _design(n_gates: int):
    nl = genscale.generate_netlist(
        n_gates, seed=1, signature_bits=32, buf_ratio=BUF_RATIO
    )
    return nl, all_faults(nl)


def _timed_fs(nl, faults, pats, collapse, shards, backend=None):
    t0 = time.perf_counter()
    res = fault_simulate_cycles(
        nl, faults, pats, collapse=collapse, shards=shards,
        backend=backend,
    )
    return res, time.perf_counter() - t0


def _timed_atpg(nl, limit, on):
    t0 = time.perf_counter()
    with collect() as m:
        ts = generate_tests(
            nl, backtrack_limit=limit, predrop=0,
            collapse=on, guidance=on,
        )
    return ts, time.perf_counter() - t0, m.get("podem_backtracks", 0)


def run_experiment(fs_cases=None, atpg_cases=None,
                   root_json: bool = True) -> Table:
    if fs_cases is None:
        if os.environ.get("REPRO_BENCH_QUICK"):
            # Identity gate only -- leave the committed scoreboard alone.
            fs_cases, atpg_cases, root_json = FS_SMOKE, ATPG_SMOKE, False
        else:
            fs_cases, atpg_cases = FS_CASES, ATPG_CASES
    t_bench = time.perf_counter()
    table = Table(
        "PERF-collapse",
        "fault collapsing + SCOAP guidance on the fault-facing paths",
        ["path", "gates", "faults", "reps", "off s", "on s",
         "speedup", "identical"],
    )
    fs_records = []
    for i, (n_gates, cycles) in enumerate(fs_cases):
        nl, faults = _design(n_gates)
        struct = structural_analysis(nl)
        ratio = struct.collapse.ratio
        n_reps = len(struct.collapse.representatives(faults))
        pats = genscale.random_patterns(nl, cycles, seed=4)
        # warm the compiled program so the off row does not pay the
        # one-time compile that the on row would then skip
        fault_simulate_cycles(nl, faults[:8], pats[:1], collapse=False)

        per_shards = {}
        identical = True
        for shards in SHARD_SWEEP:
            off, t_off = _timed_fs(nl, faults, pats, False, shards)
            on, t_on = _timed_fs(nl, faults, pats, True, shards)
            ok = on == off and list(on) == list(off)
            identical &= ok
            per_shards[shards] = {
                "off_s": round(t_off, 3),
                "on_s": round(t_on, 3),
                "speedup": round(t_off / t_on, 2),
            }
        assert identical, f"collapse identity broke at {n_gates} gates"

        interp = None
        if i == 0:
            off, t_off = _timed_fs(nl, faults, pats, False, 1,
                                   backend="interpreter")
            on, t_on = _timed_fs(nl, faults, pats, True, 1,
                                 backend="interpreter")
            assert on == off and list(on) == list(off)
            interp = {
                "off_s": round(t_off, 3),
                "on_s": round(t_on, 3),
                "speedup": round(t_off / t_on, 2),
            }

        serial = per_shards[1]
        table.add(
            "fault-sim", len(nl), len(faults), n_reps,
            f"{serial['off_s']:.2f}", f"{serial['on_s']:.2f}",
            f"{serial['speedup']:.2f}x", identical,
        )
        fs_records.append({
            "design": nl.name,
            "gates": len(nl),
            "cycles": cycles,
            "faults": len(faults),
            "representatives": n_reps,
            "collapse_ratio": round(ratio, 4),
            "kernel_shards": per_shards,
            **({"interpreter": interp} if interp else {}),
            "speedup_serial": serial["speedup"],
            "identical": identical,
        })

    atpg_records = []
    for n_gates, limit in atpg_cases:
        nl = genscale.generate_netlist(n_gates, seed=1,
                                       buf_ratio=BUF_RATIO)
        off, t_off, bt_off = _timed_atpg(nl, limit, on=False)
        on, t_on, bt_on = _timed_atpg(nl, limit, on=True)
        abort_free = not off.aborted and not on.aborted
        identical = (
            abort_free
            and set(on.detected) == set(off.detected)
            and set(on.untestable) == set(off.untestable)
            and on.total_faults == off.total_faults
        )
        assert abort_free, f"ATPG case {n_gates} is not abort-free"
        assert identical, f"ATPG classification broke at {n_gates}"
        table.add(
            "atpg", len(nl), off.total_faults,
            len(structural_analysis(nl).collapse.representatives(
                all_faults(nl))),
            f"{t_off:.2f}", f"{t_on:.2f}",
            f"{t_off / t_on:.2f}x", identical,
        )
        atpg_records.append({
            "design": nl.name,
            "gates": len(nl),
            "backtrack_limit": limit,
            "faults": off.total_faults,
            "coverage": round(off.coverage, 4),
            "off_s": round(t_off, 3),
            "on_s": round(t_on, 3),
            "speedup": round(t_off / t_on, 2),
            "backtracks_off": bt_off,
            "backtracks_on": bt_on,
            "backtrack_reduction": round(bt_off / max(1, bt_on), 2),
            "identical": identical,
        })

    bench_seconds = time.perf_counter() - t_bench
    table.notes.append(
        "fault-sim rows: full stuck-at universe, collapse on vs off, "
        "serial kernel times (shards 1/2/4 in the JSON); atpg rows: "
        "generate_tests with predrop=0, collapse+guidance on vs off, "
        "abort-free so classification is exactly identical"
    )
    table.records = {"fault_sim": fs_records, "atpg": atpg_records}
    table.fs_speedup_largest = fs_records[-1]["speedup_serial"]
    table.atpg_speedup_largest = atpg_records[-1]["speedup"]
    if root_json:
        ROOT_JSON.write_text(json.dumps({
            "experiment": "PERF-collapse",
            "nproc": os.cpu_count(),
            "buf_ratio": BUF_RATIO,
            "fault_sim": fs_records,
            "atpg": atpg_records,
            "fs_speedup_largest": fs_records[-1]["speedup_serial"],
            "atpg_speedup_largest": atpg_records[-1]["speedup"],
            "atpg_backtrack_reduction_largest": atpg_records[-1][
                "backtrack_reduction"],
            "bench_seconds": round(bench_seconds, 2),
        }, indent=2) + "\n")
    return table


def test_collapse(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for row in table.rows:
        assert row[-1], row  # identity on every row
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    if not quick:
        # the acceptance bar; timing-based, so full sweeps only
        assert table.fs_speedup_largest >= 1.3, table.fs_speedup_largest
        assert table.atpg_speedup_largest >= 1.3, \
            table.atpg_speedup_largest
    table.emit()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="reduced cases (CI identity gate)")
    args = parser.parse_args()
    if args.smoke:
        # Print only: don't overwrite the committed full-sweep results.
        print(run_experiment(FS_SMOKE, ATPG_SMOKE,
                             root_json=False).render())
    else:
        run_experiment().emit()
