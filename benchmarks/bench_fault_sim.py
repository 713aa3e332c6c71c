"""PERF -- compiled fault-simulation kernel vs the reference interpreter.

Measures patterns/sec (pattern-cycles simulated per second, the PPSFP
throughput metric) on full-scan expanded suite designs of increasing
size, for the pure-Python interpreter and the compiled numpy kernel
(:mod:`repro.gatelevel.kernel`).  Every run cross-checks the two
engines for bit-identical results, and the largest case additionally
checks that a fault-parallel sharded run merges byte-identically.

Results land in ``benchmarks/results/PERF-faultsim.{txt,json}`` and in
the repo-root ``BENCH_fault_sim.json`` scoreboard.  ``--smoke`` runs a
single small case (the CI job's equality gate).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import time

from common import Table, conventional_flow
from repro.cdfg import suite
from repro.gatelevel import all_faults, expand_datapath
from repro.gatelevel.fault_sim import fault_simulate_cycles

ROOT_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_fault_sim.json"
)

#: (design, bit width, pattern width, cycles) -- sorted small to large
CASES = [
    ("figure1", 3, 256, 2),
    ("tseng", 3, 256, 2),
    ("fir8", 3, 256, 2),
    ("fir8", 8, 256, 2),
]
SMOKE_CASES = [("figure1", 2, 64, 2)]


def _fullscan_netlist(design: str, bits: int):
    cdfg = suite.standard_suite(width=bits)[design]
    dp, *_ = conventional_flow(cdfg)
    dp.mark_scan(*[r.name for r in dp.registers])
    netlist, _ctrl = expand_datapath(dp)
    return netlist


def _sequence(netlist, width: int, cycles: int, seed: int = 11):
    rng = random.Random(seed)
    return [
        {pi: rng.getrandbits(width) for pi in netlist.inputs()}
        for _ in range(cycles)
    ]


def _run(netlist, faults, seq, width: int, backend: str, shards: int = 1):
    t0 = time.perf_counter()
    res = fault_simulate_cycles(
        netlist, faults, seq, width=width, backend=backend, shards=shards
    )
    secs = time.perf_counter() - t0
    # Work actually done: a fault detected at cycle c simulated c+1
    # cycles of `width` patterns (identical accounting for both engines).
    work = sum(
        width * (len(seq) if c is None else c + 1) for c in res.values()
    )
    return res, (work / secs if secs > 0 else 0.0), secs


def run_experiment(cases=None, root_json: bool = True) -> Table:
    cases = CASES if cases is None else cases
    t_bench = time.perf_counter()
    table = Table(
        "PERF-faultsim",
        "fault-simulation throughput: compiled kernel vs interpreter",
        ["design", "gates", "faults", "interp pps", "kernel pps",
         "speedup", "identical"],
    )
    records = []
    for i, (design, bits, width, cycles) in enumerate(cases):
        netlist = _fullscan_netlist(design, bits)
        faults = all_faults(netlist)
        seq = _sequence(netlist, width, cycles)
        res_i, pps_i, _ = _run(netlist, faults, seq, width, "interp")
        res_k, pps_k, _ = _run(netlist, faults, seq, width, "kernel")
        identical = res_i == res_k and list(res_i) == list(res_k)
        assert identical, f"kernel != interpreter on {design}"
        if i == len(cases) - 1:
            res_s, _, _ = _run(netlist, faults, seq, width, "kernel",
                               shards=2)
            assert res_s == res_k and list(res_s) == list(res_k), (
                f"sharded != serial on {design}"
            )
        speedup = pps_k / pps_i if pps_i > 0 else 0.0
        table.add(design, len(netlist), len(faults),
                  f"{pps_i:.0f}", f"{pps_k:.0f}", f"{speedup:.1f}x",
                  identical)
        records.append({
            "design": design,
            "gates": len(netlist),
            "faults": len(faults),
            "pattern_width": width,
            "cycles": cycles,
            "interp_patterns_per_s": round(pps_i, 1),
            "kernel_patterns_per_s": round(pps_k, 1),
            "speedup": round(speedup, 2),
            "identical": identical,
        })
    bench_seconds = time.perf_counter() - t_bench
    table.notes.append(
        "pps = pattern-cycles/sec over the collapsed fault list; "
        "identical = kernel bit-identical to the interpreter"
    )
    table.largest_speedup = records[-1]["speedup"]
    table.records = records
    if root_json:
        ROOT_JSON.write_text(json.dumps({
            "experiment": "PERF-faultsim",
            "cases": records,
            "largest_case_speedup": records[-1]["speedup"],
            "bench_seconds": round(bench_seconds, 2),
        }, indent=2) + "\n")
    return table


def test_fault_sim_kernel(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for row in table.rows:
        assert row[-1], row  # kernel == interpreter on every case
    assert table.largest_speedup >= 5.0, table.largest_speedup
    table.emit()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="one small case (CI equality gate)")
    args = parser.parse_args()
    if args.smoke:
        # Equality gate only -- leave the committed scoreboard alone.
        run_experiment(SMOKE_CASES, root_json=False).emit()
    else:
        run_experiment().emit()
