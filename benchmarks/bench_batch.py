"""PERF -- fused multi-design kernel execution (block-diagonal batching).

Measures what :mod:`repro.gatelevel.batch` buys over per-design serial
kernel calls on the regimes the fusion targets:

* **Sparse corpus coverage** -- many small designs, a targeted fault
  sample each (the hierarchical per-module / serve-coalescing shape).
  Serial runs pay one ``good_cycle`` plus padded fault batches per
  design per pattern block; the fused run shares one good-machine pass
  across the corpus and packs 32-fault batches across design
  boundaries.  This is the headline sweep the >= 2x acceptance bar
  rides on.
* **Sequential free-runs** -- BIST-style packed fault columns over
  hundreds of cycles.  Serial runs leave most of the 256 word-bit
  columns empty on small fault lists; the fused run fills them across
  designs, amortising per-(level, opcode) numpy dispatch corpus-wide.
* **Dense corpus coverage** -- full stuck-at universes, where every
  design already fills whole batches and fusion can only share the
  good machine: reported honestly as a parity row, no speedup claimed.
* **Shard sweep** -- the headline case re-run at shards {1, 2, 4}
  through the shm payload plane; every row must stay byte-identical.

Every fused row asserts byte-identity against its serial twin.
Results land in ``benchmarks/results/PERF-batch.{txt,json}`` and the
repo-root ``BENCH_batch.json`` scoreboard.  ``--smoke`` (or
``REPRO_BENCH_QUICK=1``) runs reduced cases as the CI identity gate
and leaves the committed scoreboard alone.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import time

from common import Table
from repro.gatelevel import batch as gbatch
from repro.gatelevel import genscale
from repro.gatelevel.batch import SeqJob, sequential_detect_many
from repro.gatelevel.faults import all_faults
from repro.gatelevel.kernel import compiled
from repro.gatelevel.random_patterns import random_pattern_coverage
from repro.gatelevel.structure import structural_analysis

ROOT_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_batch.json"
)

#: (designs, gates each, sampled faults each, patterns) -- the
#: targeted-check shape: hier per-module sweeps, serve coalescing.
SPARSE_CASES = [
    (48, 150, 12, 256),
    (100, 80, 8, 256),
    (200, 60, 6, 256),
]
SPARSE_SMOKE = [(8, 100, 8, 64)]

#: (designs, gates each, faults each, free-run cycles) -- packed
#: sequential columns, observed at quarter-point checkpoints.
SEQ_CASES = [
    (24, 200, 16, 256),
    (48, 120, 8, 256),
]
SEQ_SMOKE = [(6, 100, 8, 64)]

#: (designs, gates each, patterns) -- full fault universes; the
#: parity regime (serial already amortises well, no win claimed).
DENSE_CASES = [(16, 500, 256)]
DENSE_SMOKE = [(4, 120, 64)]

SHARD_SWEEP = (1, 2, 4)


def _corpus(n: int, gates: int, nf: int | None):
    """``n`` genscale designs with (optionally sampled) fault lists,
    structure/compile caches warmed so neither side pays them."""
    nls = [genscale.generate_netlist(gates, seed=100 + i)
           for i in range(n)]
    fls = []
    for i, nl in enumerate(nls):
        fl = all_faults(nl)
        if nf is not None:
            fl = random.Random(50 + i).sample(fl, min(nf, len(fl)))
        fls.append(fl)
        structural_analysis(nl)
        compiled(nl)
    gbatch.fused_compiled(nls)
    return nls, fls


def _timed_cov(nls, fls, patterns, fused: bool, shards=None,
               trials: int = 1):
    """Best-of-``trials`` wall clock (min over repeats, the standard
    steady-state measure: trial 1 additionally pays one-time cone and
    batch cache construction both engines memoise per program)."""
    best = None
    covs = None
    for _ in range(trials):
        t0 = time.perf_counter()
        if fused:
            got = gbatch.random_coverage_many(
                nls, n_patterns=patterns, seed=7, faults_list=fls,
                backend="kernel", shards=shards,
            )
        else:
            got = [
                random_pattern_coverage(nl, n_patterns=patterns,
                                        seed=7, faults=fl,
                                        backend="kernel")
                for nl, fl in zip(nls, fls)
            ]
        t = time.perf_counter() - t0
        if covs is not None:
            assert got == covs, "coverage drifted across trials"
        covs = got
        best = t if best is None else min(best, t)
    return covs, best


def run_experiment(sparse_cases=None, seq_cases=None, dense_cases=None,
                   root_json: bool = True) -> Table:
    if sparse_cases is None:
        if os.environ.get("REPRO_BENCH_QUICK"):
            # Identity gate only -- leave the committed scoreboard alone.
            sparse_cases, seq_cases, dense_cases, root_json = (
                SPARSE_SMOKE, SEQ_SMOKE, DENSE_SMOKE, False)
        else:
            sparse_cases, seq_cases, dense_cases = (
                SPARSE_CASES, SEQ_CASES, DENSE_CASES)
    t_bench = time.perf_counter()
    table = Table(
        "PERF-batch",
        "fused multi-design kernel execution vs per-design serial",
        ["sweep", "corpus", "faults", "serial s", "fused s",
         "speedup", "identical"],
    )

    sparse_records = []
    for n, gates, nf, patterns in sparse_cases:
        nls, fls = _corpus(n, gates, nf)
        serial, t_s = _timed_cov(nls, fls, patterns, fused=False,
                                 trials=3)
        fused, t_f = _timed_cov(nls, fls, patterns, fused=True,
                                trials=3)
        identical = serial == fused
        assert identical, f"sparse identity broke at {n}x{gates}"
        stats = gbatch.batch_stats()
        table.add(
            "coverage-sparse", f"{n}x{gates}g", f"{nf}/design",
            f"{t_s:.3f}", f"{t_f:.3f}", f"{t_s / t_f:.2f}x", identical,
        )
        sparse_records.append({
            "designs": n,
            "gates_each": gates,
            "faults_each": nf,
            "patterns": patterns,
            "serial_s": round(t_s, 3),
            "fused_s": round(t_f, 3),
            "speedup": round(t_s / t_f, 2),
            "trials": 3,
            "fill_ratio": stats["last_fill_ratio"],
            "identical": identical,
        })

    # Shard sweep on the first sparse case: shm transport, positional
    # merge, byte-identity at every shard count.
    n, gates, nf, patterns = sparse_cases[0]
    nls, fls = _corpus(n, gates, nf)
    baseline, _ = _timed_cov(nls, fls, patterns, fused=False)
    shard_records = {}
    shards_identical = True
    for shards in SHARD_SWEEP:
        covs, t = _timed_cov(nls, fls, patterns, fused=True,
                             shards=shards)
        ok = covs == baseline
        shards_identical &= ok
        shard_records[shards] = {"fused_s": round(t, 3),
                                 "identical": ok}
    assert shards_identical, "shard identity broke"

    seq_records = []
    for n, gates, nf, cycles in seq_cases:
        nls, fls = _corpus(n, gates, nf)
        marks = [max(1, cycles // 4), max(1, cycles // 2),
                 max(1, 3 * cycles // 4), cycles]
        pivs = [{pi: (i + 1) & 1 for pi in nl.inputs()}
                for i, nl in enumerate(nls)]
        t0 = time.perf_counter()
        serial = [
            compiled(nl).sequential_fault_detect(
                fl, piv, marks, observe=list(compiled(nl).dff_names))
            for nl, fl, piv in zip(nls, fls, pivs)
        ]
        t_s = time.perf_counter() - t0
        jobs = [
            SeqJob(nl, fl, piv, marks,
                   observe=list(compiled(nl).dff_names))
            for nl, fl, piv in zip(nls, fls, pivs)
        ]
        t0 = time.perf_counter()
        fused = sequential_detect_many(jobs)
        t_f = time.perf_counter() - t0
        identical = serial == fused
        assert identical, f"sequential identity broke at {n}x{gates}"
        table.add(
            "seq-free-run", f"{n}x{gates}g", f"{nf}/design",
            f"{t_s:.3f}", f"{t_f:.3f}", f"{t_s / t_f:.2f}x", identical,
        )
        seq_records.append({
            "designs": n,
            "gates_each": gates,
            "faults_each": nf,
            "cycles": cycles,
            "serial_s": round(t_s, 3),
            "fused_s": round(t_f, 3),
            "speedup": round(t_s / t_f, 2),
            "identical": identical,
        })

    dense_records = []
    for n, gates, patterns in dense_cases:
        nls, fls = _corpus(n, gates, None)
        serial, t_s = _timed_cov(nls, fls, patterns, fused=False)
        fused, t_f = _timed_cov(nls, fls, patterns, fused=True)
        identical = serial == fused
        assert identical, f"dense identity broke at {n}x{gates}"
        table.add(
            "coverage-dense", f"{n}x{gates}g", "all",
            f"{t_s:.3f}", f"{t_f:.3f}", f"{t_s / t_f:.2f}x", identical,
        )
        dense_records.append({
            "designs": n,
            "gates_each": gates,
            "patterns": patterns,
            "serial_s": round(t_s, 3),
            "fused_s": round(t_f, 3),
            "speedup": round(t_s / t_f, 2),
            "identical": identical,
        })

    bench_seconds = time.perf_counter() - t_bench
    table.notes.append(
        "sparse rows: targeted fault samples (the hier/serve regime), "
        "best-of-3 wall clock -- the fused run shares one good-machine "
        "pass and packs fault batches across designs; seq rows: packed "
        "sequential "
        "free-run columns filled corpus-wide; dense rows: full fault "
        "universes, parity regime, no win claimed; every fused row is "
        "byte-identical to its per-design serial twin"
    )
    table.records = {"sparse": sparse_records, "seq": seq_records,
                     "dense": dense_records, "shards": shard_records}
    table.sparse_speedup_best = max(r["speedup"] for r in sparse_records)
    table.seq_speedup_best = max(r["speedup"] for r in seq_records)
    if root_json:
        ROOT_JSON.write_text(json.dumps({
            "experiment": "PERF-batch",
            "nproc": os.cpu_count(),
            "coverage_sparse": sparse_records,
            "seq_free_run": seq_records,
            "coverage_dense": dense_records,
            "shard_sweep": {str(k): v for k, v in shard_records.items()},
            "sparse_speedup_best": table.sparse_speedup_best,
            "seq_speedup_best": table.seq_speedup_best,
            "bench_seconds": round(bench_seconds, 2),
        }, indent=2) + "\n")
    return table


def test_batch(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for row in table.rows:
        assert row[-1], row  # identity on every row
    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    if not quick:
        # the acceptance bar; timing-based, so full sweeps only
        assert table.sparse_speedup_best >= 2.0, \
            table.sparse_speedup_best
        assert table.seq_speedup_best >= 2.0, table.seq_speedup_best
    table.emit()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="reduced cases (CI identity gate)")
    args = parser.parse_args()
    if args.smoke:
        # Print only: don't overwrite the committed full-sweep results.
        print(run_experiment(SPARSE_SMOKE, SEQ_SMOKE, DENSE_SMOKE,
                             root_json=False).render())
    else:
        run_experiment().emit()
