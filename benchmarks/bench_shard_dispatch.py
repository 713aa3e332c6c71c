"""PERF -- zero-copy shard dispatch vs whole-payload pickles at scale.

Measures what a fault-parallel shard *costs to dispatch* on genscale
designs of 10k-100k gates: bytes shipped through the pool pipe per
shard (``payload_bytes`` under ``REPRO_SHARD_TRANSPORT=pickle`` vs
``shm``), plus cold and warm-pool wall clock for the same
``fault_simulate_cycles`` run.  Every sharded run must merge
byte-identically to the serial reference -- across both transports and
shard counts 1 (serial), 2, and 4 -- and the smallest case additionally
proves the BIST attribution path identical under both transports.

Warm rows reuse one persistent :class:`WarmPoolProvider` pool, so they
show the compiled-program cache payoff: under shm a warm worker
receives content digests and tiny segment refs, resolves its cached
``Netlist``, and reuses its compiled program -- no netlist bytes cross
the pipe at all after the first call.

Results land in ``benchmarks/results/PERF-shard-dispatch.{txt,json}``
and the repo-root ``BENCH_shard_dispatch.json`` scoreboard.  ``--smoke``
(or ``REPRO_BENCH_QUICK=1``) runs one reduced 10k-gate case as the CI
identity gate and leaves the committed scoreboard alone.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

from common import Table
from repro.flow import shm
from repro.flow.metrics import collect
from repro.flow.resilience import set_shard_pool_provider
from repro.gatelevel import genscale
from repro.gatelevel.bist_session import bist_fault_attribution
from repro.gatelevel.fault_sim import fault_simulate_cycles
from repro.serve.registry import WarmPoolProvider

ROOT_JSON = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_shard_dispatch.json"
)

#: (gate budget, fault sample, pattern cycles) -- small to large.  The
#: fault sample shrinks as designs grow so a full sweep stays minutes.
CASES = [
    (10_000, 512, 8),
    (30_000, 384, 8),
    (100_000, 256, 6),
]
SMOKE_CASES = [(10_000, 128, 4)]

SHARDS = 4


def _design(n_gates: int):
    nl = genscale.generate_netlist(n_gates, seed=1, signature_bits=32)
    faults = genscale.sample_faults(nl, 10 ** 9, seed=2)
    return nl, faults


def _timed(nl, faults, pats, shards: int):
    t0 = time.perf_counter()
    res = fault_simulate_cycles(nl, faults, pats, shards=shards)
    return res, time.perf_counter() - t0


def _payload_bytes(nl, faults, pats, transport: str) -> dict:
    """Dispatch-cost pass: bytes per shard, measured not timed."""
    os.environ[shm.TRANSPORT_ENV] = transport
    with collect() as custom:
        fault_simulate_cycles(nl, faults, pats, shards=SHARDS)
    return {
        "payload_bytes": custom["payload_bytes"],
        "payload_bytes_per_shard": custom["payload_bytes"] // SHARDS,
        "shm_bytes": custom.get("shm_bytes", 0),
    }


def _bist_identity(nl, n_faults: int = 64) -> bool:
    hw = genscale.bist_wrap(nl)
    faults = genscale.sample_faults(nl, n_faults, seed=5)
    kw = dict(sessions=[["u0"]], cycles=16, faults=faults)
    serial = bist_fault_attribution(hw, shards=1, **kw)
    for transport in ("pickle", "shm"):
        os.environ[shm.TRANSPORT_ENV] = transport
        for shards in (2, 4):
            att = bist_fault_attribution(hw, shards=shards, **kw)
            if att != serial or list(att) != list(serial):
                return False
    return True


def run_experiment(cases=None, root_json: bool = True) -> Table:
    if cases is None:
        if os.environ.get("REPRO_BENCH_QUICK"):
            # Identity gate only -- leave the committed scoreboard alone.
            cases, root_json = SMOKE_CASES, False
        else:
            cases = CASES
    t_bench = time.perf_counter()
    table = Table(
        "PERF-shard-dispatch",
        "shard dispatch: shm payload plane + warm workers vs pickles",
        ["gates", "faults", "serial s", "pkl cold s", "shm cold s",
         "pkl warm s", "shm warm s", "B/shard pkl", "B/shard shm",
         "reduction", "identical"],
    )
    records = []
    saved_env = os.environ.get(shm.TRANSPORT_ENV)
    try:
        for i, (n_gates, n_faults, cycles) in enumerate(cases):
            nl, universe = _design(n_gates)
            faults = genscale.sample_faults(nl, n_faults, seed=3)
            pats = genscale.random_patterns(nl, cycles, seed=4)
            os.environ.pop(shm.TRANSPORT_ENV, None)
            serial, serial_s = _timed(nl, faults, pats, shards=1)

            cold = {}
            identical = True
            for transport in ("pickle", "shm"):
                os.environ[shm.TRANSPORT_ENV] = transport
                for shards in (2, SHARDS):
                    res, secs = _timed(nl, faults, pats, shards)
                    cold[(transport, shards)] = secs
                    identical &= (res == serial
                                  and list(res) == list(serial))
            assert identical, f"transport/shard mismatch at {n_gates}"

            # Warm-pool rows: one persistent pool, workers keep their
            # compiled programs; two untimed laps spread the netlist
            # to every worker before the measured laps.
            provider = WarmPoolProvider(jobs=SHARDS)
            provider.prewarm()
            set_shard_pool_provider(provider)
            warm = {}
            try:
                os.environ[shm.TRANSPORT_ENV] = "shm"
                for _lap in range(2):
                    fault_simulate_cycles(nl, faults, pats,
                                          shards=SHARDS)
                for transport in ("pickle", "shm"):
                    os.environ[shm.TRANSPORT_ENV] = transport
                    res, secs = _timed(nl, faults, pats, SHARDS)
                    warm[transport] = secs
                    assert res == serial, f"warm {transport} mismatch"
            finally:
                set_shard_pool_provider(None)
                provider.close()

            sizes = {
                t: _payload_bytes(nl, faults, pats, t)
                for t in ("pickle", "shm")
            }
            reduction = (sizes["pickle"]["payload_bytes_per_shard"]
                         / max(1, sizes["shm"]["payload_bytes_per_shard"]))
            bist_ok = _bist_identity(nl) if i == 0 else None
            if bist_ok is False:
                raise AssertionError("BIST transport identity failed")

            table.add(
                len(nl), len(faults), f"{serial_s:.2f}",
                f"{cold[('pickle', SHARDS)]:.2f}",
                f"{cold[('shm', SHARDS)]:.2f}",
                f"{warm['pickle']:.2f}", f"{warm['shm']:.2f}",
                sizes["pickle"]["payload_bytes_per_shard"],
                sizes["shm"]["payload_bytes_per_shard"],
                f"{reduction:.0f}x", identical,
            )
            records.append({
                "design": nl.name,
                "gates": len(nl),
                "fault_universe": len(universe),
                "faults": len(faults),
                "cycles": cycles,
                "serial_s": round(serial_s, 3),
                "pickle": {
                    "cold2_s": round(cold[("pickle", 2)], 3),
                    "cold4_s": round(cold[("pickle", SHARDS)], 3),
                    "warm4_s": round(warm["pickle"], 3),
                    **sizes["pickle"],
                },
                "shm": {
                    "cold2_s": round(cold[("shm", 2)], 3),
                    "cold4_s": round(cold[("shm", SHARDS)], 3),
                    "warm4_s": round(warm["shm"], 3),
                    **sizes["shm"],
                },
                "payload_reduction_per_shard": round(reduction, 1),
                "cold4_speedup_vs_pickle": round(
                    cold[("pickle", SHARDS)] / cold[("shm", SHARDS)], 2),
                "warm4_speedup_vs_pickle": round(
                    warm["pickle"] / warm["shm"], 2),
                "identical": identical,
                **({"bist_identical": bist_ok}
                   if bist_ok is not None else {}),
            })
    finally:
        if saved_env is None:
            os.environ.pop(shm.TRANSPORT_ENV, None)
        else:
            os.environ[shm.TRANSPORT_ENV] = saved_env
    bench_seconds = time.perf_counter() - t_bench
    table.notes.append(
        "B/shard = pickled bytes of one shard's args (whole netlist + "
        "patterns + fault chunk under pickle; digests + segment refs "
        "under shm); warm rows reuse one persistent pool so shm pays "
        "neither ship nor unpickle nor recompile"
    )
    table.records = records
    table.reduction_10k = records[0]["payload_reduction_per_shard"]
    table.warm_speedup_largest = records[-1]["warm4_speedup_vs_pickle"]
    if root_json:
        ROOT_JSON.write_text(json.dumps({
            "experiment": "PERF-shard-dispatch",
            "nproc": os.cpu_count(),
            "shards": SHARDS,
            "cases": records,
            "payload_reduction_10k": records[0][
                "payload_reduction_per_shard"],
            "warm_speedup_largest": records[-1][
                "warm4_speedup_vs_pickle"],
            "bench_seconds": round(bench_seconds, 2),
        }, indent=2) + "\n")
    return table


def test_shard_dispatch(benchmark):
    import pytest

    if not shm.shm_available():
        pytest.skip("no usable shared memory here")
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for row in table.rows:
        assert row[-1], row  # byte-identical on every case
    assert table.reduction_10k >= 5.0, table.reduction_10k
    table.emit()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="one reduced case (CI identity gate)")
    args = parser.parse_args()
    if args.smoke:
        # Print only: don't overwrite the committed full-sweep results.
        print(run_experiment(SMOKE_CASES, root_json=False).render())
    else:
        run_experiment().emit()
