"""Seeded workload inputs, shared by the benchmark and the generator
of its reference outputs.

The program under test receives only what these functions build from
the workload seed.  Reference outputs exist for a fixed pool of inputs
per workload (``expected/*.json``); a seed picks an order over that
pool, so any seed is valid and two seeds run different inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sizes:
    """Every size a workload uses.  ``FULL`` is what the benchmark
    measures; ``TINY`` drives the smoke test in seconds."""

    #: ``python -m repro.flow run dmachine`` parameters (empty: defaults)
    dmachine_params: tuple[tuple[str, int], ...]
    fs_pool: int
    fs_gates: int
    fs_cycles: int
    cov_gates: tuple[int, ...]
    cov_per_size: int
    report_designs: tuple[str, ...]
    report_slacks: tuple[float, ...]
    report_widths: tuple[int, ...]
    burst: int


FULL = Sizes(
    dmachine_params=(),
    fs_pool=40,
    fs_gates=2000,
    fs_cycles=8,
    cov_gates=(150, 300),
    cov_per_size=300,
    report_designs=(
        "ar4", "ar6", "dct4", "diffeq", "diffeq_loop", "ewf", "figure1",
        "fir8", "gcd", "iir2", "iir3", "matmul2", "tseng",
    ),
    report_slacks=(1.0, 1.25, 1.5, 1.75, 2.0, 2.5),
    report_widths=(4, 8, 16),
    burst=8,
)

TINY = Sizes(
    dmachine_params=(("width", 4), ("nregs", 4), ("ram_words", 8),
                     ("n_faults", 40), ("patterns", 64),
                     ("bist_cycles", 16)),
    fs_pool=4,
    fs_gates=120,
    fs_cycles=2,
    cov_gates=(40,),
    cov_per_size=12,
    report_designs=("figure1", "diffeq"),
    report_slacks=(1.5,),
    report_widths=(4,),
    burst=4,
)

#: genscale shape of the fault-simulation designs: technology-mapper
#: buffer/inverter chains (what collapsing eats) and a 32-bit MISR.
FS_BUF_RATIO = 0.55
FS_SIGNATURE_BITS = 32
FS_SEED_BASE = 1000

#: one block of the serve mix: 11 coverage, 6 report and 3 repeated
#: jobs (55/30/15%), shuffled.  Fixed blocks keep every run's bursts
#: alike, so a seed changes which designs run, not how much work.
MIX_BLOCK = ("coverage",) * 11 + ("report",) * 6 + ("repeat",) * 3
TENANTS = ("t0", "t1", "t2")
CALLERS = 2


def dmachine_argv(sizes: Sizes) -> list[str]:
    """The CLI arguments of one ``dmachine_cli`` operation."""
    argv = ["run", "dmachine", "--no-cache"]
    for key, value in sizes.dmachine_params:
        argv += ["--param", f"{key}={value}"]
    return argv


def fs_order(seed: int, sizes: Sizes) -> list[int]:
    """The pool indices a ``faultsim_serial`` run visits, in order."""
    order = list(range(sizes.fs_pool))
    random.Random(f"faultsim_serial:{seed}").shuffle(order)
    return order


def fs_design(index: int, sizes: Sizes):
    """Pool design ``index``: the netlist, its full fault universe and
    its ``fs_cycles`` x 64 random patterns."""
    from repro.gatelevel import genscale
    from repro.gatelevel.faults import all_faults

    seed = FS_SEED_BASE + index
    nl = genscale.generate_netlist(
        sizes.fs_gates, seed=seed, signature_bits=FS_SIGNATURE_BITS,
        buf_ratio=FS_BUF_RATIO,
    )
    return nl, all_faults(nl), genscale.random_patterns(
        nl, sizes.fs_cycles, seed=seed)


def coverage_pool(sizes: Sizes) -> list[dict]:
    return [{"design": f"gs:{g}:{k}"}
            for g in sizes.cov_gates
            for k in range(1, sizes.cov_per_size + 1)]


def report_pool(sizes: Sizes) -> list[dict]:
    return [{"design": d, "slack": s, "width": w}
            for d in sizes.report_designs
            for s in sizes.report_slacks
            for w in sizes.report_widths]


def job_key(flow: str, params: dict) -> str:
    """The reference-output key of one served job."""
    return json.dumps([flow, params], sort_keys=True)


def serve_stream(seed: int, caller: int, sizes: Sizes):
    """Endless ``(tenant, flow, params)`` jobs for one caller.

    Coverage and report specs are drawn without replacement from
    seed-permuted pools, split between the callers, so a run sees
    distinct designs until a pool wraps.  Exact repeats re-send one of
    the caller's last 16 jobs: within a burst they dedupe against the
    in-flight original, later ones read the warm cache.
    """
    rng = random.Random(f"serve_mix:{seed}:{caller}")

    def cycle(pool, tag):
        order = list(pool)
        random.Random(f"serve_mix:{seed}:{tag}").shuffle(order)
        mine = order[caller::CALLERS]
        while True:
            yield from mine

    covs = cycle(coverage_pool(sizes), "coverage")
    reports = cycle(report_pool(sizes), "report")
    history: list[tuple[str, dict]] = []
    while True:
        block = list(MIX_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "repeat" and history:
                flow, params = rng.choice(history[-16:])
            elif kind == "report":
                flow, params = "report", next(reports)
            else:
                flow, params = "coverage", next(covs)
            history.append((flow, params))
            yield rng.choice(TENANTS), flow, dict(params)
