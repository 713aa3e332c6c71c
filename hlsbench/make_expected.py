"""Regenerate the committed reference outputs in ``expected/``.

Every output comes from the reference engines, never from the code a
run measures: the fault-simulation interpreter
(``REPRO_FAULTSIM_BACKEND=interp``) and reference PODEM
(``REPRO_ATPG_BACKEND=reference``)::

    python3 hlsbench/make_expected.py                 # all workloads
    python3 hlsbench/make_expected.py --only serve_mix --jobs 2
    python3 hlsbench/make_expected.py --tiny --out DIR  # smoke sizes

The full set takes about half an hour on two cores (the interpreter
needs ~20 s per 2,000-gate design).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402
import inputs  # noqa: E402

REFERENCE_KNOBS = {
    "REPRO_FAULTSIM_BACKEND": "interp",
    "REPRO_ATPG_BACKEND": "reference",
}


def _reference_process() -> None:
    common.use_program()
    os.environ.update(REFERENCE_KNOBS)


def _fs_one(args):
    index, sizes = args
    from repro.gatelevel.fault_sim import fault_simulate_cycles

    nl, faults, pats = inputs.fs_design(index, sizes)
    res = fault_simulate_cycles(nl, faults, pats, shards=1)
    return str(index), {"faults": len(faults),
                        "detected": sum(c is not None
                                        for c in res.values()),
                        "digest": common.cycles_digest(faults, res)}


def _job_one(args):
    flow, params = args
    from repro.flow.cli import render_artifacts
    from repro.flow.flows import get_flow
    from repro.flow.runner import Runner

    result = Runner(cache=None).run(get_flow(flow, **params))
    if not result.ok:
        raise RuntimeError(f"{flow} {params} failed")
    return inputs.job_key(flow, params), common.sha(
        render_artifacts(result))


def _map(fn, items, jobs):
    ctx = get_context("spawn")
    with ProcessPoolExecutor(jobs, mp_context=ctx,
                             initializer=_reference_process) as pool:
        return dict(pool.map(fn, items, chunksize=1))


def dmachine(sizes: inputs.Sizes) -> dict:
    argv = inputs.dmachine_argv(sizes)
    env = common.clean_env({**REFERENCE_KNOBS,
                            "REPRO_FLOWCACHE": str(common.OUT / "ref")})
    out = subprocess.run(
        [sys.executable, "-m", "repro.flow", *argv], env=env,
        cwd=common.ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return {"argv": argv, "lines": common.dmachine_lines(out)}


def faultsim(sizes: inputs.Sizes, jobs: int) -> dict:
    designs = _map(_fs_one, [(i, sizes) for i in range(sizes.fs_pool)],
                   jobs)
    return {"gates": sizes.fs_gates, "cycles": sizes.fs_cycles,
            "designs": dict(sorted(designs.items(),
                                   key=lambda kv: int(kv[0])))}


def serve(sizes: inputs.Sizes, jobs: int) -> dict:
    specs = [("coverage", p) for p in inputs.coverage_pool(sizes)]
    specs += [("report", p) for p in inputs.report_pool(sizes)]
    return dict(sorted(_map(_job_one, specs, jobs).items()))


def generate(sizes: inputs.Sizes, out: pathlib.Path, only=None,
             jobs: int = 1) -> None:
    makers = {
        "dmachine_cli": lambda: dmachine(sizes),
        "faultsim_serial": lambda: faultsim(sizes, jobs),
        "serve_mix": lambda: serve(sizes, jobs),
    }
    for name, make in makers.items():
        if only is None or name in only:
            common.write_json(out / f"{name}.json", make())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", action="append", default=None,
                        choices=["dmachine_cli", "faultsim_serial",
                                 "serve_mix"])
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", default=str(common.EXPECTED))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    generate(inputs.TINY if args.tiny else inputs.FULL,
             pathlib.Path(args.out), args.only, args.jobs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
