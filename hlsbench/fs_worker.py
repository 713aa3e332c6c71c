"""One ``faultsim_serial`` process: builds pool designs and fault
simulates each one serially, reporting one JSON line per operation.

Started by ``run.py``; not meant to be run by hand.  The first line,
``{"ready": t}``, marks the end of set-up (imports, the first design
built); ``t`` is ``time.monotonic()``, which every process on the host
shares.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402
import inputs  # noqa: E402


def emit(**payload) -> None:
    print(json.dumps(payload), flush=True)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--indices", required=True)
    p.add_argument("--first-op", type=int, default=0)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--min-ops", type=int, default=1)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--expected", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--shard-check", action="store_true")
    args = p.parse_args()
    common.use_program()
    sizes = inputs.TINY if args.tiny else inputs.FULL
    expected = json.loads(pathlib.Path(args.expected).read_text())
    indices = [int(i) for i in args.indices.split(",")]

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    from repro.gatelevel.fault_sim import fault_simulate_cycles

    def op_counts(op):
        if tracer is None:
            return None
        spans = [s for s in tracer.spans if s[3] == op]
        return tracing.exact_counts(tracing.SpanIndex(spans))

    def build(index, op):
        if tracer is not None:
            tracer.op = op
        t0 = time.monotonic()
        design = inputs.fs_design(index, sizes)
        return design, time.monotonic() - t0

    def check(index, faults, res) -> bool:
        want = expected["designs"][str(index)]["digest"]
        return common.cycles_digest(faults, res) == want

    try:
        if args.shard_check:
            shard_check(indices[0], args, build, check, op_counts,
                        fault_simulate_cycles)
            return 0
        design, build_s = build(indices[0], args.first_op)
        emit(ready=time.monotonic())
        t_ready = time.monotonic()
        for n, index in enumerate(indices):
            op = args.first_op + n
            if n:
                if (time.monotonic() - t_ready >= args.budget
                        and n >= args.min_ops):
                    break
                design, build_s = build(index, op)
            nl, faults, pats = design
            t0 = time.monotonic()
            res = fault_simulate_cycles(nl, faults, pats, shards=1)
            seconds = time.monotonic() - t0
            emit(op=op, index=index, seconds=seconds, build_s=build_s,
                 ok=check(index, faults, res), counts=op_counts(op))
    finally:
        if tracer is not None:
            pathlib.Path(args.spans).write_text(
                json.dumps(tracer.dump()))
    return 0


def shard_check(index, args, build, check, op_counts, simulate) -> None:
    """The traced run's extra pass: re-run operation 0's design serially
    (its exact counts must equal op 0's), then time ``shards=2``
    against ``shards=1``, each on a freshly built copy of the design
    (structure analysis warm, compile cold in both)."""
    (nl, faults, pats), _ = build(index, "gate")
    ref = simulate(nl, faults, pats, shards=1)
    times, same = {}, True
    for shards, tag in ((2, "shard2"), (1, "shard1")):
        (nl, faults, pats), _ = build(index, tag)
        t0 = time.monotonic()
        res = simulate(nl, faults, pats, shards=shards)
        times[shards] = time.monotonic() - t0
        same &= res == ref and list(res) == list(ref)
    emit(gate_counts=op_counts("gate"), ok=check(index, faults, ref),
         identical=same, serial_s=times[1], two_shard_s=times[2])


if __name__ == "__main__":
    raise SystemExit(main())
