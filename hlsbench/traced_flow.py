"""``python -m repro.flow`` with the benchmark's spans installed.

Started by ``run.py`` for traced ``dmachine_cli`` operations::

    python3 hlsbench/traced_flow.py SPANS_FILE OP -- run dmachine ...

Runs the flow CLI in this process exactly as ``python -m repro.flow``
would, then writes the spans to ``SPANS_FILE``.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    spans_file, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    common.use_program()
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.op = int(op)
    tracer.install()
    from repro.flow.cli import main as flow_main

    try:
        return flow_main(argv)
    finally:
        pathlib.Path(spans_file).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    raise SystemExit(main())
