"""``repro.flow`` -- a cached, parallel flow engine for synthesis→test
pipelines (survey-wide orchestration).

Every experiment in this repository is the same shape of pipeline --
CDFG → schedule/bind → data path → DFT transform → gate-level expand →
fault-sim/ATPG → coverage -- so the engine models them uniformly:

* :class:`Stage` -- a pure function ``(inputs) -> artifacts`` with a
  code-version, params, optional timeout/retry policy;
* :class:`Flow` -- a DAG of stages wired by named artifacts;
* :class:`Runner` -- executes flows serially or across a process pool
  (``jobs``), with content-addressed caching under ``.flowcache/`` and
  per-stage metrics (:class:`FlowMetrics`).

Canonical flow definitions for the library's pipelines live in
:mod:`repro.flow.flows`; ``python -m repro.flow run <flow>`` drives
them from the command line.
"""

from repro.flow.cache import FlowCache, stage_key, value_digest
from repro.flow.chaos import ChaosError
from repro.flow.graph import Flow, FlowDefinitionError
from repro.flow.metrics import FlowMetrics, StageMetric, record_metric
from repro.flow.resilience import backoff_seconds, run_sharded
from repro.flow.runner import (
    FlowError,
    FlowResult,
    Runner,
    Unavailable,
    is_unavailable,
)
from repro.flow.shm import shard_map
from repro.flow.stage import Stage

__all__ = [
    "ChaosError",
    "Flow",
    "FlowCache",
    "FlowDefinitionError",
    "FlowError",
    "FlowMetrics",
    "FlowResult",
    "Runner",
    "Stage",
    "StageMetric",
    "Unavailable",
    "backoff_seconds",
    "is_unavailable",
    "record_metric",
    "run_sharded",
    "shard_map",
    "stage_key",
    "value_digest",
]
