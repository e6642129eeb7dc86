"""Redundant job pipelines: straggler-hedged fan-out/fan-in (sixth substrate).

The paper hedges individual RPCs; this package applies the identical
cost/benefit math to duplicate *task* dispatch in a worker fleet, where job
completion time is a max over chunk completions (the fan-in), so one
straggling chunk holds the whole job hostage and tails compound far worse
than for independent requests.

The pieces, bottom up:

* :mod:`repro.pipeline.job` — jobs split into chunks with seeded
  heavy-tailed sizes; multi-stage chains whose shuffle edges scale the work
  entering the next stage.
* :mod:`repro.pipeline.workers` — the FIFO worker pool: straggler
  multipliers, seeded crash/restart cycles, distinct-worker placement.
* :mod:`repro.pipeline.mitigator` — per-stage
  :class:`~repro.core.policy.ReplicationPolicy` instances applying any
  policy spec per chunk, with completion-ordered latency feedback.
* :mod:`repro.pipeline.executor` / :mod:`repro.pipeline.fastpath` — the
  event-driven engine (any policy, failures, cancel-on-win) and the
  closed-form vectorised path (eager, failure-free), byte-identical; a run
  takes the fast path whenever its plan is eligible.
* :mod:`repro.pipeline.result` / :mod:`repro.pipeline.experiment` — shared
  accounting (job completion percentiles, per-stage makespans, wasted-work
  fraction) and the run loop tying it together.
"""

from repro.pipeline.experiment import PipelineConfig, PipelineExperiment
from repro.pipeline.job import JobSpec, StageSpec, partition_chunks, stage_workloads
from repro.pipeline.mitigator import StragglerMitigator
from repro.pipeline.result import PipelineRunResult, StageOutcome, stage_accounting
from repro.pipeline.workers import WorkerPool, draw_placements

__all__ = [
    "JobSpec",
    "StageSpec",
    "partition_chunks",
    "stage_workloads",
    "WorkerPool",
    "draw_placements",
    "StragglerMitigator",
    "PipelineConfig",
    "PipelineExperiment",
    "PipelineRunResult",
    "StageOutcome",
    "stage_accounting",
]
