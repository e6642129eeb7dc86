"""The pipeline experiment: jobs through stages, policies, and both paths.

:class:`PipelineExperiment` runs ``num_jobs`` independent jobs of one
:class:`~repro.pipeline.job.JobSpec` through a
:class:`~repro.pipeline.workers.WorkerPool`, applying one policy spec per
chunk via the :class:`~repro.pipeline.mitigator.StragglerMitigator`, and
aggregates a :class:`~repro.pipeline.result.PipelineRunResult`.

Execution-path selection lives here: a run takes the closed-form fast path
when the mitigator judges it eligible (eager, non-cancelling policies on a
pool whose workers cannot fail) and the event engine otherwise.  Whatever
path runs, every random draw comes from ``substream(seed, "pipeline",
purpose, job, stage)`` — sizes, placement and service streams per (job,
stage) — and all reductions go through the shared accounting in
:mod:`repro.pipeline.result`, so the two paths produce bit-identical results
and artifacts are pure functions of the configuration.

Modelling notes (deliberate simplifications, shared by both paths):

* Stages are barrier-synchronised: every chunk of stage ``s+1`` arrives at
  stage ``s``'s last chunk completion.  Worker queues are empty at each
  barrier — losing eager copies still running then have their busy time
  charged to wasted work but do not delay the next stage.
* A job runs on an otherwise idle pool; jobs are independent replications
  (the sweep's sample set), not concurrent tenants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policy import PolicyLike
from repro.exceptions import ConfigurationError
from repro.metrics import MetricsRegistry
from repro.pipeline.executor import run_stage_event
from repro.pipeline.fastpath import run_stage_fast
from repro.pipeline.job import JobSpec, partition_chunks
from repro.pipeline.mitigator import StragglerMitigator
from repro.pipeline.result import PipelineRunResult, stage_accounting
from repro.pipeline.workers import WorkerPool, draw_placements
from repro.sim.rng import substream

__all__ = ["PipelineConfig", "PipelineExperiment"]


@dataclass(frozen=True)
class PipelineConfig:
    """One pipeline run: the job shape, the pool, the policy and the seed.

    Attributes:
        job: The stage chain every job instance flows through.
        pool: The worker pool executing chunk copies.
        policy: Straggler-mitigation policy spec applied per chunk.
        num_jobs: Independent job instances to run (the sample count).
        seed: Base seed; all randomness derives from it via substreams.
    """

    job: JobSpec
    pool: WorkerPool
    policy: PolicyLike = "none"
    num_jobs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ConfigurationError(
                f"num_jobs must be >= 1, got {self.num_jobs!r}"
            )


class PipelineExperiment:
    """Runs redundant job pipelines and measures completion time vs waste."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.mitigator = StragglerMitigator(config.policy, config.job.num_stages)
        for stage_index in range(config.job.num_stages):
            if self.mitigator.max_copies(stage_index) > config.pool.num_workers:
                raise ConfigurationError(
                    f"policy {self.mitigator.spec!r} places "
                    f"{self.mitigator.max_copies(stage_index)} copies per chunk "
                    f"but the pool has only {config.pool.num_workers} worker(s)"
                )

    def run(self) -> PipelineRunResult:
        """Run every job and aggregate the result.

        The closed-form fast path runs the stages when
        :meth:`StragglerMitigator.fastpath_eligible` allows it; the event
        engine runs them otherwise.  The result's ``path`` names which ran.
        """
        config = self.config
        job, pool = config.job, config.pool
        chosen = "fast" if self.mitigator.fastpath_eligible(pool) else "event"
        registry = MetricsRegistry("pipeline")
        num_jobs, num_stages = config.num_jobs, job.num_stages
        job_completion = np.empty(num_jobs)
        stage_makespans = np.empty((num_jobs, num_stages))
        useful_s = 0.0
        wasted_s = 0.0
        launched = 0
        cancelled = 0
        chunks = 0
        for job_index in range(num_jobs):
            barrier = 0.0
            work_units = float(job.total_work)
            for stage_index, stage in enumerate(job.stages):
                sizes = partition_chunks(
                    work_units,
                    stage.num_chunks,
                    stage.size_alpha,
                    substream(config.seed, "pipeline", "sizes", job_index, stage_index),
                )
                placements = draw_placements(
                    stage.num_chunks,
                    self.mitigator.max_copies(stage_index),
                    pool.num_workers,
                    substream(
                        config.seed, "pipeline", "placement", job_index, stage_index
                    ),
                )
                service_rng = substream(
                    config.seed, "pipeline", "service", job_index, stage_index
                )
                if chosen == "fast":
                    outcome = run_stage_fast(
                        sizes, placements, pool, service_rng, barrier
                    )
                else:
                    outcome = run_stage_event(
                        sizes,
                        placements,
                        self.mitigator.policy_for(stage_index),
                        pool,
                        service_rng,
                        barrier,
                    )
                registry.recorder(f"stage{stage_index}_chunk_latency").record_many(
                    outcome.finish_at - barrier
                )
                self.mitigator.observe(stage_index, outcome.finish_at, barrier)
                stage_useful, stage_wasted = stage_accounting(outcome)
                useful_s += stage_useful
                wasted_s += stage_wasted
                launched += outcome.launched
                cancelled += outcome.cancelled
                chunks += stage.num_chunks
                next_barrier = float(np.max(outcome.finish_at))
                stage_makespans[job_index, stage_index] = next_barrier - barrier
                barrier = next_barrier
                work_units = work_units * stage.output_ratio
            job_completion[job_index] = barrier
        registry.counter("jobs").increment(num_jobs)
        registry.counter("chunks").increment(chunks)
        registry.counter("copies_launched").increment(launched)
        registry.counter("copies_cancelled").increment(cancelled)
        registry.recorder("job_completion").record_many(job_completion)
        return PipelineRunResult(
            policy=self.mitigator.spec,
            path=chosen,
            job_completion_s=job_completion,
            stage_makespan_s=stage_makespans,
            useful_work_s=useful_s,
            wasted_work_s=wasted_s,
            copies_launched=launched,
            copies_cancelled=cancelled,
            chunks=chunks,
            metrics=registry.snapshot(),
        )
