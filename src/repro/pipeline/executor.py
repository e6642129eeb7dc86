"""The event-driven stage executor: any policy, failures, cancel-on-win.

One stage execution is one call into the FIFO hedging engine
(:func:`repro.core.cancellation.simulate_cancelling_arrivals`): every chunk
"arrives" at the stage's barrier time, its copies queue at their placed
workers (FIFO stations), hedged backups fire only for chunks still pending,
and — when the policy says so — a win withdraws the chunk's still-queued
duplicate copies from their workers.  The engine's ``on_copy_resolved`` hook
fills the per-copy completion/busy-seconds arrays that
:func:`repro.pipeline.result.stage_accounting` turns into wasted-work
figures.

Service times are drawn inside the dispatch callback, in event order — for
eager plans that is chunk-major copy-minor, exactly the order the fast
path's batched draw replays.
"""

from __future__ import annotations

import numpy as np

from repro.core.cancellation import simulate_cancelling_arrivals
from repro.core.policy import ReplicationPolicy
from repro.pipeline.result import StageOutcome
from repro.pipeline.workers import WorkerPool, attempt_service

__all__ = ["run_stage_event"]


def run_stage_event(
    sizes: np.ndarray,
    placements: np.ndarray,
    policy: ReplicationPolicy,
    pool: WorkerPool,
    rng: np.random.Generator,
    start_at: float,
) -> StageOutcome:
    """Execute one stage through the cancellable event engine.

    Args:
        sizes: ``(num_chunks,)`` chunk sizes in work units.
        placements: ``(num_chunks, copies)`` worker index per copy.
        policy: The stage's straggler-mitigation policy (shared across the
            run's jobs, so adaptive hedges keep their observed window).
        pool: The worker pool (service scale, stragglers, failures).
        rng: The stage's service substream, consumed in dispatch order.
        start_at: The stage's barrier time; every chunk arrives then.
    """
    num_chunks, max_copies = placements.shape
    copy_finish = np.full((num_chunks, max_copies), np.inf)
    work = np.zeros((num_chunks, max_copies))

    def server_of(request: int, copy: int) -> int:
        return int(placements[request, copy])

    def begin(request: int, copy: int, at: float):
        return ("service", attempt_service(float(sizes[request]), pool, rng), 0.0)

    def on_copy_resolved(
        request: int, copy: int, outcome: str, work_s: float, finish_s: float
    ) -> None:
        if outcome == "finished":
            copy_finish[request, copy] = finish_s
            work[request, copy] = work_s

    arrivals = np.full(num_chunks, float(start_at))
    finish_at, launched, cancelled = simulate_cancelling_arrivals(
        policy,
        arrivals,
        max_copies=max_copies,
        server_of=server_of,
        begin=begin,
        on_copy_resolved=on_copy_resolved,
    )
    return StageOutcome(
        finish_at=finish_at,
        copy_finish=copy_finish,
        work=work,
        launched=int(np.sum(launched)),
        cancelled=0 if cancelled is None else int(np.sum(cancelled)),
    )
