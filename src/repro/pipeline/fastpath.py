"""The vectorised fast path: closed-form stage execution for eager plans.

When every copy launches immediately, never cancels, and workers cannot
fail, a stage's outcome is a closed form: all ``num_chunks * copies``
dispatches happen at the barrier, in chunk-major copy-minor order, so each
worker's queue content — and hence, by the FIFO busy-period recursion, every
copy's completion — is known without an event loop.  This path batches the
whole stage's straggler uniforms in one draw (bit-identical to the event
path's per-dispatch scalar draws from the same substream) and runs the
pinned :func:`repro.cluster.draws.sequential_finish_times` recursion per
worker, so its :class:`~repro.pipeline.result.StageOutcome` matches the
event executor's bit for bit.  ``tests/test_pipeline.py`` holds the two
paths to identical results by forcing eligible plans onto the event engine.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.draws import sequential_finish_times
from repro.pipeline.result import StageOutcome
from repro.pipeline.workers import WorkerPool, service_times

__all__ = ["run_stage_fast"]


def run_stage_fast(
    sizes: np.ndarray,
    placements: np.ndarray,
    pool: WorkerPool,
    rng: np.random.Generator,
    start_at: float,
) -> StageOutcome:
    """Execute one eager, failure-free stage in closed form.

    Args:
        sizes: ``(num_chunks,)`` chunk sizes in work units.
        placements: ``(num_chunks, copies)`` worker index per copy.
        pool: The worker pool; ``fail_probability`` must be 0 (the caller
            guarantees eligibility — see
            :meth:`~repro.pipeline.mitigator.StragglerMitigator.fastpath_eligible`).
        rng: The stage's service substream; one batched draw replaces the
            event path's per-dispatch scalars.
        start_at: The stage's barrier time; every copy dispatches then.
    """
    num_chunks, copies = placements.shape
    uniforms = rng.random(num_chunks * copies)
    services = np.asarray(
        service_times(np.repeat(sizes, copies), uniforms, pool), dtype=float
    )
    stations = placements.reshape(-1)
    finish_flat = np.empty(num_chunks * copies)
    arrival = float(start_at)
    for worker in np.unique(stations):
        queued = np.flatnonzero(stations == worker)
        finish_flat[queued] = sequential_finish_times(
            np.full(queued.size, arrival), services[queued]
        )
    copy_finish = finish_flat.reshape(num_chunks, copies)
    return StageOutcome(
        finish_at=np.min(copy_finish, axis=1),
        copy_finish=copy_finish,
        work=services.reshape(num_chunks, copies),
        launched=num_chunks * copies,
        cancelled=0,
    )
