"""The worker-pool model: bounded slots, stragglers, failures, placement.

A :class:`WorkerPool` is a set of FIFO worker slots.  A chunk copy placed on
a worker queues behind whatever the worker is already running — the pipeline
executors model each worker as one FIFO station, exactly like the cluster
substrates' servers.  Per-copy service time is the chunk size scaled by
``seconds_per_unit`` and inflated by a truncated-Pareto straggler multiplier
(:func:`service_times` — the ubiquitous heavy-tailed-machine model), and
seeded worker failures fold crash/restart cycles into the copy's busy time
at dispatch (:func:`attempt_service`), preserving the FIFO property that a
copy's completion is known the moment it enters service.

Determinism note: the straggler multiplier is computed with ``np.power`` on
the drawn uniforms in *both* the scalar (event-driven) and batched (fast
path) consumers.  NumPy's ufunc produces bit-identical results for scalar
and array operands, which Python's ``**`` does not guarantee — this is what
keeps the two execution paths byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import _ckernels
from repro.exceptions import ConfigurationError

__all__ = ["WorkerPool", "service_times", "attempt_service", "draw_placements"]

#: Upper bound on the straggler multiplier, mirroring the chunk-size cap:
#: far beyond any quantile a run can reach, but it keeps a single 2^-53-edge
#: uniform from producing a physically meaningless service time.
STRAGGLER_TAIL_CAP = 1e6

#: ``Generator.choice(n, k, replace=False)`` always runs Floyd's algorithm
#: for pools up to this size; above it, large samples take a different path.
_FLOYD_MAX_POOL = 10_000


@dataclass(frozen=True)
class WorkerPool:
    """A homogeneous pool of FIFO worker slots.

    Attributes:
        num_workers: Number of worker slots (>= 1).
        seconds_per_unit: Base seconds of service per unit of chunk size.
        straggler_alpha: Pareto tail index of the per-copy straggler
            multiplier (> 0); smaller means heavier machine-skew tails.
        fail_probability: Per-attempt probability that the worker crashes
            partway through a copy (in [0, 1)); each crash loses a uniform
            fraction of the copy's service and adds ``restart_s`` before the
            retry, all folded into the copy's busy time.
        restart_s: Worker restart delay after a crash (>= 0).
    """

    num_workers: int
    seconds_per_unit: float = 1.0
    straggler_alpha: float = 2.0
    fail_probability: float = 0.0
    restart_s: float = 1.0

    def __post_init__(self) -> None:
        if self.num_workers < 1 or int(self.num_workers) != self.num_workers:
            raise ConfigurationError(
                f"num_workers must be a positive integer, got {self.num_workers!r}"
            )
        if self.seconds_per_unit <= 0:
            raise ConfigurationError(
                f"seconds_per_unit must be positive, got {self.seconds_per_unit!r}"
            )
        if self.straggler_alpha <= 0:
            raise ConfigurationError(
                f"straggler_alpha must be positive, got {self.straggler_alpha!r}"
            )
        if not 0.0 <= self.fail_probability < 1.0:
            raise ConfigurationError(
                f"fail_probability must be in [0, 1), got {self.fail_probability!r}"
            )
        if self.restart_s < 0:
            raise ConfigurationError(
                f"restart_s must be >= 0, got {self.restart_s!r}"
            )


def service_times(sizes, uniforms, pool: WorkerPool):
    """Failure-free service seconds for chunk sizes and their uniforms.

    Works elementwise on scalars or arrays; the batched fast path and the
    scalar event path share this exact expression (see the module docstring
    for why that matters).

    Args:
        sizes: Chunk size(s) in work units.
        uniforms: Uniform draw(s) in [0, 1), one per copy.
        pool: The worker pool supplying the scale and tail index.
    """
    multiplier = np.minimum(
        np.power(1.0 - uniforms, -1.0 / pool.straggler_alpha), STRAGGLER_TAIL_CAP
    )
    return (sizes * pool.seconds_per_unit) * multiplier


def attempt_service(size: float, pool: WorkerPool, rng: np.random.Generator) -> float:
    """Busy seconds one copy occupies its worker, crash/restart cycles included.

    Draws the copy's straggler uniform, then — only when the pool can fail —
    repeatedly flips the crash coin: each crash loses a uniform fraction of
    the copy's service and costs ``restart_s`` of restart before the retry.
    When ``fail_probability`` is zero no failure draws are consumed at all,
    which keeps the substream aligned with the fast path's batched draws.

    Args:
        size: Chunk size in work units.
        pool: The worker pool (scale, tail index, failure model).
        rng: The stage's service substream, consumed in dispatch order.
    """
    service = float(service_times(size, float(rng.random()), pool))
    busy = service
    if pool.fail_probability > 0.0:
        while float(rng.random()) < pool.fail_probability:
            lost = float(rng.random()) * service
            busy = busy + (lost + pool.restart_s)
    return busy


def draw_placements(
    num_chunks: int, copies: int, num_workers: int, rng: np.random.Generator
) -> np.ndarray:
    """Assign each chunk's copies to ``copies`` distinct workers.

    Drawn up front (before any simulation event) so placement is identical
    under the event-driven and fast paths, which consume it in different
    orders.  Row ``i`` is the ``i``-th of ``num_chunks`` successive
    ``rng.choice(num_workers, size=copies, replace=False)`` draws.  When the
    compiled kernels load (:mod:`repro.cluster._ckernels`) and the pool has
    at most 10,000 workers, one C call makes every draw, as a port of
    numpy's own algorithm for such pools (Floyd's algorithm, then a shuffle)
    drawing through numpy's bounded-integer sampler, so the rows and the
    generator's state afterwards are identical.  Larger pools, where numpy
    may switch algorithms, and ``REPRO_CKERNELS=0`` call ``rng.choice`` per
    chunk.

    Args:
        num_chunks: Number of chunks in the stage.
        copies: Copies per chunk (each on a distinct worker).
        num_workers: Pool size; must be >= ``copies``.
        rng: The stage's placement substream.

    Returns:
        ``(num_chunks, copies)`` array of worker indices.
    """
    if copies > num_workers:
        raise ConfigurationError(
            f"cannot place {copies} distinct copies on {num_workers} worker(s); "
            "the policy's copy count exceeds the pool size"
        )
    placements = np.empty((num_chunks, copies), dtype=np.int64)
    # Anything but an integer pool size is left to rng.choice to reject.
    integral = isinstance(num_workers, (int, np.integer))
    lib = _ckernels.load() if integral and num_workers <= _FLOYD_MAX_POOL else None
    if lib is not None:
        # numpy's hash set: the smallest power of two above int(1.2 * copies).
        hash_set = np.empty(1 << int(1.2 * copies).bit_length(), dtype=np.uint64)
        bit_generator = rng.bit_generator
        # ctypes releases the GIL: hold the generator's lock, as numpy does.
        with bit_generator.lock:
            lib.distinct_choices(
                bit_generator.ctypes.bit_generator,
                lib.bounded_uint64,
                num_workers,
                copies,
                num_chunks,
                hash_set.ctypes.data,
                hash_set.size - 1,
                placements.ctypes.data,
            )
        return placements
    for chunk in range(num_chunks):
        placements[chunk] = rng.choice(num_workers, size=copies, replace=False)
    return placements
