"""Job and stage models for the pipeline substrate.

A :class:`JobSpec` describes one data-parallel job as a chain of stages
(map -> shuffle barrier -> reduce): each :class:`StageSpec` splits the work
entering it into ``num_chunks`` chunks with seeded heavy-tailed sizes, and
its ``output_ratio`` scales the work handed to the next stage (a reduce
stage typically sees a fraction of the map output).  Chunk sizes come from
:func:`partition_chunks`, which draws a truncated Pareto split and then
normalises it so the chunks cover the stage's work *exactly* — the fan-in
barrier is a max over chunk completions, so a dropped remainder would
silently shrink the job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["StageSpec", "JobSpec", "partition_chunks", "stage_workloads"]

#: Upper bound on the raw Pareto draw of one chunk's relative size.  The cap
#: keeps the post-normalisation fix-up of the final chunk safely positive
#: (an uncapped draw near the 2^-53 edge of the uniform could dwarf the rest
#: of the split by more than float rounding can absorb) while leaving the
#: tail far heavier than any realistic skew.
SIZE_TAIL_CAP = 1e9


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a chunked fan-out ending at a shuffle barrier.

    Attributes:
        num_chunks: Number of chunks the stage's work is split into (>= 1).
        size_alpha: Pareto tail index of the chunk-size split (> 0); smaller
            means more skewed chunks.
        output_ratio: Work leaving the stage as a fraction of the work that
            entered it (> 0); feeds the next stage's chunk sizes.
    """

    num_chunks: int
    size_alpha: float = 1.6
    output_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.num_chunks < 1 or int(self.num_chunks) != self.num_chunks:
            raise ConfigurationError(
                f"num_chunks must be a positive integer, got {self.num_chunks!r}"
            )
        if self.size_alpha <= 0:
            raise ConfigurationError(
                f"size_alpha must be positive, got {self.size_alpha!r}"
            )
        if self.output_ratio <= 0:
            raise ConfigurationError(
                f"output_ratio must be positive, got {self.output_ratio!r}"
            )


@dataclass(frozen=True)
class JobSpec:
    """One job: total work plus the stage chain it flows through.

    Attributes:
        total_work: Work units entering the first stage (> 0).
        stages: The stage chain, in execution order (at least one stage).
    """

    total_work: float
    stages: Tuple[StageSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.total_work <= 0:
            raise ConfigurationError(
                f"total_work must be positive, got {self.total_work!r}"
            )
        if not self.stages:
            raise ConfigurationError("a job needs at least one stage")
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def num_stages(self) -> int:
        """Number of stages in the chain."""
        return len(self.stages)


def stage_workloads(job: JobSpec) -> Tuple[float, ...]:
    """Work units entering each stage of ``job``, in stage order.

    Stage 0 receives ``job.total_work``; stage ``s+1`` receives stage ``s``'s
    input scaled by its ``output_ratio`` — the DAG's shuffle edges.
    """
    loads = []
    work = float(job.total_work)
    for stage in job.stages:
        loads.append(work)
        work = work * stage.output_ratio
    return tuple(loads)


def partition_chunks(
    total_work: float, num_chunks: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Split ``total_work`` into ``num_chunks`` heavy-tailed chunk sizes.

    Draws one truncated-Pareto(``alpha``) relative size per chunk (inverse
    CDF of a single uniform each, so batched and scalar consumers of the
    same substream see identical draws), scales them to sum to
    ``total_work``, and then pins the final chunk to the exact remainder so
    coverage is exact: ``float(np.sum(sizes[:-1])) + sizes[-1] ==
    total_work`` holds bitwise. Where the rounded remainder would miss, the
    other chunks are first snapped to multiples of ulp(``total_work``),
    which moves each by at most half an ulp of the total.

    Args:
        total_work: Work units to split (> 0).
        num_chunks: Number of chunks (>= 1).
        alpha: Pareto tail index of the split (> 0).
        rng: Substream the relative sizes are drawn from.

    Returns:
        Array of ``num_chunks`` positive chunk sizes.
    """
    if total_work <= 0:
        raise ConfigurationError(f"total_work must be positive, got {total_work!r}")
    if num_chunks < 1:
        raise ConfigurationError(f"num_chunks must be >= 1, got {num_chunks!r}")
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha!r}")
    uniforms = rng.random(num_chunks)
    raw = np.minimum(np.power(1.0 - uniforms, -1.0 / alpha), SIZE_TAIL_CAP)
    total = float(total_work)
    sizes = raw * (total / float(np.sum(raw)))
    sizes[-1] = total - float(np.sum(sizes[:-1]))
    if float(np.sum(sizes[:-1])) + float(sizes[-1]) != total:
        # The remainder is rounded when the head sums to less than half the
        # total, and no float may then close the gap. Snap the head chunks to
        # multiples of ulp(total): every partial sum and the remainder are
        # then exact.
        quantum = float(np.spacing(total))
        sizes[:-1] = np.round(sizes[:-1] / quantum) * quantum
        sizes[-1] = total - float(np.sum(sizes[:-1]))
    return sizes
