"""Parallel, chunked, resumable scenario-sweep execution.

:class:`SweepRunner` expands a :class:`~repro.experiments.scenario.Scenario`
into its grid points, derives each point's RNG seed (a pure function of the
scenario seed, name and point parameters — see
:func:`~repro.experiments.scenario.point_seed`), and executes the points
either inline (``workers=1``) or on a ``ProcessPoolExecutor``.

Execution is *chunked*: points are submitted to the pool in bounded batches
(:data:`DEFAULT_CHUNK_SIZE`) rather than one grid-sized ``map`` call, and
when an output path is given every completed point is appended to the
streamed JSONL artifact (:mod:`repro.experiments.artifact`) in grid order.
That is what makes paper-scale grids practical — a killed run leaves the
completed prefix on disk, and ``resume=True`` (CLI ``--resume``) reloads it
and executes only the missing points, keyed by the substream-derived point
seed.  Because per-point seeds and the artifact encoding are both canonical,
the finished artifact is **byte-identical for any worker count, chunk
boundary or resume history**; the resume tests pin this down by diffing
killed-and-resumed runs against uninterrupted ones.

Two companions extend this to fleets of machines.  ``shard=(i, n)`` restricts
a run to the points whose derived seed lands in shard ``i`` of ``n``
(:mod:`repro.experiments.sharding`) — each machine streams its own ordinary
artifact, and ``merge`` recombines them byte-identically.  And every streamed
run writes a **timing sidecar** (``out + ".timing.jsonl"``,
:mod:`repro.experiments.timing`) recording each executed point's wall-clock
seconds, out-of-band so the canonical artifact never depends on the clock.

Points whose substrate rejects them as saturated (``CapacityError``) are
recorded as ``"infeasible"`` rather than aborting the sweep — that mirrors
how the paper's 2-copy curves stop short of full load.  Any other exception
propagates: a sweep that crashes should fail loudly, not produce a partial
artifact (the streaming artifact it leaves behind is still resumable).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import CapacityError, ConfigurationError
from repro.experiments.adapters import normalize_point_params, resolve_adapter
from repro.experiments.artifact import (
    ArtifactWriter,
    canonicalize,
    header_record,
    load_partial,
    validate_header,
)
from repro.experiments.results import (
    STATUS_INFEASIBLE,
    STATUS_OK,
    PointResult,
    SweepResult,
)
from repro.experiments.scenario import Scenario, point_seed
from repro.experiments.sharding import normalize_shard, shard_of, shard_stanza
from repro.experiments.timing import TimingWriter, timing_header, timing_sidecar_path

#: Points submitted to the pool per batch (floored at the worker count, so no
#: batch leaves workers idle by construction).  Small enough that a kill
#: loses at most one chunk of work, large enough that a pool of typical width
#: stays busy between batch boundaries.  It affects only pacing, never the
#: results.
DEFAULT_CHUNK_SIZE = 32

#: A unit of work shipped to a pool worker: (entry_point, params, seed, index).
_WorkItem = Tuple[str, Dict[str, Any], int, int]


def _execute_point(work: _WorkItem) -> Dict[str, Any]:
    """Run one sweep point; module-level so it pickles to pool workers.

    The returned dict is the canonical point record plus one transient key,
    ``"elapsed_s"`` — the adapter's wall-clock seconds.  The runner pops it
    into the timing sidecar before the record touches the artifact or a
    :class:`PointResult`, so canonical bytes never depend on the clock.
    """
    entry_point, params, seed, index = work
    adapter = resolve_adapter(entry_point)
    started = time.perf_counter()
    try:
        outcome = adapter(params, seed)
    except CapacityError as exc:
        return {
            "index": index,
            "params": params,
            "seed": seed,
            "status": STATUS_INFEASIBLE,
            "error": f"{type(exc).__name__}: {exc}",
            "summary": None,
            "metrics": None,
            "scalars": {},
            "elapsed_s": time.perf_counter() - started,
        }
    return {
        "index": index,
        "params": params,
        "seed": seed,
        "status": STATUS_OK,
        "error": None,
        "summary": outcome.get("summary"),
        "metrics": outcome.get("metrics"),
        "scalars": outcome.get("scalars", {}),
        "elapsed_s": time.perf_counter() - started,
    }


def _chunks(items: List[_WorkItem], size: int) -> List[List[_WorkItem]]:
    return [items[start : start + size] for start in range(0, len(items), size)]


class SweepRunner:
    """Expands a scenario and executes its points — parallel, chunked, resumable."""

    def __init__(self, workers: int = 1) -> None:
        """Create a runner.

        Args:
            workers: Number of worker processes; ``1`` runs every point inline
                in the calling process (no pool, easiest to debug).  Results
                are identical either way.
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers!r}")
        self.workers = int(workers)

    # ------------------------------------------------------------------ #

    def run(
        self,
        scenario: Scenario,
        overrides: Optional[Mapping[str, Any]] = None,
        seed: Optional[int] = None,
        out: Optional[str] = None,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> SweepResult:
        """Execute every point of ``scenario`` and collect a :class:`SweepResult`.

        Args:
            scenario: The scenario to sweep.
            overrides: Optional base-parameter overrides (e.g. a smaller
                ``num_requests`` for a smoke run).  Grid axes still win over
                overrides, matching :meth:`Scenario.points`.
            seed: Optional replacement for the scenario's base seed.
            out: Optional path of the streamed JSONL artifact (any file
                name).  Every completed point is appended (in grid order) as
                the sweep runs, so a killed run leaves its completed prefix
                behind.  A sidecar at ``out + ".timing.jsonl"`` additionally
                records each executed point's wall-clock seconds — timing
                never enters the canonical artifact itself.
            resume: Reuse the completed points of an existing artifact at
                ``out`` (keyed by point seed) and execute only the rest.  The
                artifact is rewritten canonically, so the finished file is
                byte-identical to an uninterrupted run's.  Requires ``out``.
            progress: Optional ``callback(done, total)`` invoked after the
                cached prefix and after every completed chunk.  Under
                ``shard``, ``total`` is the shard's own point count.
            shard: Optional 1-based ``(index, count)`` pair: execute only the
                grid points whose derived seed falls in this shard
                (:func:`repro.experiments.sharding.shard_of`) so ``count``
                machines can split one sweep with no coordination.  Point
                records keep their global grid indices, and
                ``python -m repro.experiments merge`` recombines the shard
                artifacts into a file byte-identical to an unsharded run.
                ``(1, 1)`` (and ``None``) mean no sharding.

        Returns:
            The sweep's results, points in grid order (this shard's points
            only when ``shard`` is given).
        """
        if resume and out is None:
            raise ConfigurationError("resume=True requires an output path (out=...)")
        shard = normalize_shard(shard)
        if overrides:
            colliding = sorted(set(overrides) & set(scenario.grid.axes))
            if colliding:
                raise ConfigurationError(
                    f"cannot override swept parameter(s) {colliding}: the grid "
                    f"axis values always win, so the override would be silently "
                    f"ignored; edit the scenario's grid instead"
                )
        if overrides or seed is not None:
            scenario = scenario.with_overrides(base_params=overrides, seed=seed)

        # Points are normalised before seeds are derived: policy specs are
        # canonicalised and *eager* policies rewritten to the substrate's
        # legacy parameter, so a `policy="k2"` axis value shares its params,
        # seed and artifact bytes with the historical `copies=2` value (and a
        # malformed spec fails here, before any worker is spawned).
        full_work: List[_WorkItem] = [
            (
                scenario.entry_point,
                params,
                point_seed(scenario.seed, scenario.name, params),
                index,
            )
            for index, params in enumerate(
                normalize_point_params(
                    scenario.entry_point, point, axes=scenario.grid.axes
                )
                for point in scenario.points()
            )
        ]
        # Resolve the adapter up front so an unknown entry point fails before
        # any worker is spawned.
        resolve_adapter(scenario.entry_point)

        # The shard partition is a pure function of each point's derived
        # seed, so every machine computes the identical split independently.
        # Records keep their *global* grid index; `local` maps it to this
        # shard's write position.
        if shard is not None:
            work = [item for item in full_work if shard_of(item[2], shard[1]) == shard[0]]
        else:
            work = full_work
        local = {item[3]: position for position, item in enumerate(work)}

        header = header_record(
            scenario=scenario.name,
            entry_point=scenario.entry_point,
            description=scenario.description,
            seed=scenario.seed,
            base_params=dict(scenario.base_params),
            axes=scenario.grid.axes,
            num_points=len(full_work),
            shard=shard_stanza(shard, len(work)) if shard is not None else None,
        )
        cached = self._load_cache(out, resume, header, work)

        records: List[Optional[Dict[str, Any]]] = [None] * len(work)
        timings: List[Optional[float]] = [None] * len(work)
        for _entry, _params, item_seed, index in work:
            if item_seed in cached:
                records[local[index]] = cached[item_seed]
        pending = [item for item in work if records[local[item[3]]] is None]

        writer = ArtifactWriter(out, header) if out is not None else None
        timing_writer = (
            TimingWriter(
                timing_sidecar_path(out),
                timing_header(
                    scenario=scenario.name,
                    axes=list(scenario.grid.axes),
                    shard=header.get("shard"),
                    artifact=out,
                ),
            )
            if out is not None
            else None
        )
        pool = (
            ProcessPoolExecutor(max_workers=min(self.workers, len(pending)))
            if self.workers > 1 and len(pending) > 1
            else None
        )
        try:
            # The artifact is written strictly in grid order: after each chunk
            # (and the cached prefix), flush every record whose predecessors
            # are all on disk already.  Timing lands in the sidecar at the
            # same moment — but only for points executed by this invocation
            # (a resumed prefix cost no wall-clock).
            next_to_write = 0

            def flush() -> int:
                nonlocal next_to_write
                while next_to_write < len(records) and records[next_to_write] is not None:
                    if writer is not None:
                        writer.append_point(records[next_to_write])
                    if timing_writer is not None and timings[next_to_write] is not None:
                        timing_writer.append(records[next_to_write], timings[next_to_write])
                    next_to_write += 1
                return next_to_write

            done = flush()
            if progress is not None:
                progress(done, len(work))
            for chunk in _chunks(pending, max(DEFAULT_CHUNK_SIZE, self.workers)):
                # Executor.map preserves submission order, so records land in
                # grid order no matter which worker finishes first.
                executed = (
                    pool.map(_execute_point, chunk)
                    if pool is not None
                    else (_execute_point(item) for item in chunk)
                )
                for record in executed:
                    position = local[record["index"]]
                    # Pop the transient wall-clock key before the record can
                    # reach the canonical artifact or a PointResult.
                    timings[position] = record.pop("elapsed_s", None)
                    records[position] = record
                done = flush()
                if progress is not None:
                    progress(done, len(work))
        finally:
            if pool is not None:
                pool.shutdown()
            if timing_writer is not None:
                timing_writer.close()
            if writer is not None:
                writer.close()

        points = [PointResult(**record) for record in records]
        return SweepResult(
            scenario=scenario.name,
            entry_point=scenario.entry_point,
            description=scenario.description,
            seed=scenario.seed,
            base_params=dict(scenario.base_params),
            axes=scenario.grid.axes,
            points=points,
        )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _load_cache(
        out: Optional[str],
        resume: bool,
        header: Dict[str, Any],
        work: List[_WorkItem],
    ) -> Dict[int, Dict[str, Any]]:
        """Load reusable point records from a partial artifact (resume mode).

        A cached record is reused only if its seed matches a current grid
        point *and* its recorded parameters canonically equal that point's —
        the belt to the seed's braces, since the seed is already derived from
        the parameters.  The record's stored index is normalised to the
        current grid index (for a well-formed artifact they already agree;
        this stops a hand-edited index field from corrupting the rewrite).
        """
        if not resume or out is None:
            return {}
        loaded_header, loaded_points = load_partial(out)
        if loaded_header is None:
            return {}
        validate_header(loaded_header, header, out)
        by_seed: Dict[int, Dict[str, Any]] = {}
        for _entry, params, item_seed, index in work:
            record = loaded_points.get(item_seed)
            if record is None:
                continue
            if canonicalize(record.get("params")) != canonicalize(params):
                continue
            record = dict(record)
            record["index"] = index
            by_seed[item_seed] = record
        return by_seed

