"""Declarative, parallel, resumable scenario sweeps over every substrate.

The paper's results are all *sweeps* — grids of (distribution x load x copies
x overhead) — so the repository provides sweeping as a subsystem rather than
ad-hoc loops:

* :class:`ParameterGrid` — the cartesian product of named axes;
* :class:`Scenario` — a substrate entry point + base params + grid, tagged
  with a cost tier (``smoke`` / ``standard`` / ``paper``);
* :class:`SweepRunner` — expands the grid, derives a per-point seed via
  :func:`repro.sim.rng.substream`, executes points in bounded chunks on a
  ``ProcessPoolExecutor``, and (given an output path) streams each completed
  point to the JSONL artifact, the one on-disk form of a sweep, which a
  killed run can ``resume`` from — the finished artifact is byte-identical
  for any worker count or resume history;
* :class:`SweepResult` / :class:`PointResult` — the shared result type,
  loaded back from an artifact with :meth:`SweepResult.from_jsonl`, flattened
  to CSV, and feeding :mod:`repro.analysis.tables`;
* :meth:`SweepResult.diff` / :class:`SweepDiff` — pair two artifacts of the
  same grid point-by-point and render "paper vs measured" columns
  (``python -m repro.experiments diff``);
* sharding (:mod:`repro.experiments.sharding`) — ``run --shard I/N`` splits
  one sweep across N machines along a deterministic seed-derived partition,
  and ``merge`` recombines the shard artifacts into a file byte-identical to
  the single-machine run;
* timing sidecars (:mod:`repro.experiments.timing`) — every streamed run
  writes per-point wall-clock seconds to ``<out>.timing.jsonl``
  (``timing-report`` tabulates slowest points and per-shard totals) so the
  canonical artifact itself never contains timing;
* a registry of built-in scenarios in three tiers, from the CI smoke sweep
  to the paper-scale k=6 fat-tree / full DNS matrix / EC2-trace database
  runs (``python -m repro.experiments list --tier paper``).

``EXPERIMENTS.md`` at the repository root maps every paper figure to its
scenario, exact CLI command and expected runtime.

Example:
    >>> from repro.experiments import SweepRunner, get_scenario
    >>> result = SweepRunner(workers=1).run(
    ...     get_scenario("queueing-smoke"), overrides={"num_requests": 500})
    >>> [p.status for p in result.points]
    ['ok', 'ok']
"""

from repro.experiments.grid import ParameterGrid
from repro.experiments.scenario import TIERS, Scenario, point_key, point_seed
from repro.experiments.adapters import ADAPTERS, resolve_adapter
from repro.experiments.artifact import JSONL_SCHEMA, load_partial
from repro.experiments.results import PointResult, SweepDiff, SweepResult
from repro.experiments.runner import DEFAULT_CHUNK_SIZE, SweepRunner
from repro.experiments.sharding import merge_artifacts, parse_shard, shard_of
from repro.experiments.timing import (
    TIMING_SCHEMA,
    load_timing,
    timing_sidecar_path,
)
from repro.experiments.registry import (
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)

__all__ = [
    "ADAPTERS",
    "DEFAULT_CHUNK_SIZE",
    "JSONL_SCHEMA",
    "TIMING_SCHEMA",
    "ParameterGrid",
    "PointResult",
    "Scenario",
    "SweepDiff",
    "SweepResult",
    "SweepRunner",
    "TIERS",
    "all_scenarios",
    "get_scenario",
    "load_partial",
    "load_timing",
    "merge_artifacts",
    "parse_shard",
    "point_key",
    "point_seed",
    "register_scenario",
    "resolve_adapter",
    "scenario_names",
    "shard_of",
    "timing_sidecar_path",
]
