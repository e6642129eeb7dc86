"""Sweep results: the streamed artifact's loader, tables, CSV and diffs.

A :class:`SweepResult` is the collected output of one scenario sweep — one
:class:`PointResult` per grid point, in grid order.  It is the shared result
type of the repository: benchmarks and examples print it through
:class:`repro.analysis.tables.ResultTable`, the CLI streams it to a JSONL
artifact point by point (:mod:`repro.experiments.artifact`, resumable after a
kill) and can flatten it to CSV, and later analysis reloads the artifact with
:meth:`SweepResult.from_jsonl`.

Two artifacts of the same scenario compare through :meth:`SweepResult.diff`,
which pairs points by their parameters and renders "paper vs measured"
columns via :func:`repro.analysis.tables.diff_table` — the workflow behind
every paper-vs-measured table in ``EXPERIMENTS.md``.

The artifact is deliberately canonical (points in grid order, keys sorted,
no wall-clock timestamps), so two sweeps of the same scenario produce
byte-identical files regardless of worker count, resume history — or how
the grid was sharded across machines: a merged shard set
(:mod:`repro.experiments.sharding`) loads here exactly like the
single-machine artifact it is byte-identical to.  Wall-clock timing lives in
the ``.timing.jsonl`` sidecar (:mod:`repro.experiments.timing`), never in
the artifact — the determinism contract the tests pin down.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import ResultTable, diff_table
from repro.exceptions import ConfigurationError
from repro.experiments.artifact import canonicalize, load_partial

#: Point executed successfully.
STATUS_OK = "ok"
#: Point rejected by the substrate as having no steady state (CapacityError).
STATUS_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class PointResult:
    """Outcome of one sweep point.

    Attributes:
        index: Position of the point in grid order.
        params: Full parameter dict of the point (base params + grid values).
        seed: Derived RNG seed the point ran with.
        status: ``"ok"`` or ``"infeasible"``.
        error: Message for infeasible points (``None`` when ok).
        summary: Latency-summary row of the point (``None`` when absent).
        metrics: Metrics-registry snapshot of the point.
        scalars: Substrate-specific derived scalars.
    """

    index: int
    params: Dict[str, Any]
    seed: int
    status: str = STATUS_OK
    error: Optional[str] = None
    summary: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, Any]] = None
    scalars: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the point executed successfully."""
        return self.status == STATUS_OK

    def value(self, name: str) -> Any:
        """Look up ``name`` among params, scalars, then the summary row."""
        for source in (self.params, self.scalars, self.summary or {}):
            if name in source:
                return source[name]
        raise ConfigurationError(
            f"point {self.index} has no value {name!r}; params={sorted(self.params)}, "
            f"scalars={sorted(self.scalars)}, summary={sorted(self.summary or {})}"
        )


@dataclass(frozen=True)
class SweepResult:
    """The collected, ordered results of one scenario sweep."""

    scenario: str
    entry_point: str
    description: str
    seed: int
    base_params: Dict[str, Any]
    axes: Dict[str, List[Any]]
    points: List[PointResult]

    # ------------------------------- access ---------------------------- #

    def ok_points(self) -> List[PointResult]:
        """The points that executed successfully, in grid order."""
        return [p for p in self.points if p.ok]

    def select(self, **filters: Any) -> List[PointResult]:
        """Ok points whose params match every ``name=value`` filter."""
        return [
            p
            for p in self.ok_points()
            if all(p.params.get(name) == value for name, value in filters.items())
        ]

    def column(self, name: str, **filters: Any) -> List[Any]:
        """The ``name`` value of every matching ok point, in grid order."""
        return [p.value(name) for p in self.select(**filters)]

    # ------------------------------- tables ---------------------------- #

    def to_table(
        self, columns: Sequence[str], title: Optional[str] = None, **filters: Any
    ) -> ResultTable:
        """Render selected per-point values as a :class:`ResultTable`.

        Each column is looked up per point via :meth:`PointResult.value`
        (params first, then scalars, then the summary row).
        """
        table = ResultTable(list(columns), title=title)
        for point in self.select(**filters):
            table.add_row(**{name: point.value(name) for name in columns})
        return table

    # ---------------------------- serialisation ------------------------ #

    @classmethod
    def from_jsonl(cls, path: str) -> "SweepResult":
        """Load a *complete* sweep artifact, as ``run --out`` streams it.

        A **merged** artifact (``python -m repro.experiments merge``) is
        byte-identical to a single-machine run's and loads here like any
        other; an individual *shard* artifact holds only its own points and
        is rejected with a pointer at ``merge``.

        Raises:
            ConfigurationError: If the artifact has no header, is a shard of
                a sharded run (merge the shards first), or is missing points
                (an interrupted run — finish it with ``--resume`` before
                analysing it).
        """
        header, points = load_partial(path)
        if header is None:
            raise ConfigurationError(
                f"artifact {path!r} is empty or has no header record"
            )
        stanza = header.get("shard")
        if stanza:
            raise ConfigurationError(
                f"artifact {path!r} is shard {stanza.get('index')}/"
                f"{stanza.get('count')} of scenario {header.get('scenario')!r} "
                f"and holds only its own {stanza.get('num_points')} of "
                f"{header.get('num_points')} points; recombine the shards "
                f"first: python -m repro.experiments merge merged.jsonl "
                f"<shard artifacts...>"
            )
        missing = int(header["num_points"]) - len(points)
        if missing > 0:
            raise ConfigurationError(
                f"artifact {path!r} is incomplete: {missing} of "
                f"{header['num_points']} points missing — the run was "
                f"interrupted; rerun with --resume to finish it"
            )
        ordered = sorted(points.values(), key=lambda record: int(record["index"]))
        if missing < 0 or [int(r["index"]) for r in ordered] != list(
            range(int(header["num_points"]))
        ):
            raise ConfigurationError(
                f"artifact {path!r} holds {len(points)} point records whose "
                f"indices do not match the header's num_points="
                f"{header['num_points']}; it looks like concatenated or "
                f"hand-edited artifacts — regenerate it with a single run"
            )
        return cls(
            scenario=header["scenario"],
            entry_point=header["entry_point"],
            description=header.get("description", ""),
            seed=int(header["seed"]),
            base_params=dict(header.get("base_params", {})),
            axes={name: list(values) for name, values in header.get("axes", {}).items()},
            points=[PointResult(**record) for record in ordered],
        )

    # ------------------------------- diffing ---------------------------- #

    def diff(
        self,
        other: "SweepResult",
        labels: Tuple[str, str] = ("a", "b"),
    ) -> "SweepDiff":
        """Pair this sweep's points with ``other``'s by their parameters.

        The pairing key is each point's full parameter dict (canonicalised, so
        a tuple-vs-list difference introduced by JSON round-tripping does not
        matter) — *not* the seed, so a golden "paper" artifact diffs cleanly
        against a fresh run made with a different ``--seed``.  Points present
        on only one side (e.g. a grid that gained an axis value) are collected
        rather than raising; render the comparison with
        :meth:`SweepDiff.to_table`.
        """
        mine = {_param_key(p.params): p for p in self.points}
        theirs = {_param_key(p.params): p for p in other.points}
        pairs = [(mine[key], theirs[key]) for key in mine if key in theirs]
        pairs.sort(key=lambda pair: pair[0].index)
        return SweepDiff(
            base=self,
            other=other,
            labels=(str(labels[0]), str(labels[1])),
            pairs=pairs,
            only_base=[p for key, p in mine.items() if key not in theirs],
            only_other=[p for key, p in theirs.items() if key not in mine],
        )

    def to_csv(self, path: Optional[str] = None) -> str:
        """Flatten the sweep to CSV: one row per point, params + results as columns.

        Nested values (lists in params) are rendered with ``repr``; columns are
        the union over points, params first, then scalars, then summary fields
        (prefixed ``summary_``), then status.
        """
        param_cols: List[str] = []
        scalar_cols: List[str] = []
        summary_cols: List[str] = []
        for point in self.points:
            for name in point.params:
                if name not in param_cols:
                    param_cols.append(name)
            for name in point.scalars:
                if name not in scalar_cols:
                    scalar_cols.append(name)
            for name in point.summary or {}:
                if name not in summary_cols:
                    summary_cols.append(name)
        header = (
            ["index", "seed", "status"]
            + param_cols
            + scalar_cols
            + [f"summary_{name}" for name in summary_cols]
        )
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for point in self.points:
            row: List[Any] = [point.index, point.seed, point.status]
            for name in param_cols:
                value = point.params.get(name, "")
                row.append(repr(value) if isinstance(value, (list, tuple, dict)) else value)
            for name in scalar_cols:
                row.append(point.scalars.get(name, ""))
            summary = point.summary or {}
            for name in summary_cols:
                row.append(summary.get(name, ""))
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        return text


def _param_key(params: Dict[str, Any]) -> str:
    """The canonical pairing key of one point's parameter dict."""
    return json.dumps(canonicalize(params), sort_keys=True)


@dataclass(frozen=True)
class SweepDiff:
    """Two sweeps of the same grid, paired point-by-point for comparison.

    Attributes:
        base: The reference sweep (typically the golden / "paper" artifact).
        other: The sweep compared against it (the fresh / "measured" run).
        labels: Column labels of the two sides, e.g. ``("paper", "measured")``.
        pairs: Matched ``(base_point, other_point)`` pairs, in ``base`` grid
            order.
        only_base: Points whose parameters appear only in ``base``.
        only_other: Points whose parameters appear only in ``other``.
    """

    base: SweepResult
    other: SweepResult
    labels: Tuple[str, str]
    pairs: List[Tuple[PointResult, PointResult]]
    only_base: List[PointResult]
    only_other: List[PointResult]

    DEFAULT_COLUMNS = ("mean", "p99")

    def _value(self, point: PointResult, name: str) -> Any:
        try:
            return point.value(name)
        except ConfigurationError:
            return None

    def relative_deltas(
        self, columns: Optional[Sequence[str]] = None
    ) -> List[Tuple[Dict[str, Any], str, float, float, float]]:
        """Per-pair, per-column absolute relative deltas, in percent.

        Each entry is ``(params, column, base_value, other_value, pct)`` where
        ``pct`` is ``100 * |other - base| / |base|``.  Pairs where either side
        is missing or non-numeric are skipped; a value measured as exactly
        zero on the base side yields ``0.0`` when the other side agrees and
        ``inf`` otherwise (a from-zero regression has no finite percentage).

        This is the quantity ``--fail-threshold`` gates on: CI can fail on
        regressions in the *measured numbers*, not just on the rendered table.
        """
        value_columns = list(columns) if columns else list(self.DEFAULT_COLUMNS)
        deltas: List[Tuple[Dict[str, Any], str, float, float, float]] = []
        for base_point, other_point in self.pairs:
            for name in value_columns:
                base_value = self._value(base_point, name)
                other_value = self._value(other_point, name)
                if any(
                    not isinstance(v, (int, float)) or isinstance(v, bool)
                    for v in (base_value, other_value)
                ):
                    continue
                if base_value == 0:
                    pct = 0.0 if other_value == 0 else float("inf")
                else:
                    pct = 100.0 * abs(other_value - base_value) / abs(base_value)
                deltas.append(
                    (dict(base_point.params), name, float(base_value), float(other_value), pct)
                )
        return deltas

    def max_relative_delta(self, columns: Optional[Sequence[str]] = None) -> float:
        """The largest :meth:`relative_deltas` percentage (``0.0`` if none compare)."""
        return max((pct for *_rest, pct in self.relative_deltas(columns)), default=0.0)

    def to_table(
        self,
        columns: Optional[Sequence[str]] = None,
        key_columns: Optional[Sequence[str]] = None,
        title: Optional[str] = None,
    ) -> ResultTable:
        """Render the paired points as a "paper vs measured" table.

        Args:
            columns: Value columns to compare (each resolved per point via
                :meth:`PointResult.value`; unresolvable values render ``-``).
                Defaults to ``("mean", "p99")``.
            key_columns: Identifying columns (defaults to the base sweep's
                grid axes).
            title: Table title (defaults to naming both scenarios).

        Raises:
            ConfigurationError: If no points matched at all — that means the
                two artifacts share no grid point, which is a comparison
                mistake rather than an interesting diff.
        """
        if not self.pairs:
            raise ConfigurationError(
                f"no matching points between {self.base.scenario!r} and "
                f"{self.other.scenario!r}; are these artifacts of the same grid?"
            )
        value_columns = list(columns) if columns else list(self.DEFAULT_COLUMNS)
        keys = list(key_columns) if key_columns else list(self.base.axes)
        if title is None:
            title = (
                f"{self.base.scenario} [{self.labels[0]}] vs "
                f"{self.other.scenario} [{self.labels[1]}] "
                f"({len(self.pairs)} matched points)"
            )
        rows = []
        for base_point, other_point in self.pairs:
            key_values = {name: base_point.params.get(name) for name in keys}
            a_values = {name: self._value(base_point, name) for name in value_columns}
            b_values = {name: self._value(other_point, name) for name in value_columns}
            rows.append((key_values, a_values, b_values))
        return diff_table(title, keys, rows, value_columns, labels=self.labels)

