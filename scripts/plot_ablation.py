#!/usr/bin/env python3
"""Latency-vs-load frontier plots/tables for the hedging-ablation sweeps.

The six ablation scenarios (``standard-queueing-policy-ablation``,
``standard-db-hedging``, ``standard-memcached-hedging``,
``standard-fattree-policy``, ``standard-handshake-hedging``,
``paper-dns-hedged``) all sweep a ``policy`` axis — ``none`` / eager ``k2`` /
fixed or adaptive hedges — over a load-like axis.  This script turns their
sweep artifacts into the **frontier view**: for each load, which policy
achieves the lowest latency, and by how much.

Usage (from the repository root)::

    PYTHONPATH=src python -m repro.experiments run standard-db-hedging \\
        --workers 4 --out db-hedging.jsonl
    PYTHONPATH=src python scripts/plot_ablation.py db-hedging.jsonl \\
        [more artifacts ...] [--metric mean] [--metric2 p99] [--png frontier.png]

Output is text-first (a per-artifact table with the frontier policy starred,
plus one ``frontier@`` summary line per load) so it needs nothing beyond the
repository's own dependencies; ``--png`` renders the same series with
matplotlib *if it is installed* and fails with a clear message otherwise.
Artifacts are what ``run --out`` streams, or the byte-identical output of
``python -m repro.experiments merge``; both load with
:meth:`SweepResult.from_jsonl`.  See the "Hedging ablations" section of
``EXPERIMENTS.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.analysis.tables import ResultTable  # noqa: E402
from repro.core.policy import HedgeAfterDelay, parse_policy  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402
from repro.experiments.cli import _axis_value  # noqa: E402
from repro.experiments.results import PointResult, SweepResult  # noqa: E402

#: Axes (in preference order) that serve as the x-axis of the frontier.
X_AXES = ("load", "rtt", "copies")


def hedge_delay_of(spec: str) -> Optional[float]:
    """The delay (seconds) of a fixed-delay hedge spec, else None.

    Only exact :class:`HedgeAfterDelay` policies qualify (``hedge:250ms``,
    ``hedge:50ms:x2``); percentile hedges adapt their delay and eager/none
    policies have none, so neither belongs to a delay-grid family.
    """
    try:
        policy = parse_policy(spec)
    except ReproError:
        return None
    if type(policy) is HedgeAfterDelay:
        return policy.delay
    return None


def hedge_family(spec: str) -> Optional[str]:
    """The delay-grid family of a fixed-delay hedge spec (delay wildcarded).

    ``hedge:250ms`` and ``hedge:1s`` share family ``hedge:*``;
    ``hedge:50ms:x2`` belongs to ``hedge:*:x2``.  Returns None for specs
    outside any delay grid.
    """
    if hedge_delay_of(spec) is None:
        return None
    segments = spec.split(":")
    segments[1] = "*"
    return ":".join(segments)


def pick_x_axis(result: SweepResult, requested: Optional[str]) -> Optional[str]:
    """The load-like axis of a sweep: ``--x`` if given, else the first of
    ``load`` / ``rtt`` / ``copies`` present among the grid axes, else None
    (a single-column sweep such as ``paper-dns-hedged``)."""
    if requested:
        if requested not in result.axes:
            raise SystemExit(
                f"--x {requested!r} is not an axis of {result.scenario!r} "
                f"(axes: {list(result.axes)})"
            )
        return requested
    for name in X_AXES:
        if name in result.axes and name != "policy":
            return name
    return None


def policy_of(point: PointResult) -> str:
    """The point's policy spec, reconstructing ``copies``/``replication`` sugar."""
    value = _axis_value(point, "policy")
    return str(value) if value is not None else "none"


def metric_of(point: PointResult, name: str) -> Optional[float]:
    """The point's ``name`` value when present and numeric, else None."""
    try:
        value = point.value(name)
    except ReproError:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def frontier_rows(
    result: SweepResult, x_axis: Optional[str], metric: str
) -> List[Tuple[Any, List[PointResult], Optional[PointResult]]]:
    """Group ok points by x value: ``(x, points, frontier_point)``."""
    grouped: Dict[Any, List[PointResult]] = {}
    order: List[Any] = []
    for point in result.ok_points():
        x = point.params.get(x_axis) if x_axis else "-"
        if x not in grouped:
            grouped[x] = []
            order.append(x)
        grouped[x].append(point)
    rows = []
    for x in order:
        numeric = [
            (value, p) for p in grouped[x]
            if (value := metric_of(p, metric)) is not None
        ]
        best = min(numeric, key=lambda pair: pair[0])[1] if numeric else None
        rows.append((x, grouped[x], best))
    return rows


def report(
    result: SweepResult,
    x_axis: Optional[str],
    metrics: List[str],
    group_hedges: bool = False,
) -> None:
    """Print the full ablation table (frontier starred) plus summary lines."""
    primary = metrics[0]
    x_label = x_axis or "sweep"
    table = ResultTable(
        [x_label, "policy"] + metrics + ["frontier"],
        title=f"{result.scenario}: {primary} frontier vs {x_label} "
              f"({len(result.ok_points())} ok points)",
    )
    rows = frontier_rows(result, x_axis, primary)
    for x, points, best in rows:
        for point in points:
            row: Dict[str, Any] = {
                x_label: x,
                "policy": policy_of(point),
                "frontier": "*" if point is best else "",
            }
            for name in metrics:
                row[name] = metric_of(point, name)
            table.add_row(**row)
    print(table.to_text())
    for x, points, best in rows:
        if best is None:
            continue
        best_value = metric_of(best, primary)
        baseline = next(
            (metric_of(p, primary) for p in points if policy_of(p) == "none"), None
        )
        delta = (
            f" ({100.0 * (best_value - baseline) / baseline:+.1f}% vs none)"
            if baseline and policy_of(best) != "none"
            else ""
        )
        print(
            f"  frontier@{x_label}={x}: {policy_of(best)} "
            f"({primary}={best_value:.4g}{delta})"
        )
    if group_hedges:
        for x, points, _best in rows:
            families: Dict[str, List[Tuple[float, float, str]]] = {}
            for point in points:
                spec = policy_of(point)
                family = hedge_family(spec)
                value = metric_of(point, primary)
                if family is None or value is None:
                    continue
                families.setdefault(family, []).append(
                    (hedge_delay_of(spec), value, spec)
                )
            for family in sorted(families):
                entries = sorted(families[family])
                if len(entries) < 2:
                    continue  # one delay is a point, not a grid
                _delay, best_value, best_spec = min(
                    entries, key=lambda entry: entry[1]
                )
                swept = ", ".join(spec.split(":")[1] for _d, _v, spec in entries)
                print(
                    f"  hedge-grid@{x_label}={x}: {family} best={best_spec} "
                    f"({primary}={best_value:.4g}; delays swept: {swept})"
                )
    print()


#: The scalar columns every churn adapter exports (repro.cluster.churn
#: spike_metrics), in table order.
SPIKE_COLUMNS = (
    "p99_before", "p99_spike", "p99_after", "spike_ratio", "spike_duration_s"
)


def pick_spike_x(result: SweepResult, requested: Optional[str]) -> Optional[str]:
    """The x axis of a spike view: ``--x`` if given, else the first swept
    axis that is neither ``policy`` nor ``churn`` (e.g. ``migration_rate``
    for the elasticity scenarios)."""
    if requested:
        return pick_x_axis(result, requested)
    for name in result.axes:
        if name not in ("policy", "churn"):
            return name
    return None


def spike_report(result: SweepResult, x_axis: Optional[str]) -> None:
    """Print the before/during/after p99 decomposition of a churn sweep.

    One row per point: steady-state p99 before the first membership event,
    the worst per-bin p99 during the rebalance/failover window, the settled
    p99 afterwards, and the spike's height (ratio over *before*) and
    duration.  The policy with the lowest absolute spike per x is starred —
    the "redundancy masks the spike" frontier.
    """
    x_label = x_axis or "sweep"
    table = ResultTable(
        [x_label, "policy"] + list(SPIKE_COLUMNS) + ["masked"],
        title=f"{result.scenario}: churn spike view vs {x_label} "
              f"({len(result.ok_points())} ok points)",
    )
    rows = frontier_rows(result, x_axis, "p99_spike")
    for x, points, best in rows:
        for point in points:
            row: Dict[str, Any] = {
                x_label: x,
                "policy": policy_of(point),
                "masked": "*" if point is best else "",
            }
            for name in SPIKE_COLUMNS:
                row[name] = metric_of(point, name)
            table.add_row(**row)
    print(table.to_text())
    for x, points, best in rows:
        if best is None:
            continue
        baseline = next(
            (metric_of(p, "p99_spike") for p in points if policy_of(p) == "none"),
            None,
        )
        best_spike = metric_of(best, "p99_spike")
        delta = (
            f" ({100.0 * (best_spike - baseline) / baseline:+.1f}% vs none)"
            if baseline and policy_of(best) != "none"
            else ""
        )
        print(
            f"  spike@{x_label}={x}: {policy_of(best)} "
            f"(p99_spike={best_spike:.4g}{delta}, "
            f"ratio={metric_of(best, 'spike_ratio'):.3g}, "
            f"duration={metric_of(best, 'spike_duration_s'):.3g}s)"
        )
    print()


def pareto_points(
    result: SweepResult, x_metric: str, y_metric: str
) -> List[Tuple[float, float, str, bool]]:
    """``(x, y, label, efficient)`` per ok point of a cost-vs-latency view.

    A point is Pareto-efficient when no other point is at least as good on
    both metrics and strictly better on one (both minimised) — e.g. job
    completion time (``y``) vs wasted-work fraction (``x``) for the pipeline
    scenarios.
    """
    gathered: List[Tuple[float, float, str]] = []
    for point in result.ok_points():
        x = metric_of(point, x_metric)
        y = metric_of(point, y_metric)
        if x is None or y is None:
            continue
        extras = {
            key: value for key, value in sorted(point.params.items())
            if key in result.axes and key != "policy"
        }
        label = policy_of(point)
        if extras:
            label += " [" + ", ".join(f"{k}={v}" for k, v in extras.items()) + "]"
        gathered.append((x, y, label))
    out = []
    for x, y, label in gathered:
        dominated = any(
            (ox <= x and oy <= y) and (ox < x or oy < y)
            for ox, oy, _ in gathered
        )
        out.append((x, y, label, not dominated))
    return out


def pareto_report(result: SweepResult, x_metric: str, y_metric: str) -> None:
    """Print the cost-vs-latency table with the Pareto-efficient set starred."""
    points = sorted(pareto_points(result, x_metric, y_metric))
    table = ResultTable(
        [x_metric, y_metric, "point", "pareto"],
        title=f"{result.scenario}: {y_metric} vs {x_metric} Pareto view "
              f"({sum(1 for p in points if p[3])} efficient of {len(points)})",
    )
    for x, y, label, efficient in points:
        table.add_row(**{
            x_metric: x,
            y_metric: y,
            "point": label,
            "pareto": "*" if efficient else "",
        })
    print(table.to_text())
    for x, y, label, efficient in points:
        if efficient:
            print(f"  pareto: {label} ({x_metric}={x:.4g}, {y_metric}={y:.4g})")
    print()


def render_png(
    loaded: List[Tuple[str, SweepResult]],
    x_arg: Optional[str],
    metric: str,
    path: str,
    group_hedges: bool = False,
    pareto: Optional[str] = None,
) -> None:
    """Render one panel per artifact with matplotlib.

    The default view is the metric-vs-load line chart (one line per policy;
    ``group_hedges`` collapses each fixed-delay hedge family into its
    per-x best).  With ``pareto`` set, panels become cost-vs-latency
    scatters with the efficient set connected.
    """
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise SystemExit(
            "--png needs matplotlib, which is not installed in this "
            "environment; the text frontier tables above carry the same data"
        )
    fig, axes_list = plt.subplots(
        1, len(loaded), figsize=(5.5 * len(loaded), 4.0), squeeze=False
    )
    for axis, (_path, result) in zip(axes_list[0], loaded):
        if pareto:
            points = pareto_points(result, pareto, metric)
            axis.scatter([x for x, _y, _l, _e in points],
                         [y for _x, y, _l, _e in points], s=14)
            front = sorted((x, y) for x, y, _l, efficient in points if efficient)
            if front:
                axis.plot([x for x, _ in front], [y for _, y in front],
                          marker="*", color="tab:red", label="pareto front")
            for x, y, label, efficient in points:
                if efficient:
                    axis.annotate(label, (x, y), fontsize=6,
                                  textcoords="offset points", xytext=(3, 3))
            axis.set_xlabel(pareto)
            axis.set_ylabel(metric)
            axis.set_title(result.scenario, fontsize=9)
            axis.legend(fontsize=7)
            continue
        x_axis = pick_x_axis(result, x_arg)
        series: Dict[str, List[Tuple[Any, float]]] = {}
        for point in result.ok_points():
            value = metric_of(point, metric)
            if value is None:
                continue
            x = point.params.get(x_axis) if x_axis else 0
            spec = policy_of(point)
            family = hedge_family(spec) if group_hedges else None
            series.setdefault(family or spec, []).append((x, value))
        for policy, points in series.items():
            if "*" in policy:
                # One frontier line per delay-grid family: its per-x best.
                best: Dict[Any, float] = {}
                for x, value in points:
                    if x not in best or value < best[x]:
                        best[x] = value
                points = sorted(best.items())
            else:
                points.sort()
            axis.plot([x for x, _ in points], [v for _, v in points],
                      marker="o", label=policy)
        axis.set_title(result.scenario, fontsize=9)
        axis.set_xlabel(x_axis or "")
        axis.set_ylabel(metric)
        axis.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Latency-vs-load frontier tables (and optional PNG) for "
            "policy-ablation sweep artifacts; see EXPERIMENTS.md."
        ),
    )
    parser.add_argument(
        "artifacts", nargs="+",
        help="sweep artifacts (.json / .jsonl / merged) of policy-axis scenarios",
    )
    parser.add_argument(
        "--metric", default="mean",
        help="primary metric defining the frontier (default: mean)",
    )
    parser.add_argument(
        "--metric2", default="p99",
        help="secondary metric column shown alongside (default: p99)",
    )
    parser.add_argument(
        "--x", default=None,
        help="x axis (default: the first of load/rtt/copies in the grid)",
    )
    parser.add_argument("--png", default=None, metavar="PATH",
                        help="also render a PNG (requires matplotlib)")
    parser.add_argument(
        "--group-hedges", action="store_true",
        help=(
            "collapse fixed-delay hedge families (hedge:100ms, hedge:250ms, "
            "...) into one frontier line: the best delay per x"
        ),
    )
    parser.add_argument(
        "--pareto", default=None, metavar="METRIC",
        help=(
            "trade-off view: plot --metric against this cost metric (e.g. "
            "wasted_work_fraction or cost_normalized) and star the "
            "non-dominated points instead of the per-x frontier tables"
        ),
    )
    parser.add_argument(
        "--spike", action="store_true",
        help=(
            "churn view: before/during/after p99 decomposition of "
            "membership-event sweeps (standard-db-rebalance, "
            "standard-memcached-failover), lowest spike starred"
        ),
    )
    args = parser.parse_args(argv)

    loaded = []
    for path in args.artifacts:
        try:
            loaded.append((path, SweepResult.from_jsonl(path)))
        except (ReproError, OSError, ValueError) as exc:
            raise SystemExit(f"cannot load {path!r}: {exc}")
    metrics = [args.metric]
    if args.metric2 and args.metric2 != args.metric:
        metrics.append(args.metric2)
    for _path, result in loaded:
        if args.spike:
            spike_report(result, pick_spike_x(result, args.x))
        elif args.pareto:
            pareto_report(result, args.pareto, args.metric)
        else:
            report(result, pick_x_axis(result, args.x), metrics,
                   group_hedges=args.group_hedges)
    if args.png:
        render_png(loaded, args.x, args.metric, args.png,
                   group_hedges=args.group_hedges, pareto=args.pareto)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
