"""Command-line interface of the experiments subsystem.

::

    python -m repro.experiments list [--tier paper]
    python -m repro.experiments show <scenario>
    python -m repro.experiments run <scenario> --workers 4 --out results.jsonl [--resume]
    python -m repro.experiments run <scenario> --shard 2/3 --out shard2.jsonl
    python -m repro.experiments merge merged.jsonl shard1.jsonl shard2.jsonl shard3.jsonl
    python -m repro.experiments timing-report shard1.jsonl.timing.jsonl [...]
    python -m repro.experiments diff golden.jsonl fresh.jsonl

``run`` prints a compact result table and optionally writes artifacts:
``--out`` streams each completed point to a JSONL artifact as the sweep runs
(resumable after a kill with ``--resume``), whatever the path ends in; it is
the one on-disk form of a sweep.  Because per-point seeds depend only on the
scenario and the point parameters, the artifact is byte-identical for any
``--workers`` value and any resume history.  ``--shard I/N`` extends the
same contract across machines: N hosts each run one shard of the grid (a
deterministic seed-based partition, no coordination) and ``merge``
recombines the shard artifacts into a file byte-identical to the
single-machine run.  Every ``--out`` run also writes a wall-clock **timing
sidecar** (``<out>.timing.jsonl``) that ``timing-report`` tabulates —
slowest points, per-shard totals — while the canonical artifact itself stays
timing-free.  ``diff`` loads two artifacts and prints the paper-vs-measured
comparison table.  ``EXPERIMENTS.md`` maps every paper figure to its
scenario and exact command.
"""

from __future__ import annotations

import argparse
import ast
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.tables import ResultTable
from repro.exceptions import ConfigurationError, ReproError
from repro.flags import reject_unknown_flags
from repro.experiments.registry import all_scenarios, get_scenario
from repro.experiments.results import SweepResult
from repro.experiments.runner import SweepRunner
from repro.experiments.scenario import TIERS
from repro.experiments.sharding import merge_artifacts, parse_shard
from repro.experiments.timing import load_timing, sidecar_label, timing_sidecar_path


def _parse_override(text: str) -> tuple:
    """Parse one ``--set key=value`` pair; values are Python literals or strings."""
    if "=" not in text:
        raise ConfigurationError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key.strip(), value


def _overrides(pairs: Optional[Sequence[str]]) -> Dict[str, Any]:
    return dict(_parse_override(pair) for pair in pairs or ())


def _comma_list(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    items = [item.strip() for item in text.split(",") if item.strip()]
    return items or None


def _axis_value(point, name: str) -> Any:
    """A point's value for one grid axis, for display.

    Eager ``policy`` axis values are normalised into the substrate's legacy
    parameter before execution (``"k2"`` → ``copies=2``), so reconstruct the
    spec for display rather than showing a blank.
    """
    value = point.params.get(name)
    if value is None and name == "policy":
        copies = point.params.get("copies")
        if copies is not None:
            return "none" if int(copies) == 1 else f"k{int(copies)}"
        replication = point.params.get("replication")
        if replication is not None:
            return "k2" if replication else "none"
    return value


def _summary_table(result: SweepResult) -> ResultTable:
    """A one-row-per-point overview table of a sweep."""
    axis_names = list(result.axes)
    columns = axis_names + ["status", "mean", "p99"]
    table = ResultTable(columns, title=f"scenario {result.scenario!r} ({len(result.points)} points)")
    for point in result.points:
        row: Dict[str, Any] = {name: _axis_value(point, name) for name in axis_names}
        row["status"] = point.status
        summary = point.summary or {}
        row["mean"] = summary.get("mean")
        row["p99"] = summary.get("p99")
        table.add_row(**row)
    return table


def cmd_list(args: argparse.Namespace) -> int:
    table = ResultTable(["scenario", "tier", "entry point", "points", "description"])
    for scenario in all_scenarios(tier=args.tier):
        table.add_row(**{
            "scenario": scenario.name,
            "tier": scenario.tier,
            "entry point": scenario.entry_point,
            "points": scenario.num_points(),
            "description": scenario.description,
        })
    print(table.to_text())
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    print(f"name:        {scenario.name}")
    print(f"tier:        {scenario.tier}")
    print(f"entry point: {scenario.entry_point}")
    print(f"description: {scenario.description}")
    print(f"seed:        {scenario.seed}")
    print(f"base params: {scenario.base_params}")
    print(f"grid:        {scenario.grid!r}")
    for name, values in scenario.grid.axes.items():
        print(f"  {name}: {values}")
    return 0


def _format_duration(seconds: float) -> str:
    """``73`` → ``"1m13s"``; sub-minute values render as plain seconds."""
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _format_elapsed(seconds: float) -> str:
    """Sub-minute values keep 3 significant digits; longer ones use 1m13s form."""
    return f"{seconds:.3g}s" if seconds < 60 else _format_duration(seconds)


def _make_progress(stream=None) -> Callable[[int, int], None]:
    """A live ``[done/total] pct · elapsed · eta`` progress line.

    The rate (and therefore the ETA) is computed over points *executed this
    run*: a resumed run's cached prefix arrives in the first callback and is
    excluded, so the ETA reflects the remaining work, not the artifact's
    history.  On a terminal the line redraws in place; on a pipe (CI logs)
    each update is a plain line.
    """
    stream = stream if stream is not None else sys.stdout
    interactive = bool(getattr(stream, "isatty", lambda: False)())
    state: Dict[str, float] = {}

    def progress(done: int, total: int) -> None:
        now = time.monotonic()
        if "start" in state:
            elapsed = now - state["start"]
            executed = done - state["cached"]
        else:
            state["start"], state["cached"] = now, float(done)
            elapsed, executed = 0.0, 0.0
        pct = 100.0 * done / total if total else 100.0
        line = f"  [{done}/{total}] {pct:3.0f}% · elapsed {_format_duration(elapsed)}"
        if done >= total:
            line += " · done"
        elif executed > 0 and elapsed > 0:
            eta = (total - done) * elapsed / executed
            line += f" · eta {_format_duration(eta)}"
        if interactive:
            end = "\n" if done >= total else ""
            print(f"\r\x1b[2K{line}", end=end, file=stream, flush=True)
        else:
            print(line, file=stream, flush=True)

    return progress


def cmd_run(args: argparse.Namespace) -> int:
    if args.resume and not args.out:
        raise ConfigurationError(
            "--resume needs --out PATH: it finishes the artifact streamed there"
        )
    scenario = get_scenario(args.scenario)
    shard = parse_shard(args.shard) if args.shard else None
    runner = SweepRunner(workers=args.workers)
    progress = None if args.quiet else _make_progress()
    result = runner.run(
        scenario,
        overrides=_overrides(args.set),
        seed=args.seed,
        out=args.out,
        resume=args.resume,
        progress=progress,
        shard=shard,
    )
    if not args.quiet:
        if shard is not None:
            print(
                f"shard {shard[0]}/{shard[1]}: {len(result.points)} of "
                f"{scenario.num_points()} grid points"
            )
        print(_summary_table(result).to_text())
        infeasible = [p for p in result.points if not p.ok]
        if infeasible:
            print(f"({len(infeasible)} point(s) infeasible — saturated, skipped)")
    if args.out and not args.quiet:
        print(f"wrote JSONL artifact: {args.out}")
        print(f"wrote timing sidecar: {timing_sidecar_path(args.out)}")
    if args.csv:
        result.to_csv(args.csv)
        if not args.quiet:
            print(f"wrote CSV artifact: {args.csv}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one grid point under cProfile and print the cumulative-time table."""
    import cProfile
    import pstats

    scenario = get_scenario(args.scenario)
    if args.set:
        scenario = scenario.with_overrides(base_params=_overrides(args.set))
    from repro.experiments.adapters import normalize_point_params, resolve_adapter
    from repro.experiments.scenario import point_seed

    points = [
        normalize_point_params(scenario.entry_point, point, axes=scenario.grid.axes)
        for point in scenario.points()
    ]
    if not 0 <= args.point < len(points):
        raise ConfigurationError(
            f"--point must be in [0, {len(points)}) for scenario "
            f"{scenario.name!r}, got {args.point}"
        )
    params = points[args.point]
    seed = point_seed(scenario.seed, scenario.name, params)
    adapter = resolve_adapter(scenario.entry_point)
    shown = " ".join(f"{key}={value}" for key, value in sorted(params.items()))
    print(f"profiling {scenario.name!r} point {args.point}/{len(points)}: {shown}")
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    adapter(params, seed)
    profiler.disable()
    elapsed = time.perf_counter() - started
    print(f"point wall-clock: {elapsed:.3f}s")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    summary = merge_artifacts(args.out, args.shards)
    deduped = (
        f", {summary['duplicates']} duplicate point(s) deduplicated"
        if summary["duplicates"]
        else ""
    )
    print(
        f"merged {summary['inputs']} artifact(s) of scenario "
        f"{summary['scenario']!r} -> {args.out}: {summary['points']} points"
        f"{deduped}"
    )
    print(
        "(bytes are identical to a single-machine run of the scenario; "
        "verify with cmp, or diff --fail-threshold 0 against a golden artifact)"
    )
    return 0


def cmd_timing_report(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise ConfigurationError(f"--top must be >= 1, got {args.top!r}")
    loaded = [(path,) + load_timing(path) for path in args.sidecars]
    # One report covers one sweep: pooling sidecars of different scenarios
    # under colliding "shard I/N" labels would silently mislead.
    scenarios = sorted({header.get("scenario") for _path, header, _r in loaded})
    if len(scenarios) > 1:
        offenders = ", ".join(
            (
                f"{path!r} ({sidecar_label(header, path)}): "
                if header.get("shard")
                else f"{path!r}: "
            )
            + f"{header.get('scenario')!r}"
            for path, header, _records in loaded
        )
        raise ConfigurationError(
            f"timing-report covers one sweep at a time, but these sidecars "
            f"span scenarios {scenarios} — {offenders}; run one report per "
            f"scenario"
        )

    totals = ResultTable(
        ["shard", "points", "total", "mean/point", "max"],
        title=f"per-shard wall-clock totals ({len(loaded)} sidecar(s))",
    )
    entries = []  # (elapsed, label, record) across all sidecars
    for path, header, records in loaded:
        label = sidecar_label(header, path)
        axes = header.get("axes") or []
        elapsed = [float(r["elapsed_s"]) for r in records]
        totals.add_row(**{
            "shard": label,
            "points": len(records),
            "total": _format_elapsed(sum(elapsed)) if records else "-",
            "mean/point": _format_elapsed(sum(elapsed) / len(records)) if records else "-",
            "max": _format_elapsed(max(elapsed)) if records else "-",
        })
        for record in records:
            entries.append((float(record["elapsed_s"]), label, axes, record))
    print(totals.to_text())

    entries.sort(key=lambda entry: -entry[0])
    slowest = ResultTable(
        ["elapsed", "shard", "index", "point", "status"],
        title=f"slowest points (top {min(args.top, len(entries))} of {len(entries)})",
    )
    for elapsed, label, axes, record in entries[: args.top]:
        params = record.get("params") or {}
        shown = {name: params.get(name) for name in axes} if axes else params
        slowest.add_row(**{
            "elapsed": _format_elapsed(elapsed),
            "shard": label,
            "index": record.get("index"),
            "point": " ".join(f"{k}={v}" for k, v in shown.items()) or "-",
            "status": record.get("status"),
        })
    print()
    print(slowest.to_text())
    if not entries:
        print(
            "(no timing records: the runs behind these sidecars executed no "
            "points — fully cached --resume, or an empty shard)"
        )
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    labels = _comma_list(args.labels) or []
    if len(labels) != 2:
        raise ConfigurationError(f"--labels expects two comma-separated names, got {args.labels!r}")
    if args.fail_threshold is not None and args.fail_threshold < 0:
        raise ConfigurationError(
            f"--fail-threshold must be >= 0, got {args.fail_threshold!r}"
        )
    base = SweepResult.from_jsonl(args.artifact_a)
    other = SweepResult.from_jsonl(args.artifact_b)
    diff = base.diff(other, labels=(labels[0], labels[1]))
    columns = _comma_list(args.columns)
    table = diff.to_table(columns=columns, key_columns=_comma_list(args.keys))
    print(table.to_text())
    if diff.only_base or diff.only_other:
        print(
            f"(unmatched points: {len(diff.only_base)} only in {labels[0]}, "
            f"{len(diff.only_other)} only in {labels[1]})"
        )
    if args.fail_threshold is None:
        return 0
    # Gate mode: exit non-zero when any compared value moved by more than the
    # threshold (or when the grids do not even pair up), so CI can fail on
    # regressions in the measured numbers rather than on table rendering.
    worst = (None, "", 0.0, 0.0, -1.0)
    compared = 0
    for entry in diff.relative_deltas(columns):
        compared += 1
        if entry[4] > worst[4]:
            worst = entry
    unmatched = len(diff.only_base) + len(diff.only_other)
    # A gate that compared nothing must fail loudly: a typo'd --columns name
    # (every pair skipped as missing/non-numeric) would otherwise read as a
    # permanently green regression check.
    failed = worst[4] > args.fail_threshold or unmatched > 0 or compared == 0
    if worst[4] >= 0:
        params, name, base_value, other_value, pct = worst
        print(
            f"largest delta: {name} {base_value:g} -> {other_value:g} "
            f"({pct:.4g}% at {params}); threshold {args.fail_threshold:g}%",
            file=sys.stderr if failed else sys.stdout,
        )
    if failed:
        if compared == 0:
            print(
                "FAIL: no numeric value pairs were compared — check --columns "
                f"({(columns or list(diff.DEFAULT_COLUMNS))!r}) against the "
                "artifacts' scalars/summary fields",
                file=sys.stderr,
            )
        elif unmatched:
            print(f"FAIL: {unmatched} unmatched point(s)", file=sys.stderr)
        else:
            print(
                f"FAIL: delta exceeds --fail-threshold {args.fail_threshold:g}%",
                file=sys.stderr,
            )
        return 1
    print(f"OK: all {compared} deltas within {args.fail_threshold:g}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.experiments`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run declarative scenario sweeps across the repro substrates.",
        epilog=(
            "See EXPERIMENTS.md for the figure-by-figure reproduction guide "
            "mapping every paper figure to a scenario and command."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser(
        "list",
        help="list registered scenarios",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  python -m repro.experiments list\n"
            "  python -m repro.experiments list --tier paper\n"
        ),
    )
    list_cmd.add_argument(
        "--tier", choices=TIERS, default=None,
        help="only scenarios of this tier (smoke = CI, standard = default, "
             "paper = full paper scale)",
    )
    list_cmd.set_defaults(func=cmd_list)

    show = sub.add_parser(
        "show",
        help="describe one scenario",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  python -m repro.experiments show dns-best-k\n"
            "  python -m repro.experiments show paper-fattree-k6\n"
        ),
    )
    show.add_argument("scenario")
    show.set_defaults(func=cmd_show)

    run = sub.add_parser(
        "run",
        help="execute a scenario sweep (optionally one shard of it)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  # quick look at a standard-tier sweep\n"
            "  python -m repro.experiments run queueing-threshold --workers 4\n"
            "  # paper-scale run, streamed to a resumable JSONL artifact\n"
            "  python -m repro.experiments run paper-dns-matrix --workers 4 \\\n"
            "      --out dns-matrix.jsonl\n"
            "  # ...killed half-way?  finish only the missing points:\n"
            "  python -m repro.experiments run paper-dns-matrix --workers 8 \\\n"
            "      --out dns-matrix.jsonl --resume\n"
            "  # split the same sweep across 3 machines (this is machine 2);\n"
            "  # `merge` later recombines the shards byte-identically\n"
            "  python -m repro.experiments run paper-dns-matrix --shard 2/3 \\\n"
            "      --out dns-shard2.jsonl\n"
            "  # smoke-size any scenario by overriding base parameters\n"
            "  python -m repro.experiments run database-ec2 --set num_requests=1000\n"
            "  # re-policy a scenario: hedge at the observed 95th percentile\n"
            "  # instead of the base parameters' eager copies\n"
            "  python -m repro.experiments run queueing-threshold --set policy=hedge:p95\n"
            "\n"
            "--out also writes <out>.timing.jsonl — per-point wall-clock timing\n"
            "for `timing-report`; the canonical artifact stays timing-free.\n"
        ),
    )
    run.add_argument("scenario")
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = inline; results identical either way)",
    )
    run.add_argument(
        "--out",
        help="stream the JSONL artifact here, one line per point as it "
             "completes (resumable)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="reuse completed points from an existing --out artifact and "
             "execute only the missing ones (final bytes identical to an "
             "uninterrupted run)",
    )
    run.add_argument(
        "--shard", metavar="I/N", default=None,
        help="execute only shard I of N (1-based) — a deterministic, "
             "seed-derived partition of the grid, so N machines can split one "
             "sweep with no coordination; `merge` recombines the shard "
             "artifacts byte-identically; "
             "1/1 means no sharding",
    )
    run.add_argument("--csv", help="write a flattened CSV artifact to this path")
    run.add_argument("--seed", type=int, default=None, help="override the scenario's base seed")
    run.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a base parameter (repeatable), e.g. --set num_requests=1000",
    )
    run.add_argument("--quiet", action="store_true", help="suppress the result table")
    run.set_defaults(func=cmd_run)

    profile = sub.add_parser(
        "profile",
        help="run one grid point under cProfile (find the hot path of a slow sweep)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Execute exactly one grid point of a scenario under cProfile and "
            "print the cumulative-time table.  Pair it with `timing-report` "
            "(which names the slowest points of a recorded sweep) to see "
            "*why* a point is slow; the profiled run uses the identical "
            "normalised parameters and derived seed as the sweep, so the "
            "profile reflects the real artifact-producing code path."
        ),
        epilog=(
            "examples:\n"
            "  python -m repro.experiments profile queueing-smoke --point 0\n"
            "  python -m repro.experiments profile paper-database-ec2 --point 17 --top 15\n"
        ),
    )
    profile.add_argument("scenario")
    profile.add_argument(
        "--point", type=int, default=0,
        help="grid index of the point to profile (0-based, grid order; "
             "`timing-report` prints these indices)",
    )
    profile.add_argument(
        "--top", type=int, default=25,
        help="number of rows of the cumulative-time table to print",
    )
    profile.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override a base parameter (repeatable), e.g. --set num_requests=1000",
    )
    profile.set_defaults(func=cmd_profile)

    diff = sub.add_parser(
        "diff",
        help="compare two sweep artifacts point-by-point",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  # golden (paper) artifact vs a fresh measured run\n"
            "  python -m repro.experiments diff golden.jsonl fresh.jsonl\n"
            "  # pick the compared columns and the identifying key columns\n"
            "  python -m repro.experiments diff a.jsonl b.jsonl \\\n"
            "      --columns mean,p99,benefit --keys load,copies\n"
            "  # CI gate: fail (exit 1) on any >2% regression in the numbers\n"
            "  python -m repro.experiments diff golden.jsonl fresh.jsonl \\\n"
            "      --fail-threshold 2\n"
        ),
    )
    diff.add_argument("artifact_a", help="reference artifact (a run --out or merge output)")
    diff.add_argument("artifact_b", help="artifact compared against it")
    diff.add_argument(
        "--columns", default=None,
        help="comma-separated value columns to compare (default: mean,p99)",
    )
    diff.add_argument(
        "--keys", default=None,
        help="comma-separated identifying columns (default: the grid axes)",
    )
    diff.add_argument(
        "--labels", default="paper,measured",
        help="comma-separated labels of the two sides (default: paper,measured)",
    )
    diff.add_argument(
        "--fail-threshold", type=float, default=None, metavar="PCT",
        help="gate mode: exit 1 if any compared value differs by more than "
             "PCT percent (or if the artifacts have unmatched points) — lets "
             "CI fail on regressions in measured numbers; 0 demands exact "
             "agreement",
    )
    diff.set_defaults(func=cmd_diff)

    merge = sub.add_parser(
        "merge",
        help="recombine shard artifacts into one byte-identical artifact",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Merge the streaming artifacts of a sharded sweep (`run --shard "
            "I/N`) into one complete artifact.  The output is byte-identical "
            "to what a single-machine run of the scenario would have written "
            "(pinned by CI with cmp): point records are already canonical and "
            "carry global grid indices, so merging is a re-sorted union.  "
            "Inputs may arrive in any order and may overlap (identical "
            "duplicates are deduplicated); conflicting records for the same "
            "point, mismatched headers (different scenario/seed/--set "
            "overrides) and missing grid points are hard errors.  Timing "
            "sidecars are per-machine and are NOT merged — point "
            "timing-report at the shard sidecars directly."
        ),
        epilog=(
            "examples:\n"
            "  python -m repro.experiments merge dns-matrix.jsonl \\\n"
            "      dns-shard1.jsonl dns-shard2.jsonl dns-shard3.jsonl\n"
            "  cmp dns-matrix.jsonl dns-matrix-single-machine.jsonl   # identical\n"
        ),
    )
    merge.add_argument("out", help="path of the merged artifact to write")
    merge.add_argument(
        "shards", nargs="+",
        help="shard artifacts to combine (any order; overlaps deduplicated; "
             "a truncated final line — a shard killed mid-write — is "
             "tolerated, its in-flight point simply counts as missing)",
    )
    merge.set_defaults(func=cmd_merge)

    timing = sub.add_parser(
        "timing-report",
        help="tabulate wall-clock timing sidecars (slowest points, per-shard totals)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Report on the .timing.jsonl sidecars written next to streamed "
            "artifacts.  Timing lives ONLY in sidecars — canonical artifacts "
            "are byte-stable and clock-free — so this is the place to see "
            "where the wall-clock went: per-sidecar (per-shard) totals for "
            "balancing a fleet, and the globally slowest points for choosing "
            "a shard count.  A sidecar describes the points its run actually "
            "executed; a fully-cached --resume leaves it empty."
        ),
        epilog=(
            "examples:\n"
            "  python -m repro.experiments timing-report run.jsonl.timing.jsonl\n"
            "  # fleet view: one sidecar per shard, scp'd back to one place\n"
            "  python -m repro.experiments timing-report \\\n"
            "      dns-shard1.jsonl.timing.jsonl dns-shard2.jsonl.timing.jsonl \\\n"
            "      dns-shard3.jsonl.timing.jsonl --top 5\n"
        ),
    )
    timing.add_argument(
        "sidecars", nargs="+",
        help="one or more .timing.jsonl sidecar paths (one per shard/run)",
    )
    timing.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many of the slowest points to list (default 10)",
    )
    timing.set_defaults(func=cmd_timing_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A typo'd REPRO_* variable (say REPRO_CKERNEL=0) would silently
        # run the default code path of a long sweep; fail before any work.
        reject_unknown_flags()
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
