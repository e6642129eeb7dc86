"""Ledger benchmark: end-to-end and per-layer numbers for sweeps and serving.

Run from the repository root::

    python3 benchmarks/ledger/run.py [--workload W[,W...]] [--seed N|A,B|A-B]
        [--seconds S] [--repeats R] [--trace [0|1]] [--out results.json]
        [--quick] [--repin]

Each workload and seed runs in its own fresh process (``measure.py``), one
after another: set-up, one checked warm-up run, then timed runs until both
``--repeats`` runs and ``--seconds`` seconds are done.  Seven more fresh
processes each time the set-up alone; ``setup_s`` is their median.
``--trace`` alternates untraced runs with runs traced from ``trace.py`` and
reports the per-layer metrics instead of the end-to-end ones.

Every metric is printed by name with its unit, median, quartiles and sample
count.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with several
workloads or seeds, metric names are prefixed ``<workload>/`` and each value
is the median over seeds.  The exit code is 1 when any output fails its
digest or consistency check, 2 on a usage or environment error.

All files the benchmark writes stay under ``.ledger/`` in the repository
root: the compiled C kernels and each run's scratch artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")

#: Fresh processes that time the set-up alone, per workload and seed.
SETUP_SAMPLES = 7
#: A measuring process that runs longer than this is killed.
CHILD_TIMEOUT_S = 170
#: Seconds the calibration kernel in ``measure.py`` takes at the reference
#: machine speed; CPU-bound times are reported at that speed.
REFERENCE_S = 0.04


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and count of ``values`` (quartiles as
    ``statistics.quantiles(values, n=4)`` gives them); short series are
    kept in measurement order as ``samples``."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) >= 2 else (median,) * 3
    summary = {"value": median, "q1": q1, "q3": q3, "n": len(ordered)}
    if len(ordered) <= 64:
        summary["samples"] = list(values)
    return summary


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, sep, high = part.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if sep else [int(low)])
    return seeds


def _child(args: List[str], env: Dict[str, str]) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0 or not completed.stdout.strip():
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"measure.py {' '.join(args)} exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, args: argparse.Namespace, env: Dict[str, str]) -> Dict[str, Any]:
    """Run one workload at one seed; return its metrics and checks."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
              "--repeats", str(args.repeats)] + (["--quick"] if args.quick else [])
    extra = ["--trace", str(args.trace)]
    if args.trace and args.out:
        extra += ["--trace-out", args.out + ".trace.jsonl"]
    if args.repin:
        extra.append("--unpinned")
    child = _child(common + extra, env)
    samples = 0 if args.quick else SETUP_SAMPLES
    setups = [_child(common + ["--setup-only"], env) for _ in range(samples)] or [child]
    return reduce_child(child, [s["setup_s"] * REFERENCE_S / s["calibration_s"] for s in setups])


def reduce_child(child: Dict[str, Any], setups: List[float]) -> Dict[str, Any]:
    """Turn one measuring process's runs into the ledger's metrics.

    Times of CPU-bound work are scaled by ``REFERENCE_S / calibration_s`` of
    their run, which expresses them at the reference machine speed; the
    latencies of paced real-clock traffic are reported as measured.
    """
    from trace import LAYERS

    runs = child["runs"]
    plain = [run for run in runs if not run["traced"]]
    traced = [run for run in runs if run["traced"]]

    def scale(run: Dict[str, Any]) -> float:
        return REFERENCE_S / run["calibration_s"]

    unit_ms = [value * (1.0 if run["real_clock"] else scale(run))
               for run in plain for value in run["unit_ms"]]
    metrics = {
        "throughput_per_s": summarize(
            [(run["throughput"] or run["ops"] / run["wall_s"]) / scale(run) for run in plain]
        ),
        "latency_ms": summarize(unit_ms or [1e3 * run["wall_s"] * scale(run) for run in plain]),
        "peak_rss_mb": summarize([child["peak_rss_mb"]]),
        "setup_s": summarize(setups),
    }
    if traced:
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = summarize(
                [run["layers"][layer] * scale(run) for run in traced]
            )
        overhead = statistics.median(run["cpu_s"] * scale(run) for run in traced) / statistics.median(
            run["cpu_s"] * scale(run) for run in plain
        )
        metrics["trace.overhead_frac"] = summarize([overhead - 1.0])
    counted = traced or plain
    for key in sorted({key for run in counted for key in run["counts"]}):
        metrics[key] = summarize([run["counts"][key] for run in counted if key in run["counts"]])
    info = {
        key: statistics.median(run["info"][key] for run in plain)
        for key in sorted({key for run in plain for key in run["info"]})
    }
    info["calibration_s"] = statistics.median(run["calibration_s"] for run in runs)
    info["unscaled_throughput_per_s"] = statistics.median(
        run["throughput"] or run["ops"] / run["wall_s"] for run in plain
    )
    if traced:
        spans: Dict[str, List[float]] = {}
        for run in traced:
            for name, (seconds, _calls) in run["spans"].items():
                spans.setdefault(name, []).append(seconds)
        info.update({f"self_s:{name}": statistics.median(values) for name, values in spans.items()})
        info["idle_s"] = statistics.median(run["layers"].get("idle", 0.0) for run in traced)
        info["wall_s_traced"] = statistics.median(run["wall_s"] for run in traced)
    errors = list(child["warmup"]["errors"]) + [e for run in runs for e in run["errors"]]
    failed = sum(run["failed"] for run in runs)
    return {
        "correct": not errors and failed == 0,
        "attempted": sum(run["ops"] for run in runs),
        "failed": failed,
        "errors": errors,
        "runs": {"plain": len(plain), "traced": len(traced)},
        "pinned": child["pinned"],
        "digests": child["warmup"]["digests"],
        "metrics": metrics,
        "info": info,
    }


def print_result(name: str, seed: int, result: Dict[str, Any], units: Dict[str, str],
                 declared: List[str]) -> None:
    status = "correct" if result["correct"] else "INCORRECT"
    pins = "pinned digests" if result["pinned"] else "digests checked against the warm-up"
    print(f"== {name}  seed {seed}  {status}  runs {result['runs']['plain']} plain"
          f" + {result['runs']['traced']} traced (+1 warm-up)  attempted {result['attempted']}"
          f"  failed {result['failed']}  ({pins})")
    for error in result["errors"]:
        print(f"   ! {error}")
    print(f"   {'metric':<36} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for metric in declared:
        if metric in result["metrics"]:
            m = result["metrics"][metric]
            print(f"   {metric:<36} {units[metric]:<6} {m['value']:>12.6g} {m['q1']:>12.6g}"
                  f" {m['q3']:>12.6g} {m['n']:>4}")
    info = result["info"]
    if "wall_s_traced" in info:
        wall = info["wall_s_traced"]
        top = sorted((k for k in info if k.startswith("self_s:")), key=info.get, reverse=True)
        print(f"   traced run: wall {wall:.4g} s, idle {info['idle_s']:.4g} s; "
              f"largest self times:")
        for key in top[:8]:
            print(f"     {key[len('self_s:'):]:<60} {info[key]:>9.4g} s {info[key] / wall:>7.1%}")
    extras = {k: v for k, v in info.items() if not k.startswith("self_s:")
              and k not in ("wall_s_traced", "idle_s")}
    if extras:
        print("   " + "  ".join(f"{k} {v:.4g}" for k, v in extras.items()))


def _repin(runs: List[Dict[str, Any]]) -> None:
    pins: Dict[str, Dict[str, Dict[str, str]]] = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            pins = json.load(handle)
    for run in runs:
        for name, result in run["workloads"].items():
            if result["digests"]:
                pins.setdefault(name, {})[str(run["seed"])] = result["digests"]
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", dest="workloads", default=None,
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", default="0", help="N, a list A,B or a range A-B (default 0)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="minimum timed seconds per workload and seed")
    parser.add_argument("--repeats", type=int, default=3,
                        help="minimum timed runs (per side when tracing)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from traced runs")
    parser.add_argument("--out", default=None, help="write every result here as JSON")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--repin", action="store_true",
                        help="record this run's digests in digests.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or not os.path.exists(BENCHMARK):
        print(f"run.py: no src/repro or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as handle:
        bench = json.load(handle)
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    unknown = sorted(set(workloads) - set(known))
    if unknown or args.repeats < 1 or args.seconds < 0:
        parser.error(f"unknown workloads {unknown}" if unknown else "bad --repeats/--seconds")
    if args.repin and args.quick:
        parser.error("quick runs are never pinned")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = [m["name"] for m in declared]

    scratch = os.path.join(ROOT, ".ledger", "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    if args.trace and args.out:
        open(args.out + ".trace.jsonl", "w").close()

    runs = []
    try:
        for seed in parse_seeds(args.seed):
            run: Dict[str, Any] = {"seed": seed, "workloads": {}}
            for name in workloads:
                result = measure(name, seed, args, env)
                for metric in names:
                    # A layer this workload never reaches did no countable work.
                    if units[metric] in ("count", "ratio"):
                        result["metrics"].setdefault(metric, summarize([0.0]))
                missing = [metric for metric in names if metric not in result["metrics"]]
                if missing:
                    raise RuntimeError(f"{name}: no value for {missing}")
                print_result(name, seed, result, units, names)
                run["workloads"][name] = result
            runs.append(run)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"schema": "ledger-results/1", "trace": bool(args.trace),
                       "quick": args.quick, "seconds": args.seconds, "runs": runs},
                      handle, indent=1, sort_keys=True)
    if args.repin:
        _repin(runs)

    results = [(run["seed"], name, result) for run in runs
               for name, result in run["workloads"].items()]
    single = len(results) == 1
    metrics = {}
    for name in workloads:
        for metric in names:
            value = statistics.median(result["metrics"][metric]["value"]
                                      for _seed, w, result in results if w == name)
            metrics[metric if single else f"{name}/{metric}"] = {"value": value, "unit": units[metric]}
    correct = all(result["correct"] for _seed, _name, result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for _s, _n, result in results),
        "failed": sum(result["failed"] for _s, _n, result in results),
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
