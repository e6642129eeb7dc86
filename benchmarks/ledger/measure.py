"""One workload in one fresh process: set-up, a checked warm-up, timed runs.

Started by ``run.py``; not meant to be run by hand.  Set-up time is taken
from the first line of this file, so it covers every import, the C kernels
and the workload's own set-up, but not the interpreter's start.

With ``--trace 1`` untraced and traced runs alternate; traced runs install
the wrappers from ``trace.py`` and must reproduce the untraced digests.

A shared machine's speed can drift by tens of percent over minutes.  So a fixed calibration kernel is timed after set-up and
between runs, and each run reports the mean of the kernel times on either
side of it; ``run.py`` expresses CPU-bound times at a reference speed.
Peak memory is read after the warm-up run, before the kernel first runs.

The process prints one JSON object on its last line of standard output.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from trace import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def _expected(workload: str, seed: int, quick: bool) -> Optional[Dict[str, str]]:
    """The pinned digests of this workload and seed, if any."""
    if quick or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def calibrate(tries: int = 3) -> float:
    """Seconds this machine takes right now for a fixed mix of interpreter
    loop, numpy sorting and random reads from a 16 MB table: the fastest of
    ``tries`` tries of about 40 ms each, so a brief interruption does not
    read as a slow machine.  The random reads make the kernel feel the
    cache and memory contention that slows the workloads' larger arrays."""
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.random(2_000_000)
    index = rng.integers(0, len(table), 1_000_000, dtype=np.int32)
    best = float("inf")
    for _ in range(tries):
        start = time.perf_counter()
        total = 0
        for i in range(350_000):
            total += (i * i) % 7
        values = table[:400_000]
        for _ in range(2):
            values = np.sort(-values)
        for _ in range(2):
            total += int(np.take(table, index).sum() > 0)
        best = min(best, time.perf_counter() - start)
    return best


def _one_run(workload: Any, state: Dict[str, Any], tracer: Optional[Tracer]) -> Dict[str, Any]:
    if tracer is not None:
        tracer.install()
        state["tracer"] = tracer
    cpu = time.process_time()
    wall = time.perf_counter()
    try:
        if tracer is not None:
            raw = tracer.run("ledger.run", "dispatch", lambda: workload.run(state))
        else:
            raw = workload.run(state)
    finally:
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
        if tracer is not None:
            tracer.uninstall()
            state["tracer"] = None
    outcome = workload.check(state, raw)
    record: Dict[str, Any] = {
        "traced": tracer is not None,
        "wall_s": wall,
        "cpu_s": cpu,
        "ops": outcome.ops,
        "failed": outcome.failed,
        "digests": outcome.digests,
        "unit_ms": outcome.unit_ms,
        "real_clock": outcome.real_clock,
        "throughput": outcome.throughput,
        "counts": dict(outcome.counts),
        "info": outcome.info,
        "errors": list(outcome.errors),
    }
    if tracer is not None:
        spans = tracer.take()
        by_layer, by_name = self_times(spans)
        record["layers"] = by_layer
        record["spans"] = {name: [seconds, tracer.calls[name]] for name, seconds in by_name.items()}
        record["counts"].update(_call_counts(tracer.calls))
        record["span_list"] = spans
    return record


def _call_counts(calls: Dict[str, int]) -> Dict[str, float]:
    """Per-run call counts of the layer entry points the ledger reports."""

    def total(*names: str) -> float:
        return float(sum(calls.get(name, 0) for name in names))

    return {
        "core.cancel_engine_calls": total("core.cancellation.simulate_cancelling_arrivals"),
        "core.hedged_engine_calls": total("core.policy.simulate_hedged_arrivals"),
        "queueing.event_driven_calls": total(
            "queueing.replication_model.ReplicatedQueueingModel.run_event_driven"
        ),
        "pipeline.stage_event_calls": total("pipeline.executor.run_stage_event"),
        "pipeline.stage_fast_calls": total("pipeline.fastpath.run_stage_fast"),
        "metrics.record_calls": total(
            "metrics.recorder.LatencyRecorder.record",
            "metrics.recorder.LatencyRecorder.record_many",
        ),
        "serve.proxy.request_calls": total("serve.proxy.RedundancyProxy.request"),
        "serve.proxy.submit_batch_calls": total("serve.proxy.RedundancyProxy.submit_batch"),
        "serve.backends.handle_calls": total("serve.backends.SimBackend.handle"),
        "serve.clock.sleep_calls": total(
            "serve.clock.RealClock.sleep", "serve.clock.VirtualClock.sleep"
        ),
    }


def _check_digests(record: Dict[str, Any], expected: Optional[Dict[str, str]], label: str) -> None:
    """Mark every operation of ``record`` failed if its digests differ."""
    if expected is None or record["digests"] == expected:
        return
    differing = sorted(k for k in set(expected) | set(record["digests"])
                       if expected.get(k) != record["digests"].get(k))
    record["errors"].append(f"{label}: digest mismatch in {', '.join(differing)}")
    record["failed"] = record["ops"]


def _write_spans(path: str, workload: str, seed: int, spans: List[Any]) -> None:
    origin = spans[0][4] if spans else 0.0
    with open(path, "a", encoding="utf-8") as handle:
        for span_id, parent, name, layer, start, end in spans:
            handle.write(json.dumps({
                "workload": workload, "seed": seed, "id": span_id, "parent": parent,
                "name": name, "layer": layer, "start": start - origin, "end": end - origin,
            }, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--unpinned", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tries = 1 if args.quick else 3
    workdir = tempfile.mkdtemp(prefix=f"ledger-{args.workload}-")
    try:
        state = workload.setup(args.seed, args.quick, workdir)
        state.setdefault("tracer", None)
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "calibration_s": calibrate(tries)}))
            return 0

        pinned = None if args.unpinned else _expected(args.workload, args.seed, args.quick)
        warmup = _one_run(workload, state, None)
        # Read before the calibration kernel's buffers can raise the mark.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _check_digests(warmup, pinned, "warm-up")
        before = calibration_s = calibrate(tries)
        expected = pinned if pinned is not None else warmup["digests"]

        runs: List[Dict[str, Any]] = []
        started = time.perf_counter()
        while True:
            traced = sum(run["traced"] for run in runs)
            untraced = len(runs) - traced
            enough = untraced >= args.repeats and (not args.trace or traced >= args.repeats)
            if enough and time.perf_counter() - started >= args.seconds:
                break
            tracer = Tracer() if args.trace and traced < untraced else None
            record = _one_run(workload, state, tracer)
            after = calibrate(tries)
            record["calibration_s"] = (before + after) / 2
            before = after
            _check_digests(record, expected, f"run {len(runs) + 1}")
            spans = record.pop("span_list", None)
            if spans is not None and args.trace_out and traced == 0:
                _write_spans(args.trace_out, args.workload, args.seed, spans)
            runs.append(record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "pinned": pinned is not None,
        "warmup": warmup,
        "runs": runs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
