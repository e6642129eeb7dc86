"""Points/sec of the flow-level fat-tree fidelity vs the packet simulator.

The flow-level fidelity is a documented approximation with its own scenario
(``paper-fattree-k6-flow``) that exists for sweep throughput.  This benchmark
measures the claim directly: points/sec on a scaled-down twin of
``paper-fattree-k6`` under both fidelities, and writes the measurement to
``BENCH_sim_speed.json`` next to this file.  Both fidelities are real
scenarios, so the ratio compares two things a user can run.

The committed ``BENCH_sim_speed.json`` additionally records the one-off
paper-scale measurements behind the EXPERIMENTS.md "Making sweeps fast"
table, the database row included; re-running this module refreshes the
``bench_scale`` block only (paper-scale numbers are reproduced with the
commands shown in EXPERIMENTS.md).  The batched database draws are measured
live by the ledger's ``sweep-eager`` workload (``benchmarks/ledger/``).

Run with pytest (timings also land in the pytest-benchmark report) or
directly: ``PYTHONPATH=src python benchmarks/bench_sim_speed.py``.
"""

import json
import os
import time

import pytest

from repro.experiments import get_scenario
from repro.experiments.runner import SweepRunner

ARTIFACT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_sim_speed.json")

#: Scaled-down sweep size: the paper scenario's grid with a smaller
#: workload, so the ratio is measurable in suite time.
FATTREE_OVERRIDES = {"num_flows": 400}

#: Conservative floor for the measured speedup at bench scale (the full
#: paper-scale ratio is larger; see EXPERIMENTS.md).  Loose enough for CI
#: jitter, tight enough that losing the flow fidelity's speed fails the bench.
MIN_FATTREE_SPEEDUP = 4.0


def _points_per_sec(scenario_name, overrides):
    """Run a sweep once and return (points, elapsed_s, points_per_sec)."""
    scenario = get_scenario(scenario_name)
    started = time.perf_counter()
    result = SweepRunner(workers=1).run(scenario, overrides=overrides)
    elapsed = time.perf_counter() - started
    points = len(result.points)
    return points, elapsed, points / elapsed


def measure():
    """Measure the packet/flow pair; returns the bench_scale record."""
    ft_pts, ft_packet_s, ft_packet_rate = _points_per_sec(
        "paper-fattree-k6", FATTREE_OVERRIDES
    )
    _, ft_flow_s, ft_flow_rate = _points_per_sec(
        "paper-fattree-k6-flow", FATTREE_OVERRIDES
    )
    return {
        "fattree_k6": {
            "overrides": FATTREE_OVERRIDES,
            "points": ft_pts,
            "packet_s": round(ft_packet_s, 3),
            "flow_s": round(ft_flow_s, 3),
            "packet_points_per_sec": round(ft_packet_rate, 3),
            "flow_points_per_sec": round(ft_flow_rate, 3),
            "speedup": round(ft_packet_rate and ft_flow_rate / ft_packet_rate, 2),
        },
    }


def write_artifact(bench_scale):
    """Merge ``bench_scale`` into BENCH_sim_speed.json, keeping paper_scale."""
    record = {}
    if os.path.exists(ARTIFACT_PATH):
        with open(ARTIFACT_PATH) as handle:
            record = json.load(handle)
    record["bench_scale"] = bench_scale
    with open(ARTIFACT_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return record


@pytest.fixture(scope="module")
def speed_record():
    bench_scale = measure()
    write_artifact(bench_scale)
    return bench_scale


def test_fattree_flow_fidelity_speedup(speed_record):
    entry = speed_record["fattree_k6"]
    assert entry["speedup"] >= MIN_FATTREE_SPEEDUP, entry


if __name__ == "__main__":
    bench = measure()
    write_artifact(bench)
    print(json.dumps(bench, indent=2, sort_keys=True))
