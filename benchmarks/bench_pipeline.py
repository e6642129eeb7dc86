"""Beyond the paper: straggler mitigation in redundant job pipelines.

The paper's redundancy math is per-request; :mod:`repro.pipeline` applies it
to duplicate *task* dispatch in a fan-out/fan-in worker fleet, where job
completion is a max over chunk completions and one straggler holds the whole
job hostage.  This benchmark regenerates the EXPERIMENTS.md pipeline tables:
the completion-time-vs-wasted-work frontier across policies, and the
event-vs-fast execution-path equivalence that makes the closed-form path
safe to use by default.
"""

import numpy as np

from conftest import run_once

from repro.analysis import ResultTable
from repro.pipeline import (
    JobSpec,
    PipelineConfig,
    PipelineExperiment,
    StageSpec,
    StragglerMitigator,
    WorkerPool,
)

POLICIES = ["none", "k2", "k3", "hedge:400ms", "hedge:p95"]
NUM_JOBS = 120
POOL = WorkerPool(num_workers=16, seconds_per_unit=0.02, straggler_alpha=1.2)
JOB = JobSpec(total_work=100.0, stages=(StageSpec(num_chunks=64, size_alpha=1.6),))


def _run(policy):
    config = PipelineConfig(
        job=JOB, pool=POOL, policy=policy, num_jobs=NUM_JOBS, seed=11
    )
    return PipelineExperiment(config).run()


def test_pipeline_straggler_frontier(benchmark):
    def compute():
        return {spec: _run(spec) for spec in POLICIES}

    results = run_once(benchmark, compute)
    table = ResultTable(
        ["policy", "p50", "p99", "wasted/useful", "copies/chunk"],
        title=(
            f"Job-pipeline straggler mitigation "
            f"({JOB.stages[0].num_chunks} chunks, alpha "
            f"{POOL.straggler_alpha}, {POOL.num_workers} workers)"
        ),
    )
    p99 = {}
    for spec, result in results.items():
        completions = result.job_completion_s
        p99[spec] = float(np.quantile(completions, 0.99))
        table.add_row(**{
            "policy": spec,
            "p50": round(float(np.quantile(completions, 0.5)), 3),
            "p99": round(p99[spec], 3),
            "wasted/useful": round(result.wasted_work_fraction, 3),
            "copies/chunk": round(result.copies_per_chunk, 3),
        })
    print("\n" + table.to_text())

    # The headline frontier: every mitigation policy beats the unmitigated
    # p99 under these heavy-tailed stragglers ...
    for spec in POLICIES[1:]:
        assert p99[spec] < p99["none"]
    # ... at strictly positive waste, with hedging cheaper than eager
    # duplication and the baseline wasting nothing.
    assert results["none"].wasted_work_fraction == 0.0
    assert 0.0 < results["hedge:p95"].wasted_work_fraction
    assert (
        results["hedge:p95"].wasted_work_fraction
        < results["k2"].wasted_work_fraction
        < results["k3"].wasted_work_fraction
    )


def test_pipeline_event_vs_fast_paths(benchmark, monkeypatch):
    def compute():
        fast = _run("k2")
        # An eligible plan reaches the event engine only when eligibility is
        # patched away; the experiment itself always prefers the fast path.
        monkeypatch.setattr(
            StragglerMitigator, "fastpath_eligible", lambda self, pool: False
        )
        return {"event": _run("k2"), "fast": fast}

    results = run_once(benchmark, compute)
    event, fast = results["event"], results["fast"]
    assert (event.path, fast.path) == ("event", "fast")
    # The closed-form path must be bit-for-bit identical to the event engine
    # (tests/test_pipeline.py::TestPathEquivalence pins the same property).
    np.testing.assert_array_equal(event.job_completion_s, fast.job_completion_s)
    assert event.wasted_work_s == fast.wasted_work_s
    assert event.metrics == fast.metrics
