"""Tests of the repro.pipeline substrate: both paths, policies, determinism.

The load-bearing contract is byte-identity: the event engine and the
closed-form fast path must produce bit-identical results for every eligible
configuration, and artifacts must be pure functions of the scenario — the
same across worker counts and execution paths.  The tests force an eligible
plan onto the event engine by patching
:meth:`StragglerMitigator.fastpath_eligible`; the CI pipeline smoke and the
``standard-pipeline-dag`` golden pin the artifacts with ``cmp``.
"""

import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import all_scenarios, get_scenario
from repro.experiments.adapters import run_pipeline
from repro.experiments.cli import main as cli_main
from repro.pipeline import (
    JobSpec,
    PipelineConfig,
    PipelineExperiment,
    StageSpec,
    StragglerMitigator,
    WorkerPool,
)

TWO_STAGE = JobSpec(
    total_work=40.0,
    stages=(
        StageSpec(num_chunks=10, size_alpha=1.5),
        StageSpec(num_chunks=5, size_alpha=1.5, output_ratio=0.5),
    ),
)
POOL = WorkerPool(num_workers=6, seconds_per_unit=0.05, straggler_alpha=1.6)


def run(policy, *, job=TWO_STAGE, pool=POOL, num_jobs=20, seed=7):
    config = PipelineConfig(job=job, pool=pool, policy=policy, num_jobs=num_jobs, seed=seed)
    return PipelineExperiment(config).run()


def force_event_engine(monkeypatch):
    """Send every later run to the event engine, eligible plans included."""
    monkeypatch.setattr(StragglerMitigator, "fastpath_eligible", lambda self, pool: False)


def assert_results_identical(a, b):
    np.testing.assert_array_equal(a.job_completion_s, b.job_completion_s)
    np.testing.assert_array_equal(a.stage_makespan_s, b.stage_makespan_s)
    assert a.useful_work_s == b.useful_work_s
    assert a.wasted_work_s == b.wasted_work_s
    assert (a.copies_launched, a.copies_cancelled) == (b.copies_launched, b.copies_cancelled)
    assert a.chunks == b.chunks
    assert a.metrics == b.metrics


class TestPathEquivalence:
    @pytest.mark.parametrize("policy", ["none", "k2", "k3"])
    def test_event_and_fast_bitwise_identical(self, policy, monkeypatch):
        pool = POOL if policy != "k3" else WorkerPool(
            num_workers=6, seconds_per_unit=0.05, straggler_alpha=1.6
        )
        fast = run(policy, pool=pool)
        force_event_engine(monkeypatch)
        event = run(policy, pool=pool)
        assert (fast.path, event.path) == ("fast", "event")
        assert_results_identical(event, fast)

    def test_paths_reported_for_introspection(self, monkeypatch):
        assert run("none").path == "fast"
        force_event_engine(monkeypatch)
        assert run("none").path == "event"

    def test_auto_selects_event_for_hedging(self):
        assert run("hedge:100ms").path == "event"

    def test_auto_selects_event_for_failing_pool(self):
        pool = WorkerPool(
            num_workers=6, seconds_per_unit=0.05, straggler_alpha=1.6,
            fail_probability=0.05, restart_s=0.2,
        )
        assert run("none", pool=pool).path == "event"


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["none", "k2", "hedge:150ms", "hedge:p95"])
    def test_rerun_is_bitwise_identical(self, policy):
        assert_results_identical(run(policy), run(policy))

    def test_failing_pool_is_deterministic(self):
        pool = WorkerPool(
            num_workers=6, seconds_per_unit=0.05, straggler_alpha=1.6,
            fail_probability=0.1, restart_s=0.3,
        )
        assert_results_identical(run("k2", pool=pool), run("k2", pool=pool))

    def test_seed_changes_results(self):
        a = run("none", seed=1)
        b = run("none", seed=2)
        assert not np.array_equal(a.job_completion_s, b.job_completion_s)


class TestPolicies:
    def test_hedging_beats_none_at_p99_with_positive_waste(self):
        # The headline claim: under heavy-tailed stragglers, hedged duplicate
        # dispatch cuts the job completion tail at a quantified waste cost.
        pool = WorkerPool(num_workers=12, seconds_per_unit=0.05, straggler_alpha=1.2)
        job = JobSpec(total_work=40.0, stages=(StageSpec(num_chunks=24, size_alpha=1.6),))
        base = run("none", job=job, pool=pool, num_jobs=60)
        hedged = run("hedge:p95", job=job, pool=pool, num_jobs=60)
        assert base.wasted_work_s == 0.0
        assert hedged.wasted_work_fraction > 0.0
        p99 = lambda r: float(np.quantile(r.job_completion_s, 0.99))
        assert p99(hedged) < p99(base)

    def test_cancel_on_win_accounting(self):
        # Eager k2 never cancels (KCopies is no-cancel); hedges cancel the
        # losing copy on win, so cancelled copies only appear for hedging.
        eager = run("k2")
        hedged = run("hedge:1ms")
        assert eager.copies_cancelled == 0
        assert eager.copies_launched == 2 * eager.chunks
        assert hedged.copies_cancelled > 0
        assert hedged.copies_launched <= 2 * hedged.chunks
        # Hedge waste is bounded by eager waste: copies launch later and are
        # cancelled at the win, so duplicate busy-time can only shrink.
        assert hedged.wasted_work_s < eager.wasted_work_s

    def test_policy_needing_more_copies_than_workers_rejected(self):
        pool = WorkerPool(num_workers=2, seconds_per_unit=0.05)
        with pytest.raises(ConfigurationError, match="copies per chunk"):
            run("k3", pool=pool)

    def test_mitigator_keeps_per_stage_policies(self):
        mitigator = StragglerMitigator("hedge:p95", num_stages=3)
        policies = {id(mitigator.policy_for(s)) for s in range(3)}
        assert len(policies) == 3  # independent adaptive state per stage
        assert mitigator.spec == "hedge:p95"


class TestDagStructure:
    def test_stage_makespans_sum_to_job_completion(self):
        result = run("none")
        np.testing.assert_allclose(
            np.sum(result.stage_makespan_s, axis=1), result.job_completion_s
        )

    def test_stage_chunk_counts_and_metrics(self):
        result = run("k2")
        assert result.chunks == 20 * (10 + 5)
        assert "stage0_chunk_latency" in result.metrics
        assert "stage1_chunk_latency" in result.metrics
        assert result.metrics["job_completion"]["count"] == 20
        assert result.metrics["copies_launched"] == 2 * result.chunks

    def test_failures_slow_the_pipeline(self):
        flaky = WorkerPool(
            num_workers=6, seconds_per_unit=0.05, straggler_alpha=1.6,
            fail_probability=0.2, restart_s=0.5,
        )
        slow = run("none", pool=flaky)
        fast = run("none")
        assert float(np.mean(slow.job_completion_s)) > float(np.mean(fast.job_completion_s))


class TestExperimentIntegration:
    def test_adapter_is_picklable_and_deterministic(self):
        assert pickle.loads(pickle.dumps(run_pipeline)) is run_pipeline
        params = {"policy": "hedge:p95", "num_jobs": 5, "num_chunks": 6,
                  "num_workers": 4, "num_stages": 2}
        a = run_pipeline(params, seed=3)
        b = run_pipeline(params, seed=3)
        assert a["summary"] == b["summary"]
        assert a["scalars"] == b["scalars"]
        assert "wasted_work_fraction" in a["scalars"]
        assert "path" not in a["scalars"]  # execution path must not leak into artifacts

    def test_pipeline_scenarios_registered(self):
        names = {scenario.name for scenario in all_scenarios()}
        assert {"smoke-pipeline", "standard-pipeline-stragglers",
                "standard-pipeline-dag"} <= names
        assert get_scenario("smoke-pipeline").tier == "smoke"

    def test_cli_artifacts_identical_across_workers_and_path(self, tmp_path, monkeypatch):
        outputs = []
        # The event leg runs last, in this process (one worker), so the
        # patch reaches every point it runs.
        for name, workers in (("w1", "1"), ("w3", "3"), ("ev", "1")):
            if name == "ev":
                force_event_engine(monkeypatch)
            out = str(tmp_path / f"{name}.json")
            assert cli_main(["run", "smoke-pipeline", "--workers", workers,
                             "--out", out, "--quiet"]) == 0
            outputs.append(open(out).read())
        assert outputs[0] == outputs[1] == outputs[2]
