"""Cross-module integration tests: the library's pieces working together."""

import asyncio

import numpy as np
import pytest

from repro.analysis import EmpiricalCDF, comparison_table, summarize
from repro.core import (
    KCopies,
    RedundantClient,
    advise_replication,
    exponential_threshold_load,
)
from repro.core.selection import RankedBest
from repro.distributions import Empirical, Exponential, Pareto
from repro.queueing import ReplicatedQueueingModel
from repro.wan import DnsExperiment, DnsExperimentConfig


class TestQueueingToAdvisorPipeline:
    """Measure a service, fit an empirical distribution, ask the advisor."""

    def test_measured_latencies_feed_the_advisor(self):
        # Step 1: measure a backend (here: simulate one at a known load).
        model = ReplicatedQueueingModel(Pareto(alpha=2.1, mean=1.0), copies=1, seed=11)
        measured = model.run_fast(0.15, num_requests=20_000)

        # Step 2: fit an empirical service-time-ish distribution from samples.
        empirical = Empirical(measured.response_times)

        # Step 3: ask the advisor whether to replicate at the current load.
        advice = advise_replication(
            empirical, load=0.15, threshold=exponential_threshold_load()
        )
        assert advice.replicate_for_mean
        assert advice.replicate_for_tail

    def test_simulation_summary_matches_cdf_view(self):
        model = ReplicatedQueueingModel(Exponential(1.0), copies=2, seed=4)
        result = model.run_fast(0.2, num_requests=15_000)
        cdf = EmpiricalCDF(result.response_times)
        assert cdf.quantile(0.5) == pytest.approx(result.summary.p50, rel=1e-6)
        assert cdf.ccdf(result.summary.p99) == pytest.approx(0.01, abs=0.005)


class TestHedgingAgainstSimulatedBackends:
    """The asyncio client driving backends whose latencies come from the models."""

    def test_hedged_client_races_two_simulated_backends(self):
        rng = np.random.default_rng(0)
        latencies = Pareto(alpha=2.1, mean=0.002).sample(rng, 400)

        def make_backend(offset):
            async def backend(key):
                index = (hash(key) + offset) % len(latencies)
                await asyncio.sleep(float(latencies[index]))
                return (offset, key)

            return backend

        client = RedundantClient(
            [make_backend(0), make_backend(97)],
            policy=KCopies(2),
            selection=RankedBest([0, 1]),
        )

        async def run_requests():
            return [await client.request(key=f"k{i}") for i in range(40)]

        results = asyncio.run(run_requests())
        latency = client.metrics.histogram("latency")
        assert len(latency) == 40
        assert all(result.value[1] == f"k{i}" for i, result in enumerate(results))
        # Wall-clock latencies include event-loop scheduling overhead (which
        # can be large on a loaded CI machine), so the latency check is a
        # loose sanity bound rather than a tight statistical comparison — the
        # statistical claims are covered by the queueing-model tests.
        assert latency.percentile(95) < float(np.percentile(latencies, 99)) + 0.25


class TestEndToEndReporting:
    """Experiment output flowing into the table/report layer used by benches."""

    def test_dns_results_render_as_paper_style_table(self):
        config = DnsExperimentConfig(
            num_vantage_points=3, stage1_queries_per_server=100,
            stage2_queries_per_config=300, seed=1,
        )
        results = DnsExperiment(config).run(copies_list=[1, 2, 5])
        table = comparison_table(
            "Figure 16: reduction in DNS response time",
            "copies",
            [1, 2, 5],
            {
                "mean reduction %": [results.reduction_percent["mean"][k] for k in (1, 2, 5)],
                "p99 reduction %": [results.reduction_percent["p99"][k] for k in (1, 2, 5)],
            },
        )
        text = table.to_text()
        assert "copies" in text and "mean reduction %" in text
        assert len(table.rows) == 3

    def test_queueing_sweep_reproduces_threshold_crossing(self):
        """1-copy and 2-copy curves cross between 25% and 50% load (Figure 1 shape)."""
        service = Exponential(1.0)
        loads = [0.1, 0.2, 0.3, 0.4]
        means = {}
        for copies in (1, 2):
            model = ReplicatedQueueingModel(service, copies=copies, seed=6)
            means[copies] = [
                model.run_fast(load, num_requests=25_000).mean for load in loads
            ]
        differences = [m1 - m2 for m1, m2 in zip(means[1], means[2])]
        assert differences[0] > 0          # replication wins at 10% load
        assert differences[-1] < 0         # and loses at 40% load
        summary = summarize(means[1])
        assert summary.count == len(loads)
