"""Picklable substrate entry points for the sweep runner.

Every adapter is a module-level function ``adapter(params, seed) -> dict`` so
that :class:`~repro.experiments.runner.SweepRunner` can ship ``(entry_point
name, params, seed)`` tuples to ``ProcessPoolExecutor`` workers: plain
strings, dicts and ints pickle trivially, and the worker resolves the adapter
by name in :data:`ADAPTERS`.

Adapters return a plain dict with three keys, all JSON-serialisable:

* ``"summary"`` — the point's :class:`~repro.analysis.stats.LatencySummary`
  as a flat row (or ``None`` when the point produced no samples);
* ``"metrics"`` — a :meth:`~repro.metrics.MetricsRegistry.snapshot` of the
  point's counters and recorders;
* ``"scalars"`` — flat derived quantities (threshold benefit, cache hit
  ratio, tail fractions, ...) specific to the substrate.

Adapters draw all randomness from the ``seed`` they are handed (derived per
point by :func:`repro.experiments.scenario.point_seed`), never from global
state, which is what makes sweep results independent of worker count.

The policy axis
---------------

Every adapter accepts a ``policy`` parameter — a
:mod:`repro.core.policy` spec string (``"none"``, ``"k2"``,
``"hedge:10ms"``, ``"hedge:p95"``) — as the replication description, which is
what lets hedging ablations live in ordinary parameter grids.  Before seeds
are derived, the sweep runner passes each point through
:func:`normalize_point_params`, which canonicalises specs and rewrites
*eager* policies into the substrate's legacy parameter (``copies=k``, or
``replication=bool`` for the fat-tree).  That normalisation means a
``policy="k2"`` axis value produces the **same point parameters, seed and
artifact bytes** as the historical ``copies=2`` axis value.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.policy import (
    canonical_policy_spec,
    eager_copies,
    parse_policy,
    policy_to_spec,
)
from repro.exceptions import ConfigurationError
from repro.metrics import LatencyRecorder, MetricsRegistry


def _summary_row(samples: np.ndarray, name: str) -> Dict[str, Any]:
    return LatencyRecorder.from_samples(samples, name=name).summary().as_row()


#: The legacy per-substrate parameter an eager policy spec normalises into.
_LEGACY_REPLICATION_PARAM = {
    "queueing": "copies",
    "queueing_paired": "copies",
    "database": "copies",
    "memcached": "copies",
    "dns": "copies",
    "handshake": "copies",
    "fattree": "replication",
}


def normalize_point_params(
    entry_point: str,
    params: Dict[str, Any],
    axes: Any = (),
) -> Dict[str, Any]:
    """Canonicalise one sweep point's ``policy`` and ``churn`` parameters.

    Called by the sweep runner on every grid point *before* the point seed is
    derived.  A malformed spec therefore fails fast, before any worker is
    spawned, and two spellings of the same policy (``"hedge:0.01s"`` vs
    ``"hedge:10ms"``) — or of the same churn timeline (event order, ``0.40``
    vs ``0.4``) — share one seed.  An empty churn spec is dropped entirely,
    putting it on the exact point the static grid produces.  Eager policies are rewritten into the
    substrate's legacy parameter — ``policy="k2"`` becomes ``copies=2``
    (``replication=True`` for the fat-tree) — so policy-axis sweeps of eager
    configurations are byte-identical to the historical integer-``copies``
    sweeps, golden artifacts included.

    A ``policy`` setting replaces a legacy value coming from *base
    parameters* (which is what lets ``--set policy=hedge:p95`` re-policy a
    scenario whose base says ``copies: 2``); only a point where the legacy
    parameter is itself a swept ``axes`` member conflicts, since there the
    grid explicitly asks for both descriptions at once.

    Raises:
        ConfigurationError: On a malformed spec, a policy colliding with a
            swept legacy axis, or an eager copy count the substrate cannot
            express.
    """
    if "churn" in params:
        from repro.cluster.churn import canonical_churn_spec

        params = dict(params)
        canonical = canonical_churn_spec(params["churn"])
        if canonical:
            params["churn"] = canonical
        else:
            # An empty timeline IS the static run: dropping the key keeps
            # `churn=""` on the same point seed and artifact bytes as a
            # grid that never mentions churn at all.
            del params["churn"]
    if "policy" not in params:
        return params
    params = dict(params)
    resolved = parse_policy(params["policy"])
    legacy = _LEGACY_REPLICATION_PARAM.get(entry_point)
    if legacy is not None and legacy in params:
        if legacy in axes:
            raise ConfigurationError(
                f"point params sweep both 'policy' and {legacy!r}; the policy "
                f"axis replaces the legacy parameter — drop the {legacy!r} "
                f"axis (policy={params['policy']!r} already describes the "
                "replication)"
            )
        # The legacy value came from base params/overrides: the explicit
        # policy wins (this is what `--set policy=...` relies on).
        del params[legacy]
    eager = eager_copies(resolved)
    if eager is not None and legacy is not None:
        if entry_point == "fattree" and eager > 2:
            raise ConfigurationError(
                f"the in-network mechanism replicates along one alternate "
                f"path; policy {params['policy']!r} wants k={eager}"
            )
        del params["policy"]
        if entry_point == "fattree":
            params[legacy] = eager >= 2
        else:
            params[legacy] = eager
    else:
        params["policy"] = policy_to_spec(resolved)
    return params


def _make_distribution(params: Dict[str, Any]):
    """Build the unit-mean service-time distribution named by ``params``.

    Recognised ``distribution`` values: ``deterministic``, ``exponential``,
    ``pareto`` (``alpha``), ``weibull`` (``shape``), ``two_point`` (``p``).
    """
    from repro.distributions import Deterministic, Exponential, Pareto, TwoPoint, Weibull

    kind = str(params.get("distribution", "exponential")).lower().replace("-", "_")
    if kind == "deterministic":
        return Deterministic(1.0)
    if kind == "exponential":
        return Exponential(1.0)
    if kind == "pareto":
        return Pareto(alpha=float(params.get("alpha", 2.1)), mean=1.0)
    if kind == "weibull":
        return Weibull(shape=float(params.get("shape", 0.5))).unit_mean()
    if kind == "two_point":
        return TwoPoint(float(params.get("p", 0.9)))
    raise ConfigurationError(
        f"unknown service-time distribution {kind!r}; known: deterministic, "
        "exponential, pareto, weibull, two_point"
    )


# --------------------------------------------------------------------------- #
# Section 2.1: queueing model
# --------------------------------------------------------------------------- #


def run_queueing(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One ``run_fast`` point of the Section 2.1 replication queueing model.

    Params: ``distribution`` (+ its shape parameters), ``load``, ``copies``
    or ``policy`` (a policy spec such as ``"hedge:p95"``), ``num_servers``,
    ``num_requests``, ``warmup_fraction``, ``client_overhead``.
    """
    from repro.queueing import ReplicatedQueueingModel

    policy = params.get("policy")
    num_requests = int(params.get("num_requests", 20_000))
    model = ReplicatedQueueingModel(
        _make_distribution(params),
        num_servers=int(params.get("num_servers", 10)),
        copies=None if policy is not None else int(params.get("copies", 2)),
        client_overhead=float(params.get("client_overhead", 0.0)),
        seed=seed,
        policy=policy,
    )
    result = model.run_fast(
        float(params["load"]),
        num_requests=num_requests,
        warmup_fraction=float(params.get("warmup_fraction", 0.1)),
    )
    registry = MetricsRegistry("queueing")
    registry.counter("requests").increment(num_requests)
    registry.counter("copies_launched").increment(result.copies_launched)
    registry.recorder("latency").record_many(result.response_times)
    scalars: Dict[str, Any] = {"mean": result.mean, "p999": result.summary.p999}
    if policy is not None:
        scalars["copies_launched_per_request"] = result.copies_launched / num_requests
    return {
        "summary": result.summary.as_row(),
        "metrics": registry.snapshot(),
        "scalars": scalars,
    }


def run_queueing_paired(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A paired replication-vs-baseline point of the queueing model.

    Runs the unreplicated and the replicated configuration — ``copies`` eager
    copies or a ``policy`` spec — with the *same* seed (common random numbers,
    as the paper's testbed replayed the same workload) and reports the paired
    benefit — the quantity whose sign change defines the threshold load.
    """
    from repro.queueing import ReplicatedQueueingModel

    service = _make_distribution(params)
    load = float(params["load"])
    policy = params.get("policy")
    num_servers = int(params.get("num_servers", 10))
    num_requests = int(params.get("num_requests", 20_000))
    overhead = float(params.get("client_overhead", 0.0))

    baseline = ReplicatedQueueingModel(
        service, num_servers=num_servers, copies=1, seed=seed
    ).run_fast(load, num_requests=num_requests)
    replicated = ReplicatedQueueingModel(
        service,
        num_servers=num_servers,
        copies=None if policy is not None else int(params.get("copies", 2)),
        client_overhead=overhead,
        seed=seed,
        policy=policy,
    ).run_fast(load, num_requests=num_requests)

    registry = MetricsRegistry("queueing-paired")
    registry.counter("requests").increment(2 * num_requests)
    registry.counter("copies_launched").increment(
        num_requests + replicated.copies_launched
    )
    registry.recorder("latency_baseline").record_many(baseline.response_times)
    registry.recorder("latency_replicated").record_many(replicated.response_times)
    scalars: Dict[str, Any] = {
        "mean_baseline": baseline.mean,
        "mean_replicated": replicated.mean,
        "benefit": baseline.mean - replicated.mean,
        "replication_helps": bool(replicated.mean < baseline.mean),
        "p999_baseline": baseline.summary.p999,
        "p999_replicated": replicated.summary.p999,
    }
    if policy is not None:
        scalars["copies_launched_per_request"] = replicated.copies_launched / num_requests
    return {
        "summary": replicated.summary.as_row(),
        "metrics": registry.snapshot(),
        "scalars": scalars,
    }


# --------------------------------------------------------------------------- #
# Sections 2.2 / 2.3: storage cluster
# --------------------------------------------------------------------------- #

_DATABASE_VARIANTS = (
    "base",
    "small_files",
    "pareto_files",
    "small_cache",
    "ec2",
    "large_files",
    "all_cached",
)


def run_database(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One (load, copies-or-policy) point of the Section 2.2 disk-backed database.

    Params: ``variant`` (one of the Figure 5-11 named configurations),
    ``load``, ``copies`` or ``policy`` (e.g. ``"hedge:20ms"``), ``num_files``,
    ``num_requests``, optional ``ccdf_thresholds_ms`` (tail fractions
    reported as scalars), and optional ``churn`` (a membership-event spec
    such as ``"add:4@0.4"``) with ``migration_rate`` — churn runs export the
    before/spike/after p99 decomposition as scalars.
    """
    from repro.cluster import DatabaseClusterConfig, DatabaseClusterExperiment

    variant = str(params.get("variant", "base"))
    if variant not in _DATABASE_VARIANTS:
        raise ConfigurationError(
            f"unknown database variant {variant!r}; known: {_DATABASE_VARIANTS}"
        )
    policy = params.get("policy")
    config = getattr(DatabaseClusterConfig, variant)(
        num_files=int(params.get("num_files", 30_000)), seed=seed
    )
    experiment = DatabaseClusterExperiment(config)
    result = experiment.run(
        float(params["load"]),
        copies=None if policy is not None else int(params.get("copies", 2)),
        num_requests=int(params.get("num_requests", 15_000)),
        policy=policy,
        churn=params.get("churn"),
        migration_rate=float(params.get("migration_rate", 50.0)),
    )
    scalars: Dict[str, Any] = {
        "mean": result.mean,
        "p999": result.p999,
        "cache_hit_ratio": result.cache_hit_ratio,
    }
    if policy is not None:
        scalars["copies_launched_per_request"] = result.copies_launched / int(
            params.get("num_requests", 15_000)
        )
    if result.spike is not None:
        scalars.update(result.spike)
    for threshold_ms in params.get("ccdf_thresholds_ms", ()):
        fraction = float(np.mean(result.response_times > threshold_ms / 1000.0))
        scalars[f"frac_later_{threshold_ms:g}ms"] = fraction
    return {"summary": result.summary.as_row(), "metrics": result.metrics, "scalars": scalars}


def run_memcached(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One (load, copies-or-policy, stub) point of the Section 2.3 memcached model.

    Params: ``load``, ``copies`` or ``policy``, ``stub``, ``num_requests``,
    and optional ``churn`` (a membership-event spec such as ``"crash:1@0.4"``)
    with ``migration_rate``, ``num_keys`` and ``cold_penalty_s`` — churn runs
    export the before/spike/after p99 decomposition as scalars.
    """
    from repro.cluster import MemcachedConfig, MemcachedExperiment

    policy = params.get("policy")
    num_requests = int(params.get("num_requests", 30_000))
    config = MemcachedConfig(seed=seed)
    result = MemcachedExperiment(config).run(
        float(params["load"]),
        copies=None if policy is not None else int(params.get("copies", 2)),
        stub=bool(params.get("stub", False)),
        num_requests=num_requests,
        policy=policy,
        churn=params.get("churn"),
        migration_rate=float(params.get("migration_rate", 2000.0)),
        num_keys=int(params.get("num_keys", 20_000)),
        cold_penalty_s=float(params.get("cold_penalty_s", 0.002)),
    )
    scalars: Dict[str, Any] = {"mean": result.mean, "p999": result.summary.p999}
    if policy is not None:
        scalars["copies_launched_per_request"] = result.copies_launched / num_requests
    if result.spike is not None:
        scalars.update(result.spike)
    return {
        "summary": result.summary.as_row(),
        "metrics": result.metrics,
        "scalars": scalars,
    }


# --------------------------------------------------------------------------- #
# Section 2.4: fat-tree network
# --------------------------------------------------------------------------- #


def run_fattree(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One fat-tree run (Section 2.4) with or without in-network replication.

    Params: ``k``, ``load``, ``num_flows``, ``replication`` (bool) or
    ``policy`` (``"none"``, ``"k2"``, or deferred ``"hedge:<delay>"``),
    ``link_rate_gbps``, ``per_hop_delay_us``, ``first_packets``, and
    ``fidelity`` (``"packet"`` = full event simulation, ``"flow"`` = the
    link-share fast path of :mod:`repro.network.flow_fidelity`).
    """
    from repro.network import FatTreeExperiment, FatTreeExperimentConfig
    from repro.network.replication import ReplicationConfig

    policy = params.get("policy")
    if policy is not None:
        replication = ReplicationConfig.from_policy(
            policy, first_packets=int(params.get("first_packets", 8))
        )
    else:
        replicate = bool(params.get("replication", True))
        replication = (
            ReplicationConfig(first_packets=int(params.get("first_packets", 8)))
            if replicate
            else ReplicationConfig.disabled()
        )
    config = FatTreeExperimentConfig(
        k=int(params.get("k", 4)),
        link_rate_gbps=float(params.get("link_rate_gbps", 5.0)),
        per_hop_delay_us=float(params.get("per_hop_delay_us", 2.0)),
        load=float(params["load"]),
        num_flows=int(params.get("num_flows", 500)),
        replication=replication,
        seed=seed,
        fidelity=str(params.get("fidelity", "packet")),
    )
    result = FatTreeExperiment(config).run()
    short = result.short_flow_fcts()
    elephants = result.elephant_fcts()
    completed = result.completed()
    timeouts = sum(r.timeouts for r in result.records)
    registry = MetricsRegistry("fattree")
    registry.counter("flows").increment(len(result.records))
    registry.counter("flows_completed").increment(len(completed))
    registry.counter("dropped_packets").increment(result.dropped_packets)
    registry.counter("dropped_replicas").increment(result.dropped_replicas)
    registry.counter("timeouts").increment(timeouts)
    if short.size:
        registry.recorder("short_flow_fct").record_many(short)
    return {
        "summary": _summary_row(short, "short_flow_fct") if short.size else None,
        "metrics": registry.snapshot(),
        # median/p99 short-flow FCT and timeouts are the Figure 14(a)/(b)
        # series; the elephant mean is the "replication must not hurt the
        # elephants" sanity column of Figure 14(c).
        "scalars": {
            "short_flows_completed": int(short.size),
            "median_short_fct": float(np.median(short)) if short.size else None,
            "p99_short_fct": float(np.percentile(short, 99)) if short.size else None,
            "elephant_mean_fct": float(np.mean(elephants)) if elephants.size else None,
            "timeouts": int(timeouts),
        },
    }


# --------------------------------------------------------------------------- #
# Section 3: wide-area models
# --------------------------------------------------------------------------- #


def run_dns(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One copy-count (or policy) point of the Section 3.2 DNS experiment.

    Params: ``copies`` or ``policy`` (e.g. ``"hedge:50ms"``),
    ``num_vantage_points``, ``num_servers``, ``stage1_queries``,
    ``stage2_queries``, ``tail_threshold_s``.
    """
    from repro.wan import DnsExperiment, DnsExperimentConfig

    policy = params.get("policy")
    threshold_s = float(params.get("tail_threshold_s", 0.5))
    if policy is not None:
        resolved = parse_policy(policy)
        config = DnsExperimentConfig(
            num_vantage_points=int(params.get("num_vantage_points", 6)),
            num_servers=int(params.get("num_servers", max(resolved.max_copies, 5))),
            stage1_queries_per_server=int(params.get("stage1_queries", 150)),
            stage2_queries_per_config=int(params.get("stage2_queries", 600)),
            seed=seed,
        )
        result = DnsExperiment(config).run_policy(resolved)
        summary = result.summary()
        registry = MetricsRegistry("dns")
        registry.counter("queries").increment(result.queries_launched + result.num_trials)
        registry.recorder("latency").record_many(result.samples)
        tail = result.tail_improvement(threshold_s)
        return {
            "summary": summary.as_row(),
            "metrics": registry.snapshot(),
            "scalars": {
                "mean_ms": summary.mean * 1000.0,
                "mean_reduction_pct": result.reduction_percent["mean"],
                "median_reduction_pct": result.reduction_percent["median"],
                "p95_reduction_pct": result.reduction_percent["p95"],
                "p99_reduction_pct": result.reduction_percent["p99"],
                "frac_later": result.fraction_later_than(threshold_s),
                "tail_improvement": None if not np.isfinite(tail) else float(tail),
                # The policy's traffic cost: the eager k policy pays k per
                # trial, hedging pays only for backups that actually fired.
                "queries_per_trial": result.mean_queries_per_trial,
            },
        }

    copies = int(params.get("copies", 2))
    config = DnsExperimentConfig(
        num_vantage_points=int(params.get("num_vantage_points", 6)),
        num_servers=int(params.get("num_servers", max(copies, 5))),
        stage1_queries_per_server=int(params.get("stage1_queries", 150)),
        stage2_queries_per_config=int(params.get("stage2_queries", 600)),
        seed=seed,
    )
    copies_list = sorted({1, copies})
    results = DnsExperiment(config).run(copies_list=copies_list)
    summary = results.summary(copies)
    registry = MetricsRegistry("dns")
    registry.counter("queries").increment(
        len(copies_list) * config.num_vantage_points * config.stage2_queries_per_config
    )
    registry.recorder("latency").record_many(results.samples_by_copies[copies])
    return {
        "summary": summary.as_row(),
        "metrics": registry.snapshot(),
        # The four reduction percentages are exactly the Figure 16 series
        # (mean/median/95th/99th vs the best single server); frac_later and
        # tail_improvement are the Figure 15 CDF-tail quantities.
        "scalars": {
            "mean_ms": summary.mean * 1000.0,
            "mean_reduction_pct": results.reduction_percent["mean"][copies],
            "median_reduction_pct": results.reduction_percent["median"][copies],
            "p95_reduction_pct": results.reduction_percent["p95"][copies],
            "p99_reduction_pct": results.reduction_percent["p99"][copies],
            "frac_later": results.fraction_later_than(threshold_s, copies),
            "tail_improvement": (
                None
                if copies == 1 or not np.isfinite(results.tail_improvement(threshold_s, copies))
                else float(results.tail_improvement(threshold_s, copies))
            ),
        },
    }


def run_handshake(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One copy-count (or policy) point of the Section 3.1 TCP-handshake model.

    Params: ``copies`` or ``policy`` (``"none"``, ``"k2"``, or deferred
    ``"hedge:<delay>"``), ``rtt``, ``num_samples``.
    """
    from repro.wan import HandshakeModel

    model = HandshakeModel(rtt=float(params.get("rtt", 0.05)))
    num_samples = int(params.get("num_samples", 50_000))
    policy = params.get("policy")
    if policy is not None:
        samples, backups = model.sample_completion_times_policy(
            policy, num_samples, np.random.default_rng(seed)
        )
        registry = MetricsRegistry("handshake")
        registry.counter("handshakes").increment(num_samples)
        registry.counter("backup_packets").increment(int(backups))
        registry.recorder("completion_time").record_many(samples)
        return {
            "summary": _summary_row(samples, "handshake"),
            "metrics": registry.snapshot(),
            "scalars": {
                "loss_probability": model.loss_probability(1),
                "backup_packets_per_handshake": backups / num_samples,
            },
        }

    copies = int(params.get("copies", 2))
    samples = model.sample_completion_times(
        copies, num_samples, np.random.default_rng(seed)
    )
    registry = MetricsRegistry("handshake")
    registry.counter("handshakes").increment(num_samples)
    registry.recorder("completion_time").record_many(samples)
    return {
        "summary": _summary_row(samples, "handshake"),
        "metrics": registry.snapshot(),
        "scalars": {
            "loss_probability": model.loss_probability(copies),
            "expected_completion_s": model.expected_completion_time(copies),
            "expected_savings_s": model.expected_savings(copies) if copies > 1 else 0.0,
        },
    }


# --------------------------------------------------------------------------- #
# Beyond the paper: redundant job pipelines (repro.pipeline)
# --------------------------------------------------------------------------- #


def run_pipeline(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One policy point of the straggler-hedged job-pipeline substrate.

    Params: ``policy`` (any spec; applied per chunk), ``num_jobs``,
    ``num_workers``, ``num_chunks`` (first-stage chunk count; later stages
    shrink with ``output_ratio``), ``num_stages``, ``output_ratio``,
    ``chunk_alpha`` (chunk-size tail index), ``straggler_alpha`` (machine
    tail index), ``seconds_per_unit``, ``total_work``, ``fail_prob`` and
    ``restart_s``.  The summary row is over *job completion times* (the
    fan-in max, not per-request latencies); ``wasted_work_fraction`` is the
    cost axis of the completion-time-vs-waste frontier.

    Note: ``policy`` stays a spec here (no legacy ``copies`` rewrite) — the
    pipeline substrate has no historical integer-copies parameter.
    """
    from repro.pipeline import (
        JobSpec,
        PipelineConfig,
        PipelineExperiment,
        StageSpec,
        WorkerPool,
    )

    num_stages = int(params.get("num_stages", 1))
    num_chunks = int(params.get("num_chunks", 32))
    output_ratio = float(params.get("output_ratio", 0.5))
    chunk_alpha = float(params.get("chunk_alpha", 1.6))
    stages = []
    for stage_index in range(num_stages):
        chunks = max(1, int(round(num_chunks * output_ratio**stage_index)))
        stages.append(
            StageSpec(
                num_chunks=chunks, size_alpha=chunk_alpha, output_ratio=output_ratio
            )
        )
    config = PipelineConfig(
        job=JobSpec(total_work=float(params.get("total_work", 100.0)), stages=stages),
        pool=WorkerPool(
            num_workers=int(params.get("num_workers", 16)),
            seconds_per_unit=float(params.get("seconds_per_unit", 0.02)),
            straggler_alpha=float(params.get("straggler_alpha", 1.5)),
            fail_probability=float(params.get("fail_prob", 0.0)),
            restart_s=float(params.get("restart_s", 1.0)),
        ),
        policy=params.get("policy", "none"),
        num_jobs=int(params.get("num_jobs", 150)),
        seed=seed,
    )
    result = PipelineExperiment(config).run()
    scalars: Dict[str, Any] = {
        "wasted_work_fraction": result.wasted_work_fraction,
        "useful_work_s": result.useful_work_s,
        "wasted_work_s": result.wasted_work_s,
        "copies_per_chunk": result.copies_per_chunk,
        "cancelled_per_chunk": (
            result.copies_cancelled / result.chunks if result.chunks else 0.0
        ),
    }
    for stage_index in range(result.num_stages):
        scalars[f"stage{stage_index}_makespan_mean_s"] = float(
            np.mean(result.stage_makespan_s[:, stage_index])
        )
    # result.path (event vs fast) is deliberately NOT reported: the two
    # paths give bit-identical results, so artifacts must not tell them apart.
    return {
        "summary": result.summary().as_row(),
        "metrics": result.metrics,
        "scalars": scalars,
    }


#: Registry of picklable entry points, keyed by the name scenarios use.
ADAPTERS: Dict[str, Callable[[Dict[str, Any], int], Dict[str, Any]]] = {
    "queueing": run_queueing,
    "queueing_paired": run_queueing_paired,
    "database": run_database,
    "memcached": run_memcached,
    "fattree": run_fattree,
    "dns": run_dns,
    "handshake": run_handshake,
    "pipeline": run_pipeline,
}


def resolve_adapter(entry_point: str) -> Callable[[Dict[str, Any], int], Dict[str, Any]]:
    """Look up an adapter by entry-point name.

    Raises:
        ConfigurationError: If the name is not registered.
    """
    adapter = ADAPTERS.get(entry_point)
    if adapter is None:
        raise ConfigurationError(
            f"unknown entry point {entry_point!r}; known: {sorted(ADAPTERS)}"
        )
    return adapter
