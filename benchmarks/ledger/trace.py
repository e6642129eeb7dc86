"""Span tracer for the ledger benchmark: times the program's layers from outside.

The tracer never edits ``src/``.  :meth:`Tracer.install` replaces layer
functions with wrappers, at every binding callers actually use: a
``from x import f`` copy is a separate name, so each function is patched in
every ``repro.*`` module that binds it (``simulate_cancelling_arrivals``, for
one, is bound in ``core.cancellation``, ``cluster.database``,
``cluster.memcached`` and ``pipeline.executor``), and class methods are
patched on the class.  :meth:`Tracer.uninstall` restores the originals.

A synchronous wrapper records a span ``(id, parent, name, layer, start,
end)``; spans stay in memory until :meth:`Tracer.take` hands them over.
Coroutine functions (``request``, ``handle``, ``sleep``) are counted, not
timed: their wall span would include every other task that ran while they
were suspended.  Work done inside coroutine bodies is therefore part of the
root span's self time.

Every function is assigned to one of five layers that both programs have —
the sweep fleet and the serving proxy — so every layer has a measured time
on every workload:

``dispatch``  the driving loop: sweep expansion, the runner's point loop and
              artifact I/O; on the serve workloads the load generator, the
              report, and the asyncio race path (tasks, ``asyncio.wait``,
              coroutine bodies), which is the root span's untimed residual;
``engine``    the simulation or reservation engine: substrate runs, LRU and
              FIFO kernels, the cancelling and hedged engines, the pipeline
              stages, policy planning, and the proxy's synchronous
              ``submit*`` paths with the backends' reservation math;
``draws``     seeded random draws of service times, placements and traffic;
``placement`` the consistent-hash ring and replica lookups;
``recording`` latency recorders, metric snapshots and adaptive-policy
              feedback.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names, in report order.
LAYERS = ("dispatch", "engine", "draws", "placement", "recording")

#: What to wrap, per layer: ``"module:function"`` patches every binding of a
#: module-level function; ``"module:Class"`` patches the class's own public
#: methods and ``__init__``; ``"module:Class.method"`` patches one method.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "dispatch": (
        "repro.experiments.adapters:normalize_point_params",
        "repro.experiments.scenario:point_seed",
        "repro.experiments.artifact:ArtifactWriter",
        "repro.experiments.timing:TimingWriter",
        "repro.serve.report:RunReport.to_json",
        "repro.serve.proxy:RedundancyProxy.request",
        "repro.serve.proxy:RedundancyProxy.drain",
        "repro.serve.backends:SimBackend.handle",
        "repro.serve.clock:RealClock.sleep",
        "repro.serve.clock:VirtualClock.sleep",
    ),
    "engine": (
        "repro.experiments.adapters:ADAPTERS",
        "repro.cluster.database:DatabaseClusterExperiment.run",
        "repro.cluster.memcached:MemcachedExperiment.run",
        "repro.queueing.replication_model:ReplicatedQueueingModel.run_fast",
        "repro.queueing.replication_model:ReplicatedQueueingModel.run_event_driven",
        "repro.pipeline.experiment:PipelineExperiment.run",
        "repro.pipeline.executor:run_stage_event",
        "repro.pipeline.fastpath:run_stage_fast",
        "repro.core.cancellation:simulate_cancelling_arrivals",
        "repro.core.policy:simulate_hedged_arrivals",
        "repro.core.policy:ReplicationPolicy.plan",
        "repro.cluster.lru_kernel:lru_hit_flags",
        "repro.cluster.cache:LRUByteCache.warm_with",
        "repro.cluster.cache:LRUByteCache.access_many",
        "repro.cluster.draws:sequential_finish_times",
        "repro.serve.proxy:RedundancyProxy.submit_batch",
        "repro.serve.proxy:RedundancyProxy.submit_nowait",
        "repro.serve.backends:SimBackend.submit",
        "repro.serve.backends:SimBackend.submit_many",
    ),
    "draws": (
        "repro.cluster.draws:exact_disk_services",
        "repro.cluster.disk:DiskModel.sample_service_time",
        "repro.pipeline.job:partition_chunks",
        "repro.pipeline.workers:service_times",
        "repro.pipeline.workers:draw_placements",
        "repro.serve.backends:SimBackend.draw_service",
        "repro.serve.backends:SimBackend.draw_many",
        "repro.workloads.arrivals:PoissonArrivals.times_count",
        "repro.workloads.arrivals:PoissonArrivals.times_until",
    ),
    "placement": (
        "repro.cluster.consistent_hash:ConsistentHashRing",
        "repro.cluster.churn:plan_migrations",
        "repro.cluster.churn:ChurnTimeline.epoch_rings",
        "repro.serve.proxy:RedundancyProxy.replicas",
        "repro.serve.proxy:RedundancyProxy.prepare_keyspace",
        "repro.serve.proxy:RedundancyProxy.add_backend",
        "repro.serve.proxy:RedundancyProxy.remove_backend",
    ),
    "recording": (
        "repro.metrics.recorder:LatencyRecorder",
        "repro.metrics.registry:MetricsRegistry.snapshot",
        "repro.core.policy:ReplicationPolicy.record_latency",
        "repro.core.policy:HedgeOnPercentile.record_latency",
        "repro.cluster.churn:spike_metrics",
    ),
}

#: A finished span: (id, parent id or -1, name, layer, start, end).
Span = Tuple[int, int, str, str, float, float]


class Tracer:
    """Installs span wrappers, keeps spans in memory and reduces them."""

    def __init__(self) -> None:
        self.calls: collections.Counter = collections.Counter()
        self._spans: List[Optional[Span]] = []
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------ #
    # Spans

    def _open(self) -> Tuple[int, int]:
        span_id = len(self._spans)
        self._spans.append(None)
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, layer: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._spans[span_id] = (span_id, parent, name, layer, start, end)

    def run(self, name: str, layer: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn()`` inside a root span; its untimed residual goes to ``layer``."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(span_id, parent, name, layer, start)

    def take(self) -> List[Span]:
        """Hand over (and forget) every finished span, in opening order."""
        spans = [span for span in self._spans if span is not None]
        self._spans = []
        self._stack = [-1]
        return spans

    # ------------------------------------------------------------------ #
    # Wrappers

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A wrapper of ``fn`` that counts its calls and, unless it is a
        coroutine function, records a span for each."""
        calls = self.calls
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        tracer = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, layer, start)

        return timed

    def _patch(self, owner: Any, attr: str, wrapper: Any, is_item: bool = False) -> None:
        original = owner[attr] if is_item else getattr(owner, attr)
        self._patches.append((owner, attr, original, is_item))
        if is_item:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def _patch_function(self, fn: Callable, name: str, layer: str) -> None:
        wrapper = self.wrap(fn, name, layer)
        for module_name, module in sorted(sys.modules.items()):
            if module_name.startswith("repro.") and getattr(module, fn.__name__, None) is fn:
                self._patch(module, fn.__name__, wrapper)

    def _patch_method(self, cls: type, attr: str, name: str, layer: str) -> None:
        self._patch(cls, attr, self.wrap(cls.__dict__[attr], name, layer))

    def install(self, targets: Dict[str, Tuple[str, ...]] = TARGETS) -> None:
        """Wrap every target; modules are imported so their bindings exist."""
        for layer, specs in targets.items():
            for spec in specs:
                module_name, _, attr_path = spec.partition(":")
                module = importlib.import_module(module_name)
                short = module_name[len("repro."):]
                head, _, method = attr_path.partition(".")
                obj = getattr(module, head)
                if isinstance(obj, dict):
                    # A registry of entry points (the sweep adapters).
                    for key in sorted(obj):
                        fn = obj[key]
                        self._patch(obj, key, self.wrap(fn, f"{short}.{fn.__name__}", layer), True)
                elif inspect.isclass(obj) and method:
                    self._patch_method(obj, method, f"{short}.{attr_path}", layer)
                elif inspect.isclass(obj):
                    for attr, value in sorted(vars(obj).items()):
                        if inspect.isfunction(value) and (
                            attr == "__init__" or not attr.startswith("_")
                        ):
                            self._patch_method(obj, attr, f"{short}.{head}.{attr}", layer)
                else:
                    self._patch_function(obj, f"{short}.{head}", layer)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original, is_item = self._patches.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def self_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Self time (duration minus child spans) summed per layer and per name."""
    child_time = collections.defaultdict(float)
    for _id, parent, _name, _layer, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_layer = dict.fromkeys(LAYERS, 0.0)
    by_name: Dict[str, float] = collections.defaultdict(float)
    for span_id, _parent, name, layer, start, end in spans:
        own = (end - start) - child_time[span_id]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        by_name[name] += own
    return by_layer, dict(by_name)
