"""Replication and hedging policies — the one currency for "how is this request replicated".

A policy answers one question: *for this request, how many copies should be
issued, and after what delays?*  The answer is a :class:`RequestPlan` — a
launch-delay schedule plus cancellation semantics.  ``(0.0,)`` means a single
un-replicated request, ``(0.0, 0.0)`` means the paper's eager 2-copy
replication, ``(0.0, 0.010)`` means a hedge fired after 10 ms (Dean &
Barroso's "hedged request", discussed in the paper's related work as a variant
that trades a little mean improvement for much less added load).

Policies are consumed by every executor in the repository:

* the two live executors, which run one race
  (:class:`~repro.core.hedging.Racer`): the asyncio client
  (:mod:`repro.core.hedging` — ``hedged_call``, ``first_completed`` and
  :class:`~repro.core.hedging.RedundantClient`) and the serving proxy
  (:mod:`repro.serve`);
* all six simulator substrates — the Section 2.1 queueing model
  (:class:`repro.queueing.ReplicatedQueueingModel`), the Section 2.2/2.3
  cluster experiments (:class:`repro.cluster.DatabaseClusterExperiment`,
  :class:`repro.cluster.MemcachedExperiment`), the Section 2.4 fat-tree
  network (via :meth:`repro.network.replication.ReplicationConfig.from_policy`),
  the Section 3 wide-area models (:class:`repro.wan.DnsExperiment`,
  :class:`repro.wan.HandshakeModel`) and the job pipelines
  (:mod:`repro.pipeline`).  The queueing, cluster and pipeline substrates
  run hedged plans through one FIFO hedging engine,
  :func:`repro.core.cancellation.simulate_cancelling_arrivals`; its fast
  case for plans that never cancel is :func:`simulate_hedged_arrivals`;
* the threshold search (:mod:`repro.core.thresholds`);
* the scenario-sweep subsystem (:mod:`repro.experiments`), where policies
  appear as **spec strings** on a ``policy`` axis.

That shared currency is what makes ablation experiments (eager vs deferred
hedging) a one-line change anywhere.

Policy specs
------------

A *policy spec* is a short, JSON/pickle-friendly string describing a policy,
so policies can live in :class:`~repro.experiments.grid.ParameterGrid` axes,
sweep artifacts and process-pool workers:

====================  =====================================================
spec                  policy
====================  =====================================================
``"none"``            :class:`NoReplication`
``"k2"``, ``"k3"``    :class:`KCopies` (eager; the paper's scheme)
``"hedge:10ms"``      :class:`HedgeAfterDelay` with a 10 ms hedge delay
``"hedge:p95"``       :class:`HedgeOnPercentile` at the 95th percentile
====================  =====================================================

Hedge specs take optional ``:``-separated suffix segments: ``x<N>`` (number
of backup copies), ``nocancel`` (do not cancel losers on win), and — for the
percentile form — ``i<delay>`` (initial delay) and ``w<N>`` (window size).
Delays are a number plus a unit (``us``, ``ms`` or ``s``; a bare number means
seconds).  :func:`parse_policy` and :func:`policy_to_spec` round-trip every
policy type; :func:`canonical_policy_spec` normalises a spec (e.g.
``"hedge:0.01s"`` → ``"hedge:10ms"``) so equal policies share one spelling.
"""

from __future__ import annotations

import abc
import heapq
import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.metrics import SlidingWindow


@dataclass(frozen=True)
class RequestPlan:
    """How one request is replicated: launch schedule + cancellation semantics.

    Attributes:
        launch_delays: Delays (seconds, relative to the request) at which to
            launch copies; the first entry is always ``0.0`` (the original
            request) and the length is the total number of copies.
        cancel_on_win: Whether copies still outstanding when the first copy
            completes should be cancelled (hedged requests) or left to run to
            completion (the paper's eager scheme, where every copy is served
            fully).
    """

    launch_delays: Tuple[float, ...]
    cancel_on_win: bool = False

    @property
    def copies(self) -> int:
        """Total number of copies (including the original)."""
        return len(self.launch_delays)

    @property
    def is_eager(self) -> bool:
        """Whether every copy is launched immediately (all delays zero)."""
        return all(d == 0.0 for d in self.launch_delays)


class ReplicationPolicy(abc.ABC):
    """Decides how many copies of a request to launch and when."""

    #: Whether losing copies are cancelled once a winner completes.  Eager
    #: policies default to ``False`` (the paper's model serves every copy to
    #: completion); hedging policies default to ``True`` (Dean & Barroso's
    #: "cancel outstanding requests").
    cancel_on_win: bool = False

    #: Whether :meth:`launch_delays` is a constant — ``False`` for adaptive
    #: policies whose schedule depends on observed latencies.  Simulators use
    #: this to decide between a vectorised single plan and per-request plans.
    is_static: bool = True

    @abc.abstractmethod
    def launch_delays(self) -> List[float]:
        """Delays (seconds, relative to the request) at which to launch copies.

        The first entry is always 0.0 (the original request).  The length of
        the list is the total number of copies, including the original.
        """

    def plan(self) -> RequestPlan:
        """The per-request plan: launch schedule plus cancellation semantics.

        Adaptive policies return a plan that tracks the latencies recorded
        so far; static policies return an equal plan every time.
        """
        return RequestPlan(tuple(self.launch_delays()), cancel_on_win=self.cancel_on_win)

    @property
    def max_copies(self) -> int:
        """Upper bound on the number of copies this policy can launch."""
        return len(self.launch_delays())

    def record_latency(self, latency: float) -> None:
        """Feed an observed request latency back into the policy.

        Adaptive policies (e.g. :class:`HedgeOnPercentile`) use this to set
        their hedge delay; static policies ignore it.
        """


class NoReplication(ReplicationPolicy):
    """The baseline: a single copy, no redundancy."""

    def launch_delays(self) -> List[float]:
        """Always ``[0.0]``."""
        return [0.0]


class KCopies(ReplicationPolicy):
    """Eager replication: launch ``k`` copies immediately (the paper's scheme)."""

    def __init__(self, copies: int = 2) -> None:
        """Create an eager policy with ``copies`` total copies (>= 1)."""
        if copies < 1 or int(copies) != copies:
            raise ConfigurationError(f"copies must be a positive integer, got {copies!r}")
        self.copies = int(copies)

    def launch_delays(self) -> List[float]:
        """``copies`` zeros: every copy is launched immediately."""
        return [0.0] * self.copies


class HedgeAfterDelay(ReplicationPolicy):
    """Deferred hedging: launch a backup copy only if the first is still pending.

    This is the classic "hedged request": the duplicate is issued after a
    fixed delay, so most requests (those that complete quickly) never incur
    the extra load.  Compared with eager :class:`KCopies` it adds far less
    utilisation but recovers less of the mean-latency benefit — the ablation
    scenarios quantify the difference.
    """

    def __init__(self, delay: float, extra_copies: int = 1, cancel_on_win: bool = True) -> None:
        """Create a deferred-hedge policy.

        Args:
            delay: Seconds to wait before launching each backup copy (>= 0).
            extra_copies: Number of backup copies (>= 1).
            cancel_on_win: Cancel outstanding copies once a winner completes
                (honoured by every executor that can cancel: the asyncio
                client, the serving proxy and the event-driven simulators);
                ``False`` lets the losers run to completion.
        """
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay!r}")
        if extra_copies < 1 or int(extra_copies) != extra_copies:
            raise ConfigurationError(
                f"extra_copies must be a positive integer, got {extra_copies!r}"
            )
        self.delay = float(delay)
        self.extra_copies = int(extra_copies)
        self.cancel_on_win = bool(cancel_on_win)

    def launch_delays(self) -> List[float]:
        """``[0, delay, 2*delay, ...]`` — backups are staggered."""
        return [0.0] + [self.delay * (i + 1) for i in range(self.extra_copies)]


class HedgeOnPercentile(ReplicationPolicy):
    """Adaptive hedging: the backup fires at an observed latency percentile.

    The hedge delay tracks the ``percentile``-th percentile of recently
    observed latencies (e.g. fire the backup once the request has been
    outstanding longer than 95% of requests normally take).  Until enough
    latencies have been observed, the policy falls back to
    ``initial_delay``.
    """

    is_static = False

    def __init__(
        self,
        percentile: float = 95.0,
        initial_delay: float = 0.05,
        window: int = 1000,
        extra_copies: int = 1,
        cancel_on_win: bool = True,
    ) -> None:
        """Create an adaptive hedge policy.

        Args:
            percentile: Latency percentile (0-100, exclusive of the ends) at
                which the backup fires.
            initial_delay: Hedge delay used before any latencies are recorded.
            window: Number of most recent latencies to keep.
            extra_copies: Number of backup copies.
            cancel_on_win: Cancel outstanding copies once a winner completes
                (honoured by every executor that can cancel, as for
                :class:`HedgeAfterDelay`).
        """
        if not 0.0 < percentile < 100.0:
            raise ConfigurationError(f"percentile must be in (0, 100), got {percentile!r}")
        if initial_delay < 0:
            raise ConfigurationError(f"initial_delay must be >= 0, got {initial_delay!r}")
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window!r}")
        if extra_copies < 1:
            raise ConfigurationError(f"extra_copies must be >= 1, got {extra_copies!r}")
        self.percentile = float(percentile)
        self.initial_delay = float(initial_delay)
        self.window = int(window)
        self.extra_copies = int(extra_copies)
        self.cancel_on_win = bool(cancel_on_win)
        # Incrementally sorted window: percentile queries on the hot path
        # (one per request issued) are O(1) instead of an O(n log n) re-sort.
        self._window = SlidingWindow(self.window)
        # The plan only changes when the window does.
        self._plan: Optional[RequestPlan] = None

    @property
    def _latencies(self) -> List[float]:
        """The retained window in arrival order (kept for introspection)."""
        return self._window.values()

    def record_latency(self, latency: float) -> None:
        """Add an observed latency (seconds) to the sliding window."""
        if latency < 0:
            raise ConfigurationError(f"latency must be >= 0, got {latency!r}")
        self._window.record(float(latency))
        self._plan = None

    def current_delay(self) -> float:
        """The hedge delay that would be used for the next request.

        The percentile uses linear interpolation between order statistics
        (numpy's convention, shared by every summary in this repository); the
        pre-metrics implementation selected the nearest sample at or above
        the rank, so small windows can yield slightly smaller delays than
        before.
        """
        if len(self._window) < 10:
            return self.initial_delay
        return self._window.percentile(self.percentile)

    def launch_delays(self) -> List[float]:
        """``[0, d, 2d, ...]`` where ``d`` is the current percentile delay."""
        delay = self.current_delay()
        return [0.0] + [delay * (i + 1) for i in range(self.extra_copies)]

    def plan(self) -> RequestPlan:
        """The plan for the current window: one object until the next :meth:`record_latency`.

        Requests that arrive together, with no latency recorded between
        them, share the plan instead of each building an equal one.
        """
        if self._plan is None:
            self._plan = super().plan()
        return self._plan


# --------------------------------------------------------------------------- #
# Policy specs: the serialisable mini-language
# --------------------------------------------------------------------------- #

#: What substrates accept wherever "a policy" is expected: a policy object, a
#: spec string, or an integer copy count (sugar for :class:`KCopies`).
PolicyLike = Union[ReplicationPolicy, str, int]

_DELAY_RE = re.compile(r"^([0-9eE+.\-]+)(us|ms|s)?$")
_DELAY_SCALES = {"us": 1e-6, "ms": 1e-3, "s": 1.0, None: 1.0}


def _parse_delay(text: str, spec: str) -> float:
    """Parse ``"10ms"`` / ``"0.5s"`` / ``"250us"`` / ``"0.01"`` into seconds."""
    match = _DELAY_RE.match(text)
    value: Optional[float] = None
    if match:
        try:
            value = float(match.group(1)) * _DELAY_SCALES[match.group(2)]
        except ValueError:
            value = None
    if value is None or value < 0:
        raise ConfigurationError(
            f"bad delay {text!r} in policy spec {spec!r}; expected a non-negative "
            "number with an optional unit (us, ms, s), e.g. '10ms'"
        )
    return value


def _format_delay(seconds: float) -> str:
    """Render a delay in the largest unit that round-trips exactly."""
    if seconds >= 1.0 or seconds == 0.0:
        unit, scale = "s", 1.0
    elif seconds >= 1e-3:
        unit, scale = "ms", 1e-3
    else:
        unit, scale = "us", 1e-6
    text = f"{seconds / scale:.12g}"
    if float(text) * scale == seconds:
        return f"{text}{unit}"
    return f"{seconds!r}s"


def _parse_int(text: str, spec: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"bad {what} {text!r} in policy spec {spec!r}") from None


def _parse_hedge(spec: str, body: List[str]) -> ReplicationPolicy:
    """Parse the segments after ``hedge:`` into a hedge policy."""
    if not body or not body[0]:
        raise ConfigurationError(
            f"policy spec {spec!r} needs a hedge trigger: a delay ('hedge:10ms') "
            "or a percentile ('hedge:p95')"
        )
    head, extras = body[0], body[1:]
    extra_copies = 1
    cancel_on_win = True
    initial_delay: Optional[float] = None
    window: Optional[int] = None
    for segment in extras:
        if segment == "nocancel":
            cancel_on_win = False
        elif segment.startswith("x"):
            extra_copies = _parse_int(segment[1:], spec, "extra-copies count")
        elif segment.startswith("i"):
            initial_delay = _parse_delay(segment[1:], spec)
        elif segment.startswith("w"):
            window = _parse_int(segment[1:], spec, "window size")
        else:
            raise ConfigurationError(
                f"unknown segment {segment!r} in policy spec {spec!r}; known "
                "segments: x<N> (extra copies), nocancel, i<delay>, w<N>"
            )
    if head.startswith("p"):
        try:
            percentile = float(head[1:])
        except ValueError:
            raise ConfigurationError(
                f"bad percentile {head!r} in policy spec {spec!r}"
            ) from None
        kwargs = {}
        if initial_delay is not None:
            kwargs["initial_delay"] = initial_delay
        if window is not None:
            kwargs["window"] = window
        return HedgeOnPercentile(
            percentile, extra_copies=extra_copies, cancel_on_win=cancel_on_win, **kwargs
        )
    if initial_delay is not None or window is not None:
        raise ConfigurationError(
            f"policy spec {spec!r}: i<delay>/w<N> segments apply only to the "
            "percentile form ('hedge:p95:...')"
        )
    return HedgeAfterDelay(
        _parse_delay(head, spec), extra_copies=extra_copies, cancel_on_win=cancel_on_win
    )


def parse_policy(spec: PolicyLike) -> ReplicationPolicy:
    """Turn a policy spec (or policy, or copy count) into a :class:`ReplicationPolicy`.

    Accepts a :class:`ReplicationPolicy` (returned unchanged), an integer copy
    count (sugar for :class:`KCopies`), or a spec string — see the module
    docstring for the grammar.

    Raises:
        ConfigurationError: On a malformed spec or an unsupported type.
    """
    if isinstance(spec, ReplicationPolicy):
        return spec
    if isinstance(spec, bool):
        raise ConfigurationError(f"cannot interpret {spec!r} as a replication policy")
    if isinstance(spec, int):
        return NoReplication() if spec == 1 else KCopies(spec)
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"expected a ReplicationPolicy, spec string or copy count, got {spec!r}"
        )
    text = spec.strip().lower()
    if text == "none":
        return NoReplication()
    if re.fullmatch(r"k\d+", text):
        copies = int(text[1:])
        return NoReplication() if copies == 1 else KCopies(copies)
    if text.startswith("hedge:"):
        return _parse_hedge(spec, text[len("hedge:"):].split(":"))
    raise ConfigurationError(
        f"unknown policy spec {spec!r}; expected 'none', 'k<N>' (e.g. 'k2'), "
        "'hedge:<delay>' (e.g. 'hedge:10ms') or 'hedge:p<P>' (e.g. 'hedge:p95')"
    )


def policy_to_spec(policy: ReplicationPolicy) -> str:
    """The canonical spec string of ``policy`` (inverse of :func:`parse_policy`).

    Only non-default segments are emitted, so the output is the shortest spec
    that reconstructs the policy.

    Raises:
        ConfigurationError: For policy types the spec language cannot express
            (custom subclasses included — a subclass may change behaviour the
            spec could not reconstruct).
    """
    if type(policy) is HedgeOnPercentile:
        parts = [f"hedge:p{policy.percentile:.12g}"]
        if policy.initial_delay != 0.05:
            parts.append(f"i{_format_delay(policy.initial_delay)}")
        if policy.window != 1000:
            parts.append(f"w{policy.window}")
        if policy.extra_copies != 1:
            parts.append(f"x{policy.extra_copies}")
        if not policy.cancel_on_win:
            parts.append("nocancel")
        return ":".join(parts)
    if type(policy) is HedgeAfterDelay:
        parts = [f"hedge:{_format_delay(policy.delay)}"]
        if policy.extra_copies != 1:
            parts.append(f"x{policy.extra_copies}")
        if not policy.cancel_on_win:
            parts.append("nocancel")
        return ":".join(parts)
    if type(policy) is KCopies:
        return f"k{policy.copies}"
    if type(policy) is NoReplication:
        return "none"
    raise ConfigurationError(
        f"policy {type(policy).__name__} has no spec representation; "
        "pass the policy object directly instead of a spec"
    )


def canonical_policy_spec(spec: PolicyLike) -> str:
    """Normalise a spec so equal policies share one spelling (``'hedge:0.01s'`` → ``'hedge:10ms'``)."""
    return policy_to_spec(parse_policy(spec))


def eager_copies(policy: ReplicationPolicy) -> Optional[int]:
    """``k`` if ``policy`` is exactly the legacy eager ``copies=k`` scheme, else ``None``.

    Simulators use this to route eager policies through their original
    vectorised implementations, which keeps ``policy="k2"`` byte-identical to
    the historical ``copies=2`` code path.  A policy qualifies when its plan
    is static, launches every copy immediately and never cancels.
    """
    if not policy.is_static:
        return None
    plan = policy.plan()
    if plan.is_eager and not plan.cancel_on_win:
        return plan.copies
    return None


def resolve_policy(
    policy: Optional[PolicyLike] = None,
    copies: Optional[int] = None,
    default_copies: int = 2,
) -> ReplicationPolicy:
    """Resolve the ``policy=`` / ``copies=`` pair every substrate accepts.

    Exactly one of ``policy`` and ``copies`` may be given; ``copies=k`` is
    sugar for :class:`KCopies` (``k=1`` for :class:`NoReplication`), and when
    neither is given the substrate's ``default_copies`` applies.

    Raises:
        ConfigurationError: If both are given, or either is invalid.
    """
    if policy is not None and copies is not None:
        raise ConfigurationError(
            "pass either policy= or copies=, not both (copies=k is sugar for "
            "the eager 'k<N>' policy)"
        )
    if policy is not None:
        return parse_policy(policy)
    k = default_copies if copies is None else copies
    if k != int(k):
        raise ConfigurationError(f"copies must be a positive integer, got {copies!r}")
    k = int(k)
    return NoReplication() if k == 1 else KCopies(k)


def resolve_run_policy(
    policy: Optional[PolicyLike],
    copies: Optional[int],
    default_copies: int,
) -> Tuple[Optional[ReplicationPolicy], int]:
    """Resolve a substrate ``run()``'s ``(policy=, copies=)`` pair.

    The shared front door of every simulator's run method.  Returns
    ``(hedged, k)``: ``hedged`` is ``None`` when the run should take the
    substrate's legacy eager path with ``k`` copies — because ``copies=`` was
    used (or defaulted), or because the policy is exactly the eager scheme
    (:func:`eager_copies`), keeping ``policy="k2"`` byte-identical to
    ``copies=2``.  Otherwise ``hedged`` is the parsed policy and ``k`` its
    maximum copy count.

    Raises:
        ConfigurationError: If both ``policy`` and ``copies`` are given, or
            the spec is malformed.
    """
    if policy is not None:
        if copies is not None:
            raise ConfigurationError("pass either policy= or copies=, not both")
        hedged = parse_policy(policy)
        eager = eager_copies(hedged)
        if eager is not None:
            return None, eager
        return hedged, int(hedged.max_copies)
    return None, int(default_copies if copies is None else copies)


def run_policy_spec(hedged: Optional[ReplicationPolicy], k: int) -> Optional[str]:
    """The canonical spec of a :func:`resolve_run_policy` result, for reporting.

    ``None`` only for policy objects the spec language cannot express.
    """
    if hedged is None:
        return "none" if k == 1 else f"k{k}"
    try:
        return policy_to_spec(hedged)
    except ConfigurationError:
        return None


class PolicyDriver:
    """Sequential-arrival harness around a policy for simulator loops.

    Simulators that process requests in arrival order use this to (a) hand
    each request its :class:`RequestPlan` and (b) deliver latency feedback to
    adaptive policies *in completion-time order*, not in the order the
    simulator happens to resolve requests.  Completions are parked in a heap
    and released to :meth:`ReplicationPolicy.record_latency` only once the
    simulation clock (the next request's arrival) has passed them — so a
    policy never sees the future, and results are deterministic for any
    execution order.
    """

    def __init__(self, policy: ReplicationPolicy) -> None:
        """Wrap ``policy`` (shared, not copied — state carries across requests)."""
        self.policy = policy
        self._pending: List[Tuple[float, int, float]] = []
        self._seq = 0
        #: ``False`` when the policy's ``record_latency`` is the base class's
        #: no-op: feedback would change nothing, so engines skip
        #: :meth:`complete` for it.
        self.wants_feedback = (
            type(policy).record_latency is not ReplicationPolicy.record_latency
        )

    def fixed_delays(self, max_copies: int) -> Optional[Tuple[float, ...]]:
        """The launch delays of every request, or ``None`` if they need :meth:`plan_for`.

        A static policy that takes no feedback plans every request alike,
        and :meth:`plan_for` would have no feedback to release first, so one
        plan, truncated to ``max_copies`` copies, serves the whole run.
        """
        if self.policy.is_static and not self.wants_feedback:
            return self.policy.plan().launch_delays[:max_copies]
        return None

    def plan_for(self, now: float) -> RequestPlan:
        """The plan for a request arriving at ``now`` (releases due feedback first)."""
        while self._pending and self._pending[0][0] <= now:
            _, _, latency = heapq.heappop(self._pending)
            self.policy.record_latency(latency)
        return self.policy.plan()

    def complete(self, completion_time: float, latency: float) -> None:
        """Park one request's observed ``latency``, visible after ``completion_time``."""
        heapq.heappush(self._pending, (float(completion_time), self._seq, float(latency)))
        self._seq += 1

    def flush(self) -> None:
        """Release all parked feedback (end of a run)."""
        while self._pending:
            _, _, latency = heapq.heappop(self._pending)
            self.policy.record_latency(latency)


def arrival_list(arrival_times) -> List[float]:
    """``arrival_times`` as a list of floats, checked to be non-decreasing.

    Raises:
        ValueError: If any arrival precedes the one before it.
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    if arrivals.size > 1 and bool(np.any(arrivals[1:] < arrivals[:-1])):
        raise ValueError("arrival_times must be non-decreasing")
    return arrivals.tolist()


def simulate_hedged_arrivals(
    policy: ReplicationPolicy,
    arrival_times,
    max_copies: int,
    server_of: Callable[[int, int], Hashable],
    begin: Callable[[int, int, float], tuple],
    on_copy_resolved: Optional[Callable[[int, int, str, float, float], None]] = None,
    background_jobs: Optional[Sequence[Tuple[float, Hashable, int]]] = None,
    begin_background: Optional[Callable[[int, float], tuple]] = None,
):
    """Known-completion pass of the FIFO hedging engine, for plans that never cancel.

    :func:`repro.core.cancellation.simulate_cancelling_arrivals` delegates
    here when ``policy.cancel_on_win`` is false; queueing ``run_fast`` calls
    it directly (its hedged pass never cancels).  The callback contract is
    the engine's — ``server_of``, ``begin`` (``("done", finish)`` bypasses
    the queue; ``("service", service_s, tail_s)`` queues), the
    ``on_copy_resolved`` hook, ``background_jobs`` / ``begin_background`` —
    and this pass owns one FIFO "free at" time per station.

    Requests arrive in order; each backup copy's dispatch is deferred by the
    policy's launch delay and **suppressed** when the request already
    completed before the delay expired.  Without cancellation nothing can
    retract queued work, so a copy's completion time is known the moment it
    is dispatched: suppression is decided exactly, with arrivals and pending
    backup launches merged in global time order, and no event heap is
    needed for service.  Background jobs due at or before a dispatch are
    queued just before it; jobs due after the last dispatch are never run.
    Latency feedback for adaptive policies is released via
    :class:`PolicyDriver` once a request's plan is fully resolved, with the
    request's true earliest finish.  A policy that ignores feedback is fed
    none, and a static one of those is planned once per run.

    Args:
        policy: The replication policy (shared state across requests).
        arrival_times: 1-D array of request arrival times, non-decreasing.
        max_copies: Cap on copies per request (e.g. how many distinct servers
            were drawn); plans are truncated to this many entries.
        server_of: ``server_of(request, copy) -> station id``.
        begin: ``begin(request, copy, at)`` dispatch-time callback.
        on_copy_resolved: Optional hook, called at each dispatch as
            ``on_copy_resolved(request, copy, outcome, work_s, finish_s)``
            with ``outcome`` ``"finished"`` or ``"done"``.
        background_jobs: Optional ``(time, station, job)`` triples, ascending
            in time, of non-request work queued at stations.
        begin_background: ``begin_background(job, at)``; required when
            ``background_jobs`` is non-empty.

    Returns:
        ``(finish_at, copies_launched)`` — per-request earliest absolute
        completion times and dispatched-copy counts.

    Raises:
        ValueError: If ``arrival_times`` decrease anywhere, or
            ``background_jobs`` is given without ``begin_background``.
    """
    arrivals = arrival_list(arrival_times)
    num_requests = len(arrivals)
    driver = PolicyDriver(policy)
    wants_feedback = driver.wants_feedback
    fixed_delays = driver.fixed_delays(max_copies)
    finish_at = [math.inf] * num_requests
    launched = [0] * num_requests
    outstanding = [0] * num_requests
    backups: List[Tuple[float, int, int, int]] = []  # (time, seq, request, copy)
    seq = 0
    free_at: Dict[Hashable, float] = {}
    jobs = background_jobs or ()
    if jobs and begin_background is None:
        raise ValueError("background_jobs requires begin_background")
    next_job = 0

    def launch(request: int, copy: int, at: float) -> None:
        nonlocal next_job
        while next_job < len(jobs) and jobs[next_job][0] <= at:
            when, station, job = jobs[next_job]
            next_job += 1
            result = begin_background(job, when)
            if result[0] != "done":
                free = free_at.get(station, 0.0)
                free_at[station] = (free if free > when else when) + result[1]
        result = begin(request, copy, at)
        launched[request] += 1
        if result[0] == "done":
            outcome, work, finish = "done", 0.0, result[1]
        else:
            _kind, work, tail = result
            station = server_of(request, copy)
            free = free_at.get(station, 0.0)
            end = (free if free > at else at) + work
            free_at[station] = end
            outcome, finish = "finished", end + tail
        if on_copy_resolved is not None:
            on_copy_resolved(request, copy, outcome, work, finish)
        if finish < finish_at[request]:
            finish_at[request] = finish

    next_request = 0
    while next_request < num_requests or backups:
        if backups and (
            next_request >= num_requests
            or backups[0][0] <= arrivals[next_request]
        ):
            at, _, request, copy = heapq.heappop(backups)
            outstanding[request] -= 1
            if finish_at[request] > at:  # still pending: the hedge fires
                launch(request, copy, at)
            if wants_feedback and outstanding[request] == 0:
                driver.complete(finish_at[request], finish_at[request] - arrivals[request])
            continue
        arrival = arrivals[next_request]
        if fixed_delays is None:
            delays = driver.plan_for(arrival).launch_delays[:max_copies]
        else:
            delays = fixed_delays
        launch(next_request, 0, arrival)
        for copy, delay in enumerate(delays[1:], start=1):
            heapq.heappush(backups, (arrival + delay, seq, next_request, copy))
            seq += 1
            outstanding[next_request] += 1
        if wants_feedback and outstanding[next_request] == 0:
            driver.complete(finish_at[next_request], finish_at[next_request] - arrival)
        next_request += 1

    return np.array(finish_at, dtype=float), np.array(launched, dtype=np.int64)
