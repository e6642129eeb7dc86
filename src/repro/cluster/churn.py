"""Ring-membership churn: event timelines, migration traffic, spike metrics.

ROADMAP item 4 applies the paper's tail-cutting argument to *operational*
tails: the latency spike when a shard is added, removed, or crashes mid-run.
This module holds the substrate-independent pieces:

* :class:`MembershipEvent` / :class:`ChurnTimeline` — a seeded-run-friendly
  description of membership changes.  Event times are **fractions of the
  arrival horizon** (``0.4`` = 40% of the way through the run), so one spec
  works at every load and request count.  The spec mini-language mirrors the
  policy specs: ``"remove:2@0.4"``, ``"add:4@0.3,crash:1@0.6"``.
* :func:`ChurnTimeline.epoch_rings` — the ring per inter-event epoch, built
  by replaying the events on a fresh
  :class:`~repro.cluster.consistent_hash.ConsistentHashRing` (stable vnode
  identity makes this exact, not approximate).
* :func:`plan_migrations` — the per-event migration work list: for every
  server that *gains* files under the paper's two-copy storage layout
  (primary + ring successor), the file ids it must copy in.  A fail-stop
  ``crash`` plans exactly the same migrations as a planned ``remove`` —
  survivors re-replicate from the remaining copy — which is what makes
  crash-at-t byte-identical to remove-at-t in the offline substrates.
* :func:`epoch_replica_table` — each request's replica set on the ring live
  at its arrival.
* :func:`merge_jobs` — one per-server access stream of the foreground copies
  and the migration jobs, in the order the servers see them.
* :func:`spike_metrics` — before/during/after p99 quantification of the
  rebalance/failover latency spike, pure numpy over the retained samples.

All of it is deterministic: no RNG is consumed here (migration *pacing* is a
fixed rate; the randomness of migration service times stays in the
substrates' seeded substreams).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.consistent_hash import ConsistentHashRing
from repro.exceptions import ConfigurationError

__all__ = [
    "MembershipEvent",
    "ChurnTimeline",
    "parse_churn",
    "canonical_churn_spec",
    "plan_migrations",
    "epoch_replica_table",
    "merge_jobs",
    "spike_metrics",
]

_ACTIONS = ("add", "remove", "crash")


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change.

    Attributes:
        when: Event time as a fraction of the run's arrival horizon, in
            ``(0, 1)``.
        action: ``"add"``, ``"remove"`` (planned) or ``"crash"`` (fail-stop).
            The offline substrates treat remove and crash identically (no
            drain: requests already dispatched complete, later requests see
            the new ring); the live serving layer additionally fails over
            in-flight copies on a crash.
        server: The server id the event concerns.
    """

    when: float
    action: str
    server: int

    def __post_init__(self) -> None:
        if not 0.0 < self.when < 1.0:
            raise ConfigurationError(
                f"event time must be a fraction in (0, 1), got {self.when!r}"
            )
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"event action must be one of {_ACTIONS}, got {self.action!r}"
            )
        if self.server < 0:
            raise ConfigurationError(f"server id must be >= 0, got {self.server!r}")

    def spec(self) -> str:
        """Canonical spec fragment, e.g. ``"remove:2@0.4"``."""
        return f"{self.action}:{self.server}@{self.when:g}"


@dataclass(frozen=True)
class ChurnTimeline:
    """An ordered sequence of membership events over one run.

    Events are kept sorted by ``(when, server, action)``; two events may not
    share an exact time (the ring state between them would be ambiguous).
    """

    events: Tuple[MembershipEvent, ...]

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.when, e.server, e.action))
        )
        object.__setattr__(self, "events", ordered)
        whens = [e.when for e in ordered]
        if len(set(whens)) != len(whens):
            raise ConfigurationError(
                f"membership events must have distinct times, got {whens}"
            )

    def __bool__(self) -> bool:
        return bool(self.events)

    def spec(self) -> str:
        """The canonical spec string (sorted events, ``%g`` times)."""
        return ",".join(event.spec() for event in self.events)

    def epoch_rings(
        self, num_servers: int, virtual_nodes: int = 64
    ) -> List[ConsistentHashRing]:
        """One ring per epoch: index 0 is the initial ring, index ``e`` the
        ring after the first ``e`` events.

        Raises:
            ConfigurationError: If an event is illegal against the membership
                it applies to (adding a live id, removing a dead one, or
                shrinking the pool below two servers).
        """
        rings = [ConsistentHashRing(num_servers, virtual_nodes=virtual_nodes)]
        for event in self.events:
            ring = ConsistentHashRing(num_servers, virtual_nodes=virtual_nodes)
            for prior in self.events:
                if prior.when > event.when:
                    break
                if prior.action == "add":
                    ring.add_server(prior.server)
                else:
                    if ring.num_servers <= 2:
                        raise ConfigurationError(
                            f"event {prior.spec()!r} would leave fewer than 2 "
                            "servers; the substrates need a primary and a "
                            "successor"
                        )
                    ring.remove_server(prior.server)
            rings.append(ring)
        return rings

    def event_times(self, horizon: float) -> np.ndarray:
        """Absolute event times for a run whose last arrival is at ``horizon``."""
        return np.array([event.when * horizon for event in self.events])

    def all_servers(self, num_servers: int) -> List[int]:
        """Every server id ever live: the initial pool plus all added ids."""
        ids = set(range(num_servers))
        ids.update(e.server for e in self.events if e.action == "add")
        return sorted(ids)


def parse_churn(spec: Union[str, ChurnTimeline, None]) -> Optional[ChurnTimeline]:
    """Parse a churn spec into a timeline (``None``/empty → ``None``).

    The mini-language is comma-separated ``action:server@when`` fragments:
    ``"remove:2@0.4"``, ``"add:4@0.3,crash:1@0.6"``.

    Raises:
        ConfigurationError: On a malformed fragment.
    """
    if spec is None or isinstance(spec, ChurnTimeline):
        return spec or None
    text = spec.strip()
    if not text:
        return None
    events = []
    for fragment in text.split(","):
        fragment = fragment.strip()
        head, sep, when_text = fragment.partition("@")
        action, sep2, server_text = head.partition(":")
        if not sep or not sep2:
            raise ConfigurationError(
                f"malformed churn event {fragment!r}; expected 'action:server@when' "
                "like 'remove:2@0.4'"
            )
        try:
            server = int(server_text)
            when = float(when_text)
        except ValueError as exc:
            raise ConfigurationError(f"malformed churn event {fragment!r}: {exc}") from exc
        events.append(MembershipEvent(when=when, action=action.strip(), server=server))
    return ChurnTimeline(events=tuple(events))


def canonical_churn_spec(spec: Union[str, ChurnTimeline, None]) -> str:
    """The canonical spelling of a churn spec (``""`` for no churn).

    Used by :func:`repro.experiments.adapters.normalize_point_params` so two
    spellings of the same timeline (``"crash:1@0.50"`` vs ``"crash:1@0.5"``)
    share one point seed and one artifact row.
    """
    timeline = parse_churn(spec)
    return timeline.spec() if timeline else ""


def plan_migrations(
    before: ConsistentHashRing,
    after: ConsistentHashRing,
    num_keys: int,
    storage_copies: int = 2,
) -> Dict[int, np.ndarray]:
    """File ids each gaining server must copy in after a membership change.

    The storage layout is the paper's: each file lives on its primary and the
    ring successor (``storage_copies`` replicas).  A server's migration list
    is the files in its *after* replica set but not its *before* set, in
    ascending file-id order (deterministic).

    Returns:
        ``{server_id: file_ids}`` for servers that gained at least one file.
    """
    keys = range(num_keys)
    before_table = before.replica_table(keys, min(storage_copies, before.num_servers))
    after_table = after.replica_table(keys, min(storage_copies, after.num_servers))
    plans: Dict[int, np.ndarray] = {}
    for server in after.servers:
        holds_after = (after_table == server).any(axis=1)
        held_before = (before_table == server).any(axis=1)
        gained = np.flatnonzero(holds_after & ~held_before)
        if gained.size:
            plans[server] = gained
    return plans


def migration_schedule(
    rings: Sequence[ConsistentHashRing],
    event_times: np.ndarray,
    num_keys: int,
    migration_rate: float,
    horizon: float,
    storage_copies: int = 2,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The merged background-migration job stream across all events.

    Each gaining server copies its files in ascending file-id order, paced at
    ``migration_rate`` files per second starting at the event time (job ``j``
    arrives at ``event_time + j / migration_rate``).  Jobs whose arrival
    would fall past ``horizon`` are dropped — they cannot contend with any
    foreground request.

    Returns:
        ``(times, servers, files)`` parallel arrays sorted by
        ``(time, server, file)``.
    """
    if migration_rate <= 0:
        raise ConfigurationError(
            f"migration_rate must be positive, got {migration_rate!r}"
        )
    times: List[float] = []
    servers: List[int] = []
    files: List[int] = []
    for index in range(len(event_times)):
        plans = plan_migrations(
            rings[index], rings[index + 1], num_keys, storage_copies
        )
        start = float(event_times[index])
        for server in sorted(plans):
            for j, file_id in enumerate(plans[server]):
                at = start + j / migration_rate
                if at > horizon:
                    break
                times.append(at)
                servers.append(int(server))
                files.append(int(file_id))
    if not times:
        empty = np.array([], dtype=float)
        return empty, np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    t = np.array(times)
    s = np.array(servers, dtype=np.int64)
    f = np.array(files, dtype=np.int64)
    order = np.lexsort((f, s, t))
    return t[order], s[order], f[order]


def epoch_replica_table(
    rings: Sequence[ConsistentHashRing],
    event_times: np.ndarray,
    arrival_times: np.ndarray,
    keys: np.ndarray,
    copies: int,
) -> np.ndarray:
    """Replica set of every request on the ring live at its arrival.

    ``rings[e]`` is the ring after the first ``e`` events
    (:meth:`ChurnTimeline.epoch_rings`); a request arriving exactly at an
    event time sees the ring after that event.

    Returns:
        A ``(len(keys), copies)`` array of server ids.
    """
    epoch_of = np.searchsorted(event_times, arrival_times, side="right")
    table = np.empty((len(keys), copies), dtype=np.int64)
    for epoch, ring in enumerate(rings):
        pos = np.flatnonzero(epoch_of == epoch)
        if pos.size:
            table[pos] = ring.replica_table(keys[pos].tolist(), copies)
    return table


def merge_jobs(
    arrival_times: np.ndarray,
    copies: int,
    job_times: np.ndarray,
    copy_columns: Sequence[np.ndarray],
    job_columns: Sequence[np.ndarray],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Merge migration jobs into a run's copies, in the order servers see them.

    The copies come in ``(request, copy)`` order and the jobs in time order.
    A job at time ``t`` goes after every copy of a request that arrived
    before ``t`` and before every copy of one that arrives at ``t`` or later.
    Grouped by server, the merged stream is each server's access order.

    Args:
        arrival_times: Request arrival times, non-decreasing.
        copies: Copies per request.
        job_times: Job times, non-decreasing.
        copy_columns: Per-copy arrays of length ``len(arrival_times) * copies``.
        job_columns: The matching per-job arrays, one per copy column.

    Returns:
        ``(copy_at, merged)``: ``copy_at[i]`` is the stream position of flat
        copy ``i``, and ``merged`` holds each column merged into one stream.
    """
    num_requests = len(arrival_times)
    requests_before = np.searchsorted(arrival_times, job_times, side="left")
    job_at = requests_before * copies + np.arange(len(job_times))
    jobs_before = np.searchsorted(requests_before, np.arange(num_requests), side="right")
    copy_at = np.arange(num_requests * copies) + np.repeat(jobs_before, copies)
    merged = []
    for copy_values, job_values in zip(copy_columns, job_columns):
        column = np.empty(
            len(copy_at) + len(job_at), dtype=np.result_type(copy_values, job_values)
        )
        column[copy_at] = copy_values
        column[job_at] = job_values
        merged.append(column)
    return copy_at, merged


def spike_metrics(
    arrival_times: np.ndarray,
    response_times: np.ndarray,
    event_times: np.ndarray,
    num_bins: int = 24,
    spike_threshold: float = 1.5,
) -> Dict[str, float]:
    """Quantify the post-event latency spike: height, duration, recovery.

    Args:
        arrival_times: Arrival time of every retained request (warmup
            removed), ascending.
        response_times: Matching response times.
        event_times: Absolute membership-event times (may be empty).
        num_bins: Equal-width bins laid over the post-event window for the
            spike scan.
        spike_threshold: A bin counts toward the spike duration while its
            p99 exceeds ``spike_threshold`` x the pre-event p99.

    Returns:
        ``p99_before`` (pre-event p99), ``p99_spike`` (worst post-event bin
        p99), ``p99_after`` (p99 of the final quarter of the post-event
        window), ``spike_ratio`` (``p99_spike / p99_before``) and
        ``spike_duration_s`` (total width of elevated bins).  Without events
        all three p99s equal the overall p99 and the spike is flat.
    """
    arrival_times = np.asarray(arrival_times, dtype=float)
    response_times = np.asarray(response_times, dtype=float)
    overall = float(np.percentile(response_times, 99)) if response_times.size else 0.0
    flat = {
        "p99_before": overall,
        "p99_spike": overall,
        "p99_after": overall,
        "spike_ratio": 1.0,
        "spike_duration_s": 0.0,
    }
    if event_times.size == 0 or response_times.size == 0:
        return flat
    first_event = float(event_times[0])
    end = float(arrival_times[-1])
    before = response_times[arrival_times < first_event]
    if before.size == 0 or end <= first_event:
        return flat
    p99_before = float(np.percentile(before, 99))
    edges = np.linspace(first_event, end, num_bins + 1)
    bin_width = edges[1] - edges[0]
    elevated = 0
    p99_spike = p99_before
    for b in range(num_bins):
        mask = (arrival_times >= edges[b]) & (
            arrival_times < edges[b + 1] if b < num_bins - 1 else arrival_times <= end
        )
        samples = response_times[mask]
        if samples.size == 0:
            continue
        p99 = float(np.percentile(samples, 99))
        p99_spike = max(p99_spike, p99)
        if p99 > spike_threshold * p99_before:
            elevated += 1
    tail_start = end - 0.25 * (end - first_event)
    after = response_times[arrival_times >= tail_start]
    p99_after = float(np.percentile(after, 99)) if after.size else p99_before
    return {
        "p99_before": p99_before,
        "p99_spike": p99_spike,
        "p99_after": p99_after,
        "spike_ratio": p99_spike / p99_before if p99_before > 0 else 1.0,
        "spike_duration_s": elevated * float(bin_width),
    }
