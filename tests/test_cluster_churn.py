"""Fault-injection and churn-timeline tests.

Three contracts from the elasticity work are pinned here:

* The churn spec mini-language parses, canonicalises, and rejects garbage
  loudly (two spellings of one timeline must share one point seed).
* Fail-stop semantics: in the offline substrates a ``crash`` is byte-identical
  to a ``remove`` at the same time — no drain, requests already dispatched
  complete, later requests see the new ring.  And an *empty* timeline is
  byte-identical to the churn-free static path, which is what lets
  ``normalize_point_params`` drop it from the point key.
* Sweep artifacts of the registered ``standard-db-rebalance`` scenario are
  byte-identical across worker counts and across a kill + ``--resume``, the
  same contract the static scenarios carry.
"""

import dataclasses

from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.churn import (
    ChurnTimeline,
    MembershipEvent,
    canonical_churn_spec,
    migration_schedule,
    parse_churn,
    plan_migrations,
    spike_metrics,
)
from repro.cluster.consistent_hash import ConsistentHashRing
from repro.cluster.database import DatabaseClusterConfig, DatabaseClusterExperiment
from repro.cluster.memcached import MemcachedConfig, MemcachedExperiment
from repro.exceptions import ConfigurationError
from repro.experiments import ParameterGrid, SweepRunner, get_scenario
from repro.experiments.adapters import normalize_point_params


# ---------------------------------------------------------------------------
# Spec mini-language
# ---------------------------------------------------------------------------

class TestChurnSpec:
    def test_parse_sorts_and_round_trips(self):
        timeline = parse_churn("crash:1@0.6,add:4@0.3")
        assert [e.spec() for e in timeline.events] == ["add:4@0.3", "crash:1@0.6"]
        assert timeline.spec() == "add:4@0.3,crash:1@0.6"
        assert parse_churn(timeline) is timeline

    def test_canonical_normalises_spelling(self):
        # %g times and sorted events: two spellings, one canonical form —
        # and therefore one point seed and one artifact row.
        assert canonical_churn_spec("crash:1@0.50") == "crash:1@0.5"
        assert (
            canonical_churn_spec("remove:2@0.80,add:5@0.40")
            == canonical_churn_spec("add:5@0.4,remove:2@0.8")
        )

    def test_empty_spec_is_no_timeline(self):
        assert parse_churn(None) is None
        assert parse_churn("") is None
        assert parse_churn("   ") is None
        assert canonical_churn_spec("") == ""
        assert not ChurnTimeline(events=())

    @pytest.mark.parametrize(
        "spec",
        ["add:4", "add@0.4", "add:x@0.4", "add:4@y", "frob:4@0.4", ":4@0.4"],
    )
    def test_malformed_fragments_raise(self, spec):
        with pytest.raises(ConfigurationError):
            parse_churn(spec)

    @pytest.mark.parametrize("when", [0.0, 1.0, -0.2, 1.5])
    def test_event_time_must_be_interior_fraction(self, when):
        with pytest.raises(ConfigurationError, match="fraction"):
            MembershipEvent(when=when, action="add", server=4)

    def test_negative_server_rejected(self):
        with pytest.raises(ConfigurationError, match="server id"):
            MembershipEvent(when=0.4, action="add", server=-1)

    def test_duplicate_event_times_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct times"):
            parse_churn("add:4@0.4,remove:1@0.4")


# ---------------------------------------------------------------------------
# Epoch replay
# ---------------------------------------------------------------------------

class TestEpochRings:
    def test_rings_track_membership_per_epoch(self):
        timeline = parse_churn("add:4@0.3,crash:1@0.6")
        rings = timeline.epoch_rings(4)
        assert [r.servers for r in rings] == [
            (0, 1, 2, 3),
            (0, 1, 2, 3, 4),
            (0, 2, 3, 4),
        ]
        assert timeline.all_servers(4) == [0, 1, 2, 3, 4]

    def test_adding_a_live_id_raises(self):
        with pytest.raises(ConfigurationError, match="already on the ring"):
            parse_churn("add:2@0.5").epoch_rings(4)

    def test_shrinking_below_two_servers_raises(self):
        with pytest.raises(ConfigurationError, match="fewer than 2"):
            parse_churn("remove:0@0.3").epoch_rings(2)

    def test_event_times_scale_with_horizon(self):
        timeline = parse_churn("add:4@0.25,crash:1@0.75")
        np.testing.assert_allclose(timeline.event_times(8.0), [2.0, 6.0])


# ---------------------------------------------------------------------------
# Migration planning
# ---------------------------------------------------------------------------

class TestMigrations:
    def test_plans_cover_exactly_the_gained_files(self):
        before = ConsistentHashRing(4)
        after = ConsistentHashRing(4)
        after.add_server(4)
        num_keys = 3_000
        plans = plan_migrations(before, after, num_keys)
        before_table = before.replica_table(range(num_keys), 2)
        after_table = after.replica_table(range(num_keys), 2)
        assert set(plans) <= set(after.servers)
        for server, files in plans.items():
            assert list(files) == sorted(files)
            assert np.all((after_table[files] == server).any(axis=1))
            assert not np.any((before_table[files] == server).any(axis=1))
        # The joiner gains its whole replica set; it held nothing before.
        assert 4 in plans
        assert len(plans[4]) == int((after_table == 4).any(axis=1).sum())

    def test_crash_plans_equal_remove_plans(self):
        # Survivors re-replicate from the remaining copy either way; the
        # planner sees only before/after rings, never the event's action.
        before = ConsistentHashRing(5)
        after = ConsistentHashRing(5)
        after.remove_server(2)
        plans = plan_migrations(before, after, 2_000)
        assert plans  # survivors gained the victim's files
        assert 2 not in plans

    def test_schedule_paced_sorted_and_bounded(self):
        timeline = parse_churn("add:4@0.5")
        rings = timeline.epoch_rings(4)
        horizon = 10.0
        times, servers, files = migration_schedule(
            rings, timeline.event_times(horizon), 2_000, 100.0, horizon
        )
        assert times.size > 0
        assert np.all(times >= 5.0)
        assert np.all(times <= horizon)
        order = np.lexsort((files, servers, times))
        assert np.array_equal(order, np.arange(times.size))
        # Per-server pacing: job j of a server arrives at start + j / rate.
        for server in np.unique(servers):
            own = times[servers == server]
            np.testing.assert_allclose(own, 5.0 + np.arange(own.size) / 100.0)

    def test_nonpositive_rate_raises(self):
        timeline = parse_churn("add:4@0.5")
        rings = timeline.epoch_rings(4)
        with pytest.raises(ConfigurationError, match="migration_rate"):
            migration_schedule(rings, timeline.event_times(1.0), 100, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Migration planning against the two-full-table planners it replaced
# ---------------------------------------------------------------------------

def reference_plan_migrations(
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


def reference_migration_schedule(
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
        plans = reference_plan_migrations(
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


@st.composite
def churn_timelines(draw):
    """A legal timeline of one to three adds, removes and crashes on a pool
    of 2 to 12 servers, and the pool size."""
    num_servers = draw(st.integers(min_value=2, max_value=12))
    whens = draw(st.lists(st.integers(1, 99), min_size=1, max_size=3, unique=True))
    live = set(range(num_servers))
    events = []
    for when in sorted(whens):
        if len(live) > 2 and draw(st.booleans()):
            server = draw(st.sampled_from(sorted(live)))
            live.discard(server)
            action = draw(st.sampled_from(["remove", "crash"]))
        else:
            server = draw(st.sampled_from(sorted(set(range(num_servers + 4)) - live)))
            live.add(server)
            action = "add"
        events.append(MembershipEvent(when=when / 100, action=action, server=server))
    return ChurnTimeline(events=tuple(events)), num_servers


@settings(max_examples=40, deadline=None)
@given(
    case=churn_timelines(),
    num_keys=st.sampled_from([0, 1, 300, 3_000]),
    copies_pick=st.integers(min_value=0, max_value=4),
    migration_rate=st.sampled_from([0.7, 25.0, 500.0]),
    horizon=st.floats(min_value=0.5, max_value=50.0),
)
def test_plans_and_schedule_equal_the_two_full_table_planners(
    case, num_keys, copies_pick, migration_rate, horizon
):
    """Per event and for the whole schedule, the planners give the bytes the
    two-full-table planners gave, for storage copies from one up to past
    the pool, the live pool's size included."""
    timeline, num_servers = case
    rings = timeline.epoch_rings(num_servers)
    storage_copies = [1, 2, 3, rings[-1].num_servers, num_servers + 2][copies_pick]
    for before, after in zip(rings, rings[1:]):
        plans = plan_migrations(before, after, num_keys, storage_copies)
        expected = reference_plan_migrations(before, after, num_keys, storage_copies)
        assert list(plans) == list(expected)
        for server, files in expected.items():
            assert plans[server].dtype == files.dtype
            assert np.array_equal(plans[server], files)
    event_times = timeline.event_times(horizon)
    got = migration_schedule(rings, event_times, num_keys, migration_rate, horizon, storage_copies)
    want = reference_migration_schedule(
        rings, event_times, num_keys, migration_rate, horizon, storage_copies
    )
    for column, expected_column in zip(got, want):
        assert column.dtype == expected_column.dtype
        assert column.tobytes() == expected_column.tobytes()


# ---------------------------------------------------------------------------
# Spike metrics
# ---------------------------------------------------------------------------

class TestSpikeMetrics:
    def test_no_events_is_flat(self):
        arrivals = np.linspace(0.0, 10.0, 500)
        responses = np.full(500, 0.01)
        out = spike_metrics(arrivals, responses, np.array([]))
        assert out["p99_before"] == out["p99_spike"] == out["p99_after"]
        assert out["spike_ratio"] == 1.0
        assert out["spike_duration_s"] == 0.0

    def test_synthetic_spike_is_measured(self):
        arrivals = np.linspace(0.0, 10.0, 2_000)
        responses = np.full(2_000, 0.010)
        window = (arrivals >= 4.0) & (arrivals < 6.0)
        responses[window] = 0.100
        out = spike_metrics(arrivals, responses, np.array([4.0]))
        assert out["p99_before"] == pytest.approx(0.010)
        assert out["p99_spike"] == pytest.approx(0.100)
        assert out["spike_ratio"] == pytest.approx(10.0)
        # The elevated window is 2 s wide; bin edges blur it by one bin.
        assert 1.5 <= out["spike_duration_s"] <= 2.6
        assert out["p99_after"] == pytest.approx(0.010)

    def test_empty_samples_are_flat_zero(self):
        out = spike_metrics(np.array([]), np.array([]), np.array([0.5]))
        assert out["p99_spike"] == 0.0
        assert out["spike_ratio"] == 1.0


# ---------------------------------------------------------------------------
# Fail-stop semantics in the offline substrates
# ---------------------------------------------------------------------------

def small_db(seed=0):
    return DatabaseClusterExperiment(
        DatabaseClusterConfig(num_servers=5, num_files=2_000, seed=seed)
    )

DB_RUN = dict(load=0.25, num_requests=600)


class TestFaultInjectionDeterminism:
    def test_crash_at_t_equals_remove_at_t(self):
        """No drain anywhere in the offline path: a fail-stop crash and a
        planned removal at the same instant produce byte-identical runs."""
        crash = small_db().run(churn="crash:2@0.4", **DB_RUN)
        remove = small_db().run(churn="remove:2@0.4", **DB_RUN)
        assert np.array_equal(crash.response_times, remove.response_times)
        assert crash.spike == remove.spike

    def test_crash_equals_remove_on_memcached_too(self):
        config = MemcachedConfig(num_servers=5, seed=3)
        kwargs = dict(
            load=0.1, num_requests=600, num_keys=2_000, churn="crash:1@0.5"
        )
        crash = MemcachedExperiment(config).run(**kwargs)
        remove = MemcachedExperiment(config).run(
            **{**kwargs, "churn": "remove:1@0.5"}
        )
        assert np.array_equal(crash.response_times, remove.response_times)
        assert crash.spike == remove.spike

    def test_empty_timeline_is_the_static_run(self):
        static = small_db().run(**DB_RUN)
        churned = small_db().run(churn="", **DB_RUN)
        assert np.array_equal(static.response_times, churned.response_times)
        assert churned.spike is None

    def test_churn_run_is_seed_deterministic(self):
        first = small_db().run(churn="add:5@0.4", **DB_RUN)
        second = small_db().run(churn="add:5@0.4", **DB_RUN)
        assert np.array_equal(first.response_times, second.response_times)
        assert first.spike == second.spike

    @pytest.mark.parametrize("churn", ["add:5@0.4", "crash:2@0.4"])
    def test_replica_table_matches_replicas_for(self, churn):
        """Churn runs place each epoch's requests with one vectorised
        ``replica_table`` call; it must name the same replicas, in the same
        order, as a ``replicas_for`` lookup per key on that epoch's ring."""
        experiment = small_db()
        keys = list(range(experiment.config.num_files))
        rings = parse_churn(churn).epoch_rings(
            experiment.config.num_servers, experiment._ring.virtual_nodes
        )
        assert len(rings) == 2
        for ring in rings:
            for copies in (1, 2, 3):
                stacked = np.array([ring.replicas_for(key, copies) for key in keys])
                assert np.array_equal(ring.replica_table(keys, copies), stacked)

    def test_spike_scalars_present_on_churn_runs(self):
        result = small_db().run(churn="crash:2@0.4", **DB_RUN)
        assert result.spike is not None
        assert set(result.spike) == {
            "p99_before", "p99_spike", "p99_after",
            "spike_ratio", "spike_duration_s",
        }
        assert result.spike["p99_spike"] >= result.spike["p99_before"]


# ---------------------------------------------------------------------------
# Point-key canonicalisation
# ---------------------------------------------------------------------------

class TestNormalization:
    def test_equivalent_spellings_share_a_point_key(self):
        a = normalize_point_params("database", {"load": 0.3, "churn": "crash:1@0.50"})
        b = normalize_point_params("database", {"load": 0.3, "churn": "crash:1@0.5"})
        assert a == b
        assert a["churn"] == "crash:1@0.5"

    def test_empty_churn_is_dropped_entirely(self):
        # The empty timeline IS the static run, so it must share the static
        # grid point's seed — the key is dropped, not kept as "".
        assert normalize_point_params("database", {"load": 0.3, "churn": ""}) == (
            normalize_point_params("database", {"load": 0.3})
        )


# ---------------------------------------------------------------------------
# Sweep-artifact determinism of the registered scenario
# ---------------------------------------------------------------------------

def shrunk_rebalance():
    """standard-db-rebalance with the knobs turned down for test runtime.

    Same entry point, same churn spec, same normalisation path — only the
    request/file counts and grid breadth shrink.
    """
    scenario = get_scenario("standard-db-rebalance")
    return dataclasses.replace(
        scenario,
        base_params={
            **scenario.base_params,
            "num_files": 2_000,
            "num_requests": 400,
        },
        grid=ParameterGrid(
            {"migration_rate": [50.0], "policy": ["none", "k2"]}
        ),
    )


class TestRebalanceArtifacts:
    @pytest.fixture()
    def reference(self, tmp_path):
        path = str(tmp_path / "w1.jsonl")
        SweepRunner(workers=1).run(shrunk_rebalance(), out=path)
        with open(path, "rb") as handle:
            return handle.read()

    def test_bytes_identical_across_worker_counts(self, tmp_path, reference):
        path = str(tmp_path / "w3.jsonl")
        SweepRunner(workers=3).run(shrunk_rebalance(), out=path)
        with open(path, "rb") as handle:
            assert handle.read() == reference

    @pytest.mark.parametrize("workers", [1, 3])
    def test_kill_and_resume_round_trip(self, tmp_path, reference, workers):
        path = str(tmp_path / "resumed.jsonl")
        with open(path, "wb") as handle:
            handle.write(reference[: len(reference) // 2])
        SweepRunner(workers=workers).run(shrunk_rebalance(), out=path, resume=True)
        with open(path, "rb") as handle:
            assert handle.read() == reference
