"""Policy-spec mini-language: round-tripping, validation, plans, drivers."""

import pickle

import pytest

from repro.core.policy import (
    HedgeAfterDelay,
    HedgeOnPercentile,
    KCopies,
    NoReplication,
    PolicyDriver,
    RequestPlan,
    canonical_policy_spec,
    eager_copies,
    parse_policy,
    policy_to_spec,
    resolve_policy,
)
from repro.exceptions import ConfigurationError


# ---------------------------------------------------------------------------
# Round-tripping
# ---------------------------------------------------------------------------

EVERY_POLICY = [
    NoReplication(),
    KCopies(2),
    KCopies(5),
    HedgeAfterDelay(0.010),
    HedgeAfterDelay(0.0),
    HedgeAfterDelay(0.25, extra_copies=2),
    HedgeAfterDelay(0.002, cancel_on_win=False),
    HedgeAfterDelay(1.5, extra_copies=3, cancel_on_win=False),
    HedgeOnPercentile(95.0),
    HedgeOnPercentile(50.0, initial_delay=0.1),
    HedgeOnPercentile(99.0, window=500),
    HedgeOnPercentile(90.0, extra_copies=2, cancel_on_win=False),
    HedgeOnPercentile(97.5, initial_delay=0.002, window=64, extra_copies=2),
]

_COMPARED_ATTRS = {
    NoReplication: (),
    KCopies: ("copies",),
    HedgeAfterDelay: ("delay", "extra_copies", "cancel_on_win"),
    HedgeOnPercentile: (
        "percentile",
        "initial_delay",
        "window",
        "extra_copies",
        "cancel_on_win",
    ),
}


@pytest.mark.parametrize("policy", EVERY_POLICY, ids=policy_to_spec)
def test_spec_round_trip_every_policy_type(policy):
    spec = policy_to_spec(policy)
    rebuilt = parse_policy(spec)
    assert type(rebuilt) is type(policy)
    for attr in _COMPARED_ATTRS[type(policy)]:
        assert getattr(rebuilt, attr) == getattr(policy, attr), attr
    # The round trip is idempotent: re-serialising gives the same spec.
    assert policy_to_spec(rebuilt) == spec


@pytest.mark.parametrize(
    ("spelling", "canonical"),
    [
        ("NONE", "none"),
        (" k2 ", "k2"),
        ("K3", "k3"),
        ("k1", "none"),
        ("hedge:0.01s", "hedge:10ms"),
        ("hedge:10ms", "hedge:10ms"),
        ("hedge:10000us", "hedge:10ms"),
        ("hedge:0.25", "hedge:250ms"),
        ("hedge:1.5s", "hedge:1.5s"),
        ("hedge:250us", "hedge:250us"),
        ("hedge:p95.0", "hedge:p95"),
        ("hedge:p95:x1", "hedge:p95"),
        ("hedge:10ms:x2:nocancel", "hedge:10ms:x2:nocancel"),
        ("hedge:p95:i0.05s:w1000", "hedge:p95"),
    ],
)
def test_canonicalisation_merges_spellings(spelling, canonical):
    assert canonical_policy_spec(spelling) == canonical


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "k",
        "k0",
        "k-1",
        "2copies",
        "hedge",
        "hedge:",
        "hedge:banana",
        "hedge:-5ms",
        "hedge:10ms:z3",
        "hedge:10ms:i5ms",  # i<delay> is percentile-form only
        "hedge:10ms:w100",  # w<N> is percentile-form only
        "hedge:p0",
        "hedge:p100",
        "hedge:p95:x0",
        "hedge:p95:w0",
        "hedge:p95:inope",
    ],
)
def test_bad_specs_raise(bad):
    with pytest.raises(ConfigurationError):
        parse_policy(bad)


@pytest.mark.parametrize("bad", [True, 0, -3, 2.5, None, ["k2"]])
def test_non_spec_values_raise(bad):
    with pytest.raises(ConfigurationError):
        parse_policy(bad)


def test_parse_accepts_policies_and_copy_counts():
    policy = HedgeAfterDelay(0.01)
    assert parse_policy(policy) is policy
    assert isinstance(parse_policy(1), NoReplication)
    assert parse_policy(3).copies == 3


def test_custom_policy_has_no_spec():
    class Custom(NoReplication):
        pass

    with pytest.raises(ConfigurationError):
        policy_to_spec(Custom())


# ---------------------------------------------------------------------------
# Plans, eagerness, resolution
# ---------------------------------------------------------------------------


def test_plan_carries_schedule_and_cancellation():
    plan = KCopies(3).plan()
    assert plan == RequestPlan((0.0, 0.0, 0.0), cancel_on_win=False)
    assert plan.is_eager and plan.copies == 3

    hedge = HedgeAfterDelay(0.02, extra_copies=2).plan()
    assert hedge.launch_delays == (0.0, 0.02, 0.04)
    assert hedge.cancel_on_win and not hedge.is_eager


def test_eager_copies_classification():
    assert eager_copies(NoReplication()) == 1
    assert eager_copies(KCopies(4)) == 4
    # A zero-delay non-cancelling hedge degenerates to the eager scheme...
    assert eager_copies(HedgeAfterDelay(0.0, cancel_on_win=False)) == 2
    # ...but cancellation semantics or real delays disqualify it.
    assert eager_copies(HedgeAfterDelay(0.0)) is None
    assert eager_copies(HedgeAfterDelay(0.01, cancel_on_win=False)) is None
    assert eager_copies(HedgeOnPercentile(95.0)) is None


def test_resolve_policy_sugar_and_conflicts():
    assert isinstance(resolve_policy(), KCopies)
    assert resolve_policy().copies == 2
    assert isinstance(resolve_policy(copies=1), NoReplication)
    assert resolve_policy(copies=3).copies == 3
    assert isinstance(resolve_policy(policy="hedge:10ms"), HedgeAfterDelay)
    with pytest.raises(ConfigurationError):
        resolve_policy(policy="k2", copies=2)
    with pytest.raises(ConfigurationError):
        resolve_policy(copies=2.5)


def test_percentile_policy_adapts_its_plan():
    policy = HedgeOnPercentile(50.0, initial_delay=0.5, window=100)
    assert policy.plan().launch_delays[1] == 0.5  # cold start
    for value in (0.1,) * 20:
        policy.record_latency(value)
    assert policy.plan().launch_delays[1] == pytest.approx(0.1)
    # The plan follows every recorded latency and is shared until the next.
    for value in (0.3, 0.7, 0.2, 0.9):
        policy.record_latency(value)
        plan = policy.plan()
        assert plan.launch_delays == tuple(policy.launch_delays())
        assert policy.plan() is plan


@pytest.mark.parametrize("policy", EVERY_POLICY, ids=policy_to_spec)
def test_policies_pickle(policy):
    rebuilt = pickle.loads(pickle.dumps(policy))
    assert policy_to_spec(rebuilt) == policy_to_spec(policy)


# ---------------------------------------------------------------------------
# PolicyDriver feedback ordering
# ---------------------------------------------------------------------------


class _RecordingPolicy(NoReplication):
    def __init__(self):
        self.seen = []

    def record_latency(self, latency):
        self.seen.append(latency)


def test_policy_driver_releases_feedback_in_completion_order():
    policy = _RecordingPolicy()
    driver = PolicyDriver(policy)
    driver.complete(5.0, 0.5)
    driver.complete(2.0, 0.2)
    driver.plan_for(1.0)
    assert policy.seen == []  # nothing completed yet
    driver.plan_for(3.0)
    assert policy.seen == [0.2]  # completion-time order, not insertion order
    driver.plan_for(10.0)
    assert policy.seen == [0.2, 0.5]
    driver.complete(11.0, 1.1)
    driver.flush()
    assert policy.seen == [0.2, 0.5, 1.1]
