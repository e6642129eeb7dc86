"""The compiled stretch of a virtual-clock load run against the per-wake loop.

While a :class:`~repro.serve.clock.VirtualClock` has nothing else to run and
the proxy's plan is fast-path eligible, :func:`repro.serve.run_load` hands
the proxy everything up to the next control in one
:meth:`~repro.serve.proxy.RedundancyProxy.submit_stretch` call, which the
compiled ``reserve_stretch`` issues wake by wake.  Every test here runs the
same load twice: once as it runs, once with ``submit_stretch`` declining, so
the per-wake loop (``submit_batch`` per batch, ``submit_nowait`` per lone
arrival, one clock timer per wake) issues everything.  The two must agree
bit for bit: report bytes, proxy counters and every backend's completions,
consumed service, queue, draw block and cursor.  With the kernels the
per-wake loop's ``submit_batch`` is itself a one-wake ``reserve_stretch``
call, so the property and the batch-heavy cases also run the per-wake loop
under ``REPRO_CKERNELS=0``, where each batch takes numpy's closed form.
"""

import asyncio
import contextlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import _ckernels
from repro.core.policy import KCopies
from repro.distributions import DiscreteDistribution, Exponential
from repro.serve import LoadGenConfig, RedundancyProxy, SimBackend, VirtualClock, run_load
from repro.serve.backends import SimBackend as _SimBackend

pytestmark = pytest.mark.skipif(_ckernels.load() is None, reason="no C compiler available")

#: Keys of every run; the replica table has one row each.
KEYSPACE = 200


def backend_state(backend):
    return (
        backend._busy_until,
        backend.completed,
        backend.consumed_s,
        backend._cursor,
        backend._block.tobytes(),
        backend._rng.bit_generator.state,
        backend.failed,
    )


def proxy_state(proxy):
    return (
        proxy.counters(),
        proxy.useful_service_s,
        proxy.last_finish_at,
        [backend_state(backend) for backend in proxy.backends],
    )


class Run:
    """One load run, with every ``submit_stretch`` call's clock time and
    outcome, and the length of every draw block drawn."""

    def __init__(self, proxy, report, stretches, refills, error=None):
        self.proxy = proxy
        self.report = report
        self.stretches = stretches
        self.refills = refills
        self.error = error

    @property
    def taken(self):
        return [(at, outcome) for at, outcome in self.stretches if outcome is not None]


@contextlib.contextmanager
def recording(stretch):
    """Record each ``submit_stretch`` call and each block drawn; with
    ``stretch=False`` every call declines, so the per-wake loop runs."""
    stretches, refills = [], []
    real_stretch = RedundancyProxy.submit_stretch
    real_sample = _SimBackend._sample_block

    def submit_stretch(self, *args):
        outcome = real_stretch(self, *args) if stretch else None
        stretches.append((self.clock.now(), outcome))
        return outcome

    def sample_block(self, size):
        refills.append((self.index, int(size)))
        return real_sample(self, size)

    with mock.patch.object(RedundancyProxy, "submit_stretch", submit_stretch), mock.patch.object(
        _SimBackend, "_sample_block", sample_block
    ):
        yield stretches, refills


def run(
    stretch,
    policy="k2",
    queueing=(True, True, True, True),
    means=(1e-4,),
    rate=20_000.0,
    requests=400,
    resolution=0.001,
    swaps=(),
    events=(),
    prefix=(),
    seed=0,
    service=None,
    setup=None,
    main=None,
    ckernels=True,
):
    """Run one virtual-clock load; ``setup(proxy, clock)`` runs first and
    ``main(clock, load)`` may wrap the ``run_load`` coroutine.  Backends
    serve Exp(``means[i % len(means)]``) unless a ``service`` is given.
    ``ckernels=False`` runs it under ``REPRO_CKERNELS=0``."""
    clock = VirtualClock()
    pool = [
        SimBackend(
            i, clock, seed=seed, queueing=q,
            service=service or Exponential(means[i % len(means)]),
        )
        for i, q in enumerate(queueing)
    ]
    for backend, count in zip(pool, prefix):
        backend.draw_many(count)  # park the cursor inside the block
    proxy = RedundancyProxy(pool, clock, policy=policy)
    if setup is not None:
        setup(proxy, clock)
    config = LoadGenConfig(
        rate=rate,
        num_requests=requests,
        seed=seed,
        keyspace=KEYSPACE,
        resolution=resolution,
        swaps=list(swaps),
        events=list(events),
    )
    flag = {_ckernels.CKERNELS_ENV_VAR: "1" if ckernels else "0"}
    with recording(stretch) as (stretches, refills), mock.patch.dict(os.environ, flag):
        load = run_load(proxy, clock, config)
        try:
            report = clock.run(load if main is None else main(clock, load))
        except asyncio.CancelledError as exc:
            return Run(proxy, None, stretches, refills, exc)
    return Run(proxy, report, stretches, refills)


def check_same(numpy_reference=False, **kwargs):
    """Run with and without the stretch; require the same bytes and state.
    With ``numpy_reference`` the per-wake loop also runs without the
    kernels, and must agree too."""
    taken = run(True, **kwargs)
    per_wake = run(False, **kwargs)
    references = [per_wake]
    if numpy_reference:
        references.append(run(False, ckernels=False, **kwargs))
    for reference in references:
        assert (taken.report is None) == (reference.report is None)
        if taken.report is not None:
            assert taken.report.to_json() == reference.report.to_json()
        assert type(taken.error) is type(reference.error)
        assert proxy_state(taken.proxy) == proxy_state(reference.proxy)
        # Each backend draws on its own generator, so only each one's own
        # sequence of blocks must agree.
        assert sorted(taken.refills, key=by_backend) == sorted(
            reference.refills, key=by_backend
        )
    return taken, per_wake


def by_backend(refill):
    return refill[0]


# --------------------------------------------------------------------- #
# The property
# --------------------------------------------------------------------- #

SPECS = ["none", "k2", "k3", "hedge:0ms", "hedge:1ms:nocancel", "hedge:500us"]


@st.composite
def load_cases(draw):
    size = draw(st.integers(2, 6))
    queueing = tuple(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    means = tuple(draw(st.lists(st.sampled_from([2e-5, 1e-4, 5e-4]), min_size=1, max_size=3)))
    rate = draw(st.sampled_from([2_000.0, 20_000.0, 200_000.0]))
    requests = draw(st.integers(1, 600))
    horizon = requests / rate
    times = sorted(
        draw(st.lists(st.floats(0.0, 1.2), max_size=5, unique=True))
    )
    live = set(range(size))
    controls_swaps, controls_events = [], []
    for fraction in times:
        at = round(fraction * horizon, 6)
        kind = draw(st.sampled_from(["swap", "crash", "remove", "add"]))
        if kind == "swap":
            controls_swaps.append((at, draw(st.sampled_from(SPECS))))
        elif kind == "add" and len(live) < size:
            backend = draw(st.sampled_from(sorted(set(range(size)) - live)))
            live.add(backend)
            controls_events.append((at, "add", backend))
        elif kind in ("crash", "remove") and len(live) > 1:
            backend = draw(st.sampled_from(sorted(live)))
            live.discard(backend)
            controls_events.append((at, kind, backend))
    if draw(st.booleans()):
        # Race copies still queued when the fast plan returns.
        at = round(draw(st.floats(0.0, 0.6)) * horizon, 6)
        controls_swaps += [(at, "hedge:0ms"), (round(at + 0.2 * horizon, 6), "k2")]
    prefix = tuple(draw(st.lists(st.integers(0, 4096), min_size=size, max_size=size)))
    return {
        "policy": draw(st.sampled_from(SPECS)),
        "queueing": queueing,
        "means": means,
        "rate": rate,
        "requests": requests,
        "resolution": draw(st.sampled_from([0.0, 1e-4, 1e-3])),
        "swaps": controls_swaps,
        "events": controls_events,
        "prefix": prefix,
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=60, deadline=None)
@given(case=load_cases())
def test_stretch_equals_the_per_wake_loop(case):
    check_same(numpy_reference=True, **case)


# --------------------------------------------------------------------- #
# Targeted cases
# --------------------------------------------------------------------- #


def test_the_stretch_runs_whole_segments():
    """With no other timer, each segment between controls is one call:
    the run before the crash, between crash and re-add, and after it."""
    taken, _ = check_same(
        requests=2_000,
        rate=100_000.0,
        events=[(0.006, "crash", 1), (0.013, "add", 1)],
    )
    assert [outcome[0] for _, outcome in taken.taken] == [
        int(np.searchsorted(_offsets(2_000, 100_000.0), bound))
        for bound in (0.006, 0.013)
    ] + [2_000]


def _offsets(requests, rate, seed=0):
    from repro.serve.loadgen import _draw_traffic

    return _draw_traffic(LoadGenConfig(rate=rate, num_requests=requests, seed=seed))[0]


def test_a_lone_arrival_draws_across_a_block_end():
    """At resolution 0 every arrival is its own wake; each backend starts
    one draw short of its block, so lone copies refill 4,096 draws inside
    the stretch, as draw_service does."""
    taken, _ = check_same(
        numpy_reference=True, resolution=0.0, prefix=(4095,) * 4, requests=300
    )
    assert len(taken.taken) == 1
    assert sorted(taken.refills) == [(index, 4096) for index in range(4)]
    assert all(0 < backend._cursor < 4096 for backend in taken.proxy.backends)


def test_a_batch_refills_more_than_a_block_mid_stretch():
    """Batches of about 10,000 arrivals send over 4,096 copies to one
    backend, which refills max(4096, short) draws, as draw_many does."""
    taken, _ = check_same(
        numpy_reference=True,
        queueing=(True, False),
        rate=10_000_000.0,
        requests=30_000,
        resolution=0.001,
        prefix=(100, 4000),
    )
    assert taken.taken
    assert any(size > 4096 for _backend, size in taken.refills)


#: Services on a power-of-two grid: with arrivals on one too, wakes,
#: horizons and finishes are exact, so they often tie.
DYADIC = DiscreteDistribution([2.0**-12, 2.0**-10, 2.0**-9], [0.5, 0.25, 0.25])


@pytest.mark.parametrize("policy", ["k2", "k3"])
@pytest.mark.parametrize("resolution", [0.0, 2.0**-13, 2.0**-12, 2.0**-10])
def test_exact_ties_on_a_dyadic_grid(policy, resolution):
    """Arrivals on a 2**-13 s grid, many at one instant, and dyadic
    services: a delay equal to the resolution does not wake, an arrival at
    the horizon joins the batch, and of two copies that finish together the
    first wins, as in the per-wake loop."""
    rng = np.random.default_rng(5)
    offsets = np.sort(rng.integers(1, 3_000, size=2_000)) * 2.0**-13
    keys = rng.integers(0, KEYSPACE, size=2_000)
    with mock.patch("repro.serve.loadgen._draw_traffic", return_value=(offsets, keys)):
        taken, _ = check_same(
            numpy_reference=True,
            policy=policy,
            queueing=(True, True, False, True, True),
            service=DYADIC,
            requests=2_000,
            resolution=resolution,
            events=[(0.1, "crash", 3), (0.2, "add", 3)],
        )
    assert len(taken.taken) == 3


def test_a_pending_timer_keeps_the_per_wake_loop_until_the_clock_is_quiet():
    due = 0.004
    fired = []

    def setup(proxy, clock):
        fired.clear()

    async def main(clock, load):
        clock.call_at(due, lambda: fired.append(clock.now()))
        return await load

    taken, per_wake = check_same(requests=400, rate=50_000.0, setup=setup, main=main)
    assert fired == [due]
    declined = [at for at, outcome in taken.stretches if outcome is None]
    assert declined and max(declined) < due
    assert taken.taken and min(at for at, _ in taken.taken) >= due


def test_a_live_backend_marked_failed_by_hand_declines_the_stretch():
    def setup(proxy, clock):
        proxy.backends[2].set_failed(True)

    taken, _ = check_same(setup=setup, resolution=0.0005)
    assert taken.stretches and not taken.taken
    assert taken.proxy.counters()["failed_copies"] > 0


class FeedbackKCopies(KCopies):
    """``k2`` that keeps every latency fed back to it."""

    def __init__(self):
        super().__init__(2)
        self.fed = []

    def record_latency(self, latency):
        self.fed.append(latency)


def test_a_policy_that_takes_feedback_declines_the_stretch():
    """Lone arrivals feed their latency to the policy; a static policy that
    overrides record_latency must see every one, so the stretch declines.
    (A custom policy has no spec for the report, so it replaces ``k2`` from
    a timer once the run is under way.)"""
    policies, proxies = [], []

    def install():
        proxy = proxies[-1]
        proxy.policy = FeedbackKCopies()
        proxy._refresh_fast_plan()
        policies.append(proxy.policy)

    async def main(clock, load):
        clock.call_at(0.002, install)
        return await load

    taken, _ = check_same(
        setup=lambda proxy, clock: proxies.append(proxy), main=main, resolution=0.0
    )
    assert len(policies) == 2
    assert not [at for at, _ in taken.taken if at >= 0.002]
    assert [at for at, _ in taken.stretches if at >= 0.002]
    assert policies[0].fed == policies[1].fed
    assert len(policies[0].fed) == taken.proxy.requests - int(
        np.searchsorted(_offsets(400, 20_000.0), 0.002)
    )


def test_run_load_cancelled_mid_run():
    """The test's own sleep is a pending timer, so dispatch is per wake
    until the cancel; both runs stop at the same arrival."""

    async def main(clock, load):
        task = asyncio.ensure_future(load)
        await clock.sleep(0.01)
        task.cancel()
        return await task

    taken, per_wake = check_same(requests=2_000, rate=100_000.0, main=main)
    assert isinstance(taken.error, asyncio.CancelledError)
    assert 0 < taken.proxy.requests < 2_000
    assert not taken.taken


def test_run_load_cancelled_right_after_a_stretch():
    """A cancel that lands while the clock moves onto the stretch's last
    wake stops dispatch there: the next step issues nothing."""
    tasks = []
    reached = []
    real_stretch = RedundancyProxy.submit_stretch

    def submit_stretch(self, *args):
        outcome = real_stretch(self, *args)
        if outcome is not None and not reached:
            reached.append((outcome, self.requests))
            tasks[0].cancel()
        return outcome

    async def main(clock, load):
        tasks.append(asyncio.ensure_future(load))
        return await tasks[0]

    clock = VirtualClock()
    pool = [SimBackend(i, clock, seed=0, service=Exponential(1e-4)) for i in range(4)]
    proxy = RedundancyProxy(pool, clock, policy="k2")
    config = LoadGenConfig(
        rate=100_000.0, num_requests=2_000, seed=0, keyspace=KEYSPACE,
        resolution=0.001, swaps=[(0.01, "k3")],
    )
    with mock.patch.object(RedundancyProxy, "submit_stretch", submit_stretch):
        with pytest.raises(asyncio.CancelledError):
            clock.run(main(clock, run_load(proxy, clock, config)))
    (index, wake), requests = reached[0]
    assert requests == index == int(np.searchsorted(_offsets(2_000, 100_000.0), 0.01))
    assert proxy.requests == index
    assert proxy.policy_spec == "k2"  # the swap never ran
    assert sum(backend.completed for backend in pool) == 2 * index


def test_a_stretch_outside_the_arrays_is_refused():
    """``index`` and ``stop`` reach the kernel as bounds on the key and
    offset arrays, so a range past either is a ValueError."""
    clock = VirtualClock()
    pool = [SimBackend(i, clock, seed=0) for i in range(3)]
    proxy = RedundancyProxy(pool, clock, policy="k2")
    proxy.prepare_keyspace(KEYSPACE, 3)
    keys = np.arange(10, dtype=np.int64)
    offsets = np.linspace(0.0, 0.001, 10)

    async def main():
        for index, stop in [(0, 11), (-1, 5), (6, 5)]:
            with pytest.raises(ValueError):
                proxy.submit_stretch(keys, offsets, 0.0, index, stop, 0.0)
        with pytest.raises(ValueError):
            proxy.submit_stretch(keys, offsets[:5], 0.0, 0, 6, 0.0)
        assert proxy.submit_stretch(keys, offsets, 0.0, 0, 10, 0.0) == (10, 0.001)

    clock.run(main())
    assert proxy.requests == 10


def test_a_key_outside_the_table_stops_the_stretch_before_its_wake():
    """The stretch issues the wakes before the key the table cannot serve
    and stops there, so the per-wake loop meets that key as it would have."""
    clock = VirtualClock()
    pool = [SimBackend(i, clock, seed=0) for i in range(3)]
    proxy = RedundancyProxy(pool, clock, policy="k2")
    proxy.prepare_keyspace(KEYSPACE, 3)
    keys = np.arange(10, dtype=np.int64)
    keys[5] = KEYSPACE
    offsets = np.arange(10) * 1e-4

    async def main():
        assert proxy.submit_stretch(keys, offsets, 0.0, 0, 10, 0.0) == (5, offsets[4])
        assert proxy.submit_stretch(keys, offsets, 0.0, 5, 10, 0.0) is None

    clock.run(main())
    assert proxy.requests == 5
    assert len(proxy._pending_latencies) == 5 and not proxy._pending_chunks
    assert sum(backend.completed for backend in pool) == 10
