"""The batch path's grouped reservation against the per-backend loop it replaced.

:func:`repro.serve.backends.reserve_copies` reserves a whole batch of copies
across the pool in one pass.  The reference below is the loop it replaced,
kept here verbatim: one ``np.nonzero`` scan per backend and one 1-D
closed-form pass per backend.  The two must agree bit for bit on every
finish, service, winner and latency, and leave every backend in the same
state (``busy_until``, ``completed``, ``consumed_s`` and draw position).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.consistent_hash import ConsistentHashRing
from repro.distributions import Exponential
from repro.serve import BackendError, SimBackend, VirtualClock
from repro.serve.backends import reserve_copies


def reference_submit_many(backend, arrivals):
    """The former ``SimBackend.submit_many``: one backend's 1-D closed form."""
    if backend.failed:
        raise BackendError(f"backend {backend.index} is marked failed")
    services = backend.draw_many(len(arrivals))
    if backend._queueing:
        csum = np.cumsum(services)
        slack = np.maximum.accumulate(arrivals - (csum - services))
        finishes = np.maximum(slack, backend._busy_until) + csum
        backend._busy_until = float(finishes[-1])
    else:
        finishes = arrivals + services
    backend.completed += len(arrivals)
    backend.consumed_s += float(services.sum())
    return finishes, services


def reference_reserve(pool, replicas, arrivals):
    """The former ``submit_batch`` loop: one ``nonzero`` scan per backend."""
    finishes = np.empty(replicas.shape)
    services = np.empty(replicas.shape)
    for index, backend in enumerate(pool):
        rows, cols = np.nonzero(replicas == index)
        if len(rows) == 0:
            continue
        finishes[rows, cols], services[rows, cols] = reference_submit_many(
            backend, arrivals[rows]
        )
    return finishes, services


def grouped_reserve(pool, replicas, arrivals):
    count, copies = replicas.shape
    finishes, services = reserve_copies(
        pool, replicas.ravel(), np.repeat(arrivals, copies)
    )
    return finishes.reshape(count, copies), services.reshape(count, copies)


def make_pool(size, seed, queueing):
    clock = VirtualClock()
    return [
        SimBackend(i, clock, seed=seed, service=Exponential(mean=0.001), queueing=q)
        for i, q in zip(range(size), queueing)
    ]


def backend_state(backend):
    return (
        backend._busy_until,
        backend.completed,
        backend.consumed_s,
        backend._cursor,
        len(backend._block),
        backend._rng.bit_generator.state,
    )


def check_batches(size, copies, off_ring, queueing, prefix, batches, seed):
    """Reserve each batch on twin pools, one per method, and compare."""
    pools = [make_pool(size, seed, queueing) for _ in range(2)]
    ring = ConsistentHashRing(size)
    for index in off_ring:
        ring.remove_server(index)
    for pool in pools:
        for index in off_ring:
            pool[index].set_failed(True)  # crashed: never receives a copy
        for backend, count in zip(pool, prefix):
            backend.draw_many(count)  # park the cursor inside the block
    for keys, arrivals in batches:
        replicas = ring.replica_table(keys.tolist(), copies)
        expected = reference_reserve(pools[0], replicas, arrivals)
        actual = grouped_reserve(pools[1], replicas, arrivals)
        for want, got in zip(expected, actual):
            np.testing.assert_array_equal(got, want)
        win = np.argmin(expected[0], axis=1)
        np.testing.assert_array_equal(np.argmin(actual[0], axis=1), win)
        lanes = np.arange(len(keys))
        np.testing.assert_array_equal(
            actual[0][lanes, win] - arrivals, expected[0][lanes, win] - arrivals
        )
        for want, got in zip(*pools):
            assert backend_state(got) == backend_state(want)
    for want, got in zip(*pools):
        assert got.draw_service() == want.draw_service()


@st.composite
def batch_cases(draw):
    size = draw(st.integers(1, 12))
    copies = draw(st.integers(1, size))
    off_ring = draw(
        st.lists(st.integers(0, size - 1), unique=True, max_size=size - copies)
    )
    queueing = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    prefix = draw(st.lists(st.integers(0, 4096), min_size=size, max_size=size))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    batches = []
    start = 0.0
    for _ in range(draw(st.integers(1, 3))):
        count = draw(st.integers(1, 300))
        # Arrivals on a coarse grid, so many of them tie.
        ticks = np.sort(rng.integers(0, max(1, count // 3), size=count))
        arrivals = start + ticks * 1e-4
        start = float(arrivals[-1]) + draw(st.sampled_from([0.0, 1e-4, 0.01]))
        batches.append((rng.integers(0, 500, size=count), arrivals))
    return size, copies, off_ring, queueing, prefix, batches, seed


@settings(max_examples=60, deadline=None)
@given(case=batch_cases())
def test_grouped_reservation_equals_per_backend_loop(case):
    check_batches(*case)


def test_draws_that_cross_a_block_boundary():
    """Every backend starts a few draws short of its 4,096-sample block."""
    rng = np.random.default_rng(7)
    arrivals = np.sort(rng.uniform(0.0, 0.05, 300))
    batches = [(rng.integers(0, 500, size=300), arrivals)]
    check_batches(4, 2, [], [True, False, True, True], [4090] * 4, batches, seed=3)


def test_failed_receiving_backend_refuses_before_any_change():
    pool = make_pool(3, 0, [True] * 3)
    pool[2].set_failed(True)
    before = [backend_state(backend) for backend in pool]
    with pytest.raises(BackendError):
        reserve_copies(pool, np.array([0, 1, 2, 0]), np.array([0.0, 0.0, 0.1, 0.2]))
    assert [backend_state(backend) for backend in pool] == before


def test_submit_many_is_the_one_backend_case():
    arrivals = np.sort(np.random.default_rng(1).uniform(0.0, 0.01, 50))
    want, got = make_pool(1, 4, [True])[0], make_pool(1, 4, [True])[0]
    for expected, actual in zip(reference_submit_many(want, arrivals), got.submit_many(arrivals)):
        np.testing.assert_array_equal(actual, expected)
    assert backend_state(got) == backend_state(want)


def test_draw_many_zero_returns_empty_and_leaves_the_stream():
    backend = make_pool(1, 0, [True])[0]
    backend.draw_many(10)
    before = backend_state(backend)
    drawn = backend.draw_many(0)
    assert drawn.shape == (0,)
    assert backend_state(backend) == before
    fresh = make_pool(1, 0, [True])[0]
    assert fresh.draw_many(0).shape == (0,)
    assert backend_state(fresh) == backend_state(make_pool(1, 0, [True])[0])


def test_submit_many_empty_returns_empty_and_leaves_the_backend():
    backend = make_pool(1, 0, [True])[0]
    backend.submit_many(np.array([0.0, 0.001]))
    before = backend_state(backend)
    finishes, services = backend.submit_many(np.array([]))
    assert finishes.shape == services.shape == (0,)
    assert backend_state(backend) == before
