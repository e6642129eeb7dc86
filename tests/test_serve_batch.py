"""The batch path's reservations against the per-backend loop they replaced.

:func:`repro.serve.backends.reserve_copies` reserves a whole batch of copies
across the pool in one numpy pass, and :class:`repro.serve.backends.
BatchReserver` reserves it and picks each request's winner in one compiled
``reserve_stretch`` call of a single wake (``reserve_copies`` and
``np.argmin`` under ``REPRO_CKERNELS=0``).  The reference below is the loop
they replaced, kept here verbatim: one ``np.nonzero`` scan per backend and
one 1-D closed-form pass per backend.  All must agree bit for bit on every
finish, service, winner and latency, on the winners' service sum and the
latest winning finish, and leave every backend in the same state
(``busy_until``, ``completed``, ``consumed_s``, draw position and generator
state).  A batch of one must also be the scalar ``submit_nowait`` at its
arrival, since the compiled stretch reserves every lone arrival that way.
"""

import contextlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import _ckernels
from repro.cluster.consistent_hash import ConsistentHashRing
from repro.distributions import DiscreteDistribution, Exponential
from repro.serve import BackendError, RedundancyProxy, SimBackend, VirtualClock
from repro.serve.backends import BatchReserver, reserve_copies

#: Keys of the hypothesis batches; the reserver's table has one row each.
KEYSPACE = 500

PATHS = ["compiled", "numpy"]


@contextlib.contextmanager
def kernel_path(path):
    """Build reservers on the compiled kernel (skipping without a C
    compiler) or, with ``REPRO_CKERNELS=0``, on the numpy path."""
    if path == "compiled" and _ckernels.load() is None:
        pytest.skip("no C compiler available")
    value = "1" if path == "compiled" else "0"
    with mock.patch.dict(os.environ, {_ckernels.CKERNELS_ENV_VAR: value}):
        yield


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


#: Services on a power-of-two grid: with arrivals on one too, finishes sum
#: exactly, so copies of one request often tie and the first must win.
DYADIC = DiscreteDistribution([2.0**-12, 2.0**-10, 2.0**-9], [0.5, 0.25, 0.25])


def make_pool(size, seed, queueing, service=None):
    clock = VirtualClock()
    service = service if service is not None else Exponential(mean=0.001)
    return [
        SimBackend(i, clock, seed=seed, service=service, queueing=q)
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


def make_reserver(pool, ring, copies, path):
    with kernel_path(path):
        reserver = BatchReserver(pool, ring.servers, ring.replica_table(range(KEYSPACE), copies))
    assert (reserver._lib is not None) == (path == "compiled")
    return reserver


def check_batches(size, copies, off_ring, queueing, prefix, batches, seed, path, service=None):
    """Reserve each batch on three twin pools, one per method, and compare."""
    pools = [make_pool(size, seed, queueing, service) for _ in range(3)]
    ring = ConsistentHashRing(size)
    for index in off_ring:
        ring.remove_server(index)
    for pool in pools:
        for index in off_ring:
            pool[index].set_failed(True)  # crashed: never receives a copy
        for backend, count in zip(pool, prefix):
            backend.draw_many(count)  # park the cursor inside the block
    reserver = make_reserver(pools[2], ring, copies, path)
    for keys, arrivals in batches:
        replicas = ring.replica_table(keys.tolist(), copies)
        expected = reference_reserve(pools[0], replicas, arrivals)
        actual = grouped_reserve(pools[1], replicas, arrivals)
        for want, got in zip(expected, actual):
            np.testing.assert_array_equal(got, want)
        win = np.argmin(expected[0], axis=1)
        np.testing.assert_array_equal(np.argmin(actual[0], axis=1), win)
        lanes = np.arange(len(keys))
        win_finish = expected[0][lanes, win]
        np.testing.assert_array_equal(
            actual[0][lanes, win] - arrivals, win_finish - arrivals
        )
        latencies, useful_s, last = reserver.reserve(keys, arrivals, copies)
        np.testing.assert_array_equal(latencies, win_finish - arrivals)
        assert useful_s == float(expected[1][lanes, win].sum())
        assert last == float(win_finish.max())
        for want, *got in zip(*pools):
            assert [backend_state(backend) for backend in got] == [backend_state(want)] * 2
    for want, *got in zip(*pools):
        assert [backend.draw_service() for backend in got] == [want.draw_service()] * 2


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
    service = draw(st.sampled_from([None, DYADIC]))
    rng = np.random.default_rng(seed)
    batches = []
    start = 0.0
    for _ in range(draw(st.integers(1, 3))):
        count = draw(st.integers(1, 300))
        # Arrivals on a coarse power-of-two grid, so many of them tie.
        ticks = np.sort(rng.integers(0, max(1, count // 3), size=count))
        arrivals = start + ticks * 2.0**-13
        start = float(arrivals[-1]) + draw(st.sampled_from([0.0, 2.0**-13, 2.0**-7]))
        batches.append((rng.integers(0, KEYSPACE, size=count), arrivals))
    return size, copies, off_ring, queueing, prefix, batches, seed, service


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=60, deadline=None)
@given(case=batch_cases())
def test_grouped_reservation_equals_per_backend_loop(path, case):
    *args, service = case
    check_batches(*args, path, service)


@pytest.mark.parametrize("path", PATHS)
def test_draws_that_cross_a_block_boundary(path):
    """Every backend starts a few draws short of its 4,096-sample block."""
    rng = np.random.default_rng(7)
    arrivals = np.sort(rng.uniform(0.0, 0.05, 300))
    batches = [(rng.integers(0, KEYSPACE, size=300), arrivals)]
    check_batches(4, 2, [], [True, False, True, True], [4090] * 4, batches, 3, path)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("prefix", [0, 100])
def test_batches_larger_than_a_block_per_backend(path, prefix):
    """Each backend receives over 4,096 copies in one batch: from an empty
    block (one refill of more than 4,096 draws), then from a cursor inside
    the block; FIFO and infinite-server backends both."""
    rng = np.random.default_rng(prefix)
    batches = []
    start = 0.0
    for count in (5_000, 10_000):
        arrivals = start + np.sort(rng.uniform(0.0, 0.05, count))
        start = float(arrivals[-1])
        batches.append((rng.integers(0, KEYSPACE, size=count), arrivals))
    check_batches(3, 2, [], [True, False, True], [prefix] * 3, batches, 5, path)


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


@pytest.mark.parametrize("path", PATHS)
def test_failed_live_backend_refuses_the_batch(path):
    """A backend marked failed while still on the ring makes submit_batch
    return False before anything changes; once revived, the batch runs."""
    pool = make_pool(4, 0, [True] * 4)
    proxy = RedundancyProxy(pool, VirtualClock(), policy="k2")
    with kernel_path(path):
        proxy.prepare_keyspace(100, 4)
    keys = np.arange(10)
    arrivals = np.linspace(0.0, 0.001, 10)
    pool[2].set_failed(True)
    before = [backend_state(backend) for backend in pool]
    assert proxy.submit_batch(keys, arrivals) is False
    assert proxy.requests == 0
    assert [backend_state(backend) for backend in pool] == before
    pool[2].set_failed(False)
    assert proxy.submit_batch(keys, arrivals) is True
    assert proxy.requests == 10


@pytest.mark.parametrize("path", PATHS)
def test_empty_batch_is_a_no_op(path):
    """An empty batch on an eligible plan returns True and changes no
    counter, backend state or pending latency chunk."""
    pool = make_pool(4, 0, [True] * 4)
    proxy = RedundancyProxy(pool, VirtualClock(), policy="k2")
    with kernel_path(path):
        proxy.prepare_keyspace(100, 4)
    assert (proxy._batch._lib is not None) == (path == "compiled")
    assert proxy.submit_batch(np.arange(10), np.linspace(0.0, 0.001, 10)) is True

    def snapshot():
        return (
            proxy.requests,
            proxy.copies_launched,
            proxy.useful_service_s,
            proxy.last_finish_at,
            [chunk.tobytes() for chunk in proxy._pending_chunks],
            [backend_state(backend) for backend in pool],
        )

    before = snapshot()
    assert proxy.submit_batch(np.array([], dtype=np.int64), np.array([])) is True
    assert snapshot() == before


def test_inputs_the_kernel_cannot_read_in_place_take_the_numpy_path():
    """Narrow keys, strided or read-only arrivals and keys outside the
    table go to the numpy path: the same bytes, or numpy's IndexError."""
    ring = ConsistentHashRing(4)
    rng = np.random.default_rng(11)
    keys = rng.integers(0, KEYSPACE, size=400)
    arrivals = np.sort(rng.uniform(0.0, 0.02, 400))
    frozen = arrivals.copy()
    frozen.flags.writeable = False
    variants = [
        (keys.astype(np.int32), arrivals),
        (keys, np.repeat(arrivals, 2)[::2]),
        (keys, frozen),
    ]
    want_pool = make_pool(4, 2, [True] * 4)
    want = make_reserver(want_pool, ring, 2, "numpy")
    got_pool = make_pool(4, 2, [True] * 4)
    got = make_reserver(got_pool, ring, 2, "compiled")
    for batch_keys, batch_arrivals in variants:
        expected = want.reserve(batch_keys, batch_arrivals, 2)
        actual = got.reserve(batch_keys, batch_arrivals, 2)
        np.testing.assert_array_equal(actual[0], expected[0])
        assert actual[1:] == expected[1:]
        assert [backend_state(b) for b in got_pool] == [backend_state(b) for b in want_pool]
    with pytest.raises(IndexError):
        got.reserve(np.array([0, KEYSPACE]), np.array([0.0, 0.1]), 2)


def test_array_sum_is_ndarray_sum():
    """The kernel's port of numpy's pairwise summation, bit for bit: a numpy
    that sums differently fails here rather than in a digest."""
    lib = _ckernels.load()
    if lib is None:
        pytest.skip("no C compiler available")
    rng = np.random.default_rng(0)
    for size in list(range(601)) + [8_191, 8_192, 8_193, 10_000, 65_537, 200_001]:
        values = rng.standard_normal(size) * np.exp(rng.uniform(-30.0, 30.0, size))
        assert lib.array_sum(values.ctypes.data, size) == values.sum(), size


# --------------------------------------------------------------------- #
# A batch of one is submit_nowait at its arrival
# --------------------------------------------------------------------- #


def proxy_state(proxy):
    pending = list(proxy._pending_latencies) + [
        float(value) for chunk in proxy._pending_chunks for value in chunk
    ]
    return (
        proxy.counters(),
        proxy.last_finish_at,
        pending,
        [backend_state(backend) for backend in proxy.backends],
    )


def submit_one_by_one(path, size, queueing, policy, prefix, arrivals, keys, service, batch):
    """Issue each key alone at its arrival: as a one-key ``submit_batch``,
    or as ``submit_nowait`` with the virtual clock moved onto the arrival."""
    clock = VirtualClock()
    pool = [
        SimBackend(i, clock, seed=9, service=service, queueing=q)
        for i, q in zip(range(size), queueing)
    ]
    for backend, count in zip(pool, prefix):
        backend.draw_many(count)  # park the cursor inside the block
    proxy = RedundancyProxy(pool, clock, policy=policy)
    with kernel_path(path):
        proxy.prepare_keyspace(KEYSPACE, size)
    assert (proxy._batch._lib is not None) == (path == "compiled")

    async def issue():
        for key, arrival in zip(keys, arrivals):
            if batch:
                assert proxy.submit_batch(np.array([key]), np.array([arrival])) is True
            else:
                await clock.sleep(arrival - clock.now())
                assert clock.now() == arrival
                assert proxy.submit_nowait(int(key)) is True

    clock.run(issue())
    return proxy_state(proxy)


@st.composite
def lone_cases(draw):
    size = draw(st.integers(2, 6))
    queueing = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    prefix = draw(st.lists(st.sampled_from([0, 7, 4095, 4096]), min_size=size, max_size=size))
    count = draw(st.integers(1, 40))
    # Arrivals on a power-of-two grid: with dyadic services, finishes tie.
    ticks = np.cumsum(draw(st.lists(st.integers(0, 8), min_size=count, max_size=count)))
    keys = draw(st.lists(st.integers(0, KEYSPACE - 1), min_size=count, max_size=count))
    return {
        "size": size,
        "queueing": queueing,
        "policy": draw(st.sampled_from(["none", "k2", "k3"])),
        "prefix": prefix,
        "arrivals": (ticks * 2.0**-11).tolist(),
        "keys": keys,
        "service": draw(st.sampled_from([Exponential(mean=0.001), DYADIC])),
    }


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=40, deadline=None)
@given(case=lone_cases())
def test_a_batch_of_one_is_submit_nowait_at_its_arrival(path, case):
    """``submit_batch([k], [t])`` equals ``submit_nowait(k)`` at clock time
    ``t``: latency, counters, last finish and every backend's state, with
    queues busy past the arrival or idle before it, blocks that run out on
    the copy, and tied finishes."""
    batched = submit_one_by_one(path, batch=True, **case)
    alone = submit_one_by_one(path, batch=False, **case)
    assert batched == alone


@pytest.mark.parametrize("path", PATHS)
def test_a_negative_key_raises_index_error(path):
    """Keys index the replica table, so a negative key is as far outside it
    as a key past its end: IndexError, and nothing changes (numpy would
    otherwise wrap it to a row from the end)."""
    pool = make_pool(4, 0, [True] * 4)
    proxy = RedundancyProxy(pool, VirtualClock(), policy="k2")
    with kernel_path(path):
        proxy.prepare_keyspace(100, 4)
    before = proxy_state(proxy)
    for keys in ([0, -1], [-1, 0], [-100], [0, 100]):
        with pytest.raises(IndexError):
            proxy.submit_batch(np.array(keys), np.linspace(0.0, 0.001, len(keys)))
        assert proxy_state(proxy) == before


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "keys,arrivals,copies",
    [(10, 10, 3), (10, 10, 0), (10, 9, 2), (9, 10, 2)],
    ids=["copies-past-width", "no-copies", "fewer-arrivals", "fewer-keys"],
)
def test_reserve_refuses_a_malformed_batch_before_reserving(path, keys, arrivals, copies):
    """More copies than the table has columns, no copies, or keys and
    arrivals of different lengths raise ValueError before any backend
    receives a copy or draws a service."""
    pool = make_pool(4, 0, [True] * 4)
    reserver = make_reserver(pool, ConsistentHashRing(4), 2, path)

    def state():
        return [backend_state(backend) + (backend._block.tobytes(),) for backend in pool]

    before = state()
    with pytest.raises(ValueError, match="copies"):
        reserver.reserve(np.arange(keys), np.linspace(0.0, 0.001, arrivals), copies)
    assert state() == before


@pytest.mark.parametrize("path", PATHS)
def test_reserve_of_an_empty_batch_is_empty_and_touches_no_backend(path):
    """An empty batch returns empty latencies, no useful service and the
    ``-inf`` last finish a stretch starts from, with every backend's state
    and draw block as it was."""
    pool = make_pool(4, 0, [True, False, True, True])
    reserver = make_reserver(pool, ConsistentHashRing(4), 2, path)

    def state():
        return [backend_state(backend) + (backend._block.tobytes(),) for backend in pool]

    before = state()
    latencies, useful, last = reserver.reserve(np.arange(0), np.array([]), 2)
    assert latencies.dtype == np.float64 and latencies.shape == (0,)
    assert useful == 0.0 and last == -np.inf
    assert state() == before


def test_a_negative_key_takes_the_ring_before_and_after_the_table():
    """``replicas`` reads the prepared table only for keys inside it; a
    negative key goes to the ring either way, never to a row from the
    table's end."""
    pool = make_pool(8, 0, [True] * 8)
    proxy = RedundancyProxy(pool, VirtualClock(), policy="k2")
    before = proxy.replicas(-1, 2)
    assert before == proxy.ring.replicas_for(-1, 2)
    proxy.prepare_keyspace(100, 8)
    assert proxy.replicas(-1, 2) == before
    assert proxy.replicas(99, 2) == proxy._replica_table[99, :2].tolist()


def test_an_eligible_batch_is_one_reserve_stretch_call():
    """With the kernels, submit_batch reserves through the one compiled
    entry point, once, and never through the numpy path."""
    lib = _ckernels.load()
    if lib is None:
        pytest.skip("no C compiler available")
    pool = make_pool(4, 0, [True] * 4)
    for backend in pool:
        backend.draw_many(1)  # a block with room for the batch: no refill
    proxy = RedundancyProxy(pool, VirtualClock(), policy="k2")
    proxy.prepare_keyspace(100, 4)
    calls = []
    real = lib.reserve_stretch

    def reserve_stretch(*args):
        calls.append(args)
        return real(*args)

    refuse = mock.Mock(side_effect=AssertionError("numpy path"))
    with mock.patch.object(lib, "reserve_stretch", reserve_stretch), mock.patch(
        "repro.serve.backends.reserve_copies", refuse
    ), mock.patch.object(BatchReserver, "_reserve_numpy", refuse):
        assert proxy.submit_batch(np.arange(50), np.linspace(0.0, 0.01, 50)) is True
    assert len(calls) == 1
    assert proxy.requests == 50 and len(proxy._pending_chunks) == 1
