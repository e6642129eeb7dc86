"""Batched draw and FIFO paths for the cluster substrates.

A storage server draws a cache miss's disk service one miss at a time
(:meth:`~repro.cluster.disk.DiskModel.sample_noisy_service_time`: a
positioning uniform, the slow-access coin flip and exponential penalty, then
the noisy-neighbour coin flip and exponential multiplier).  An eager database
run knows each server's whole miss stream up front, so
:func:`exact_disk_services` draws that stream in one call, consuming the
server's substream in the identical order: artifacts stay byte-identical.

When the compiled kernels load (:mod:`repro.cluster._ckernels`), that call
runs the per-miss loop in C, directly on the generator's ``bitgen_t`` state
and through numpy's own exponential sampler, so it is bit-identical by
construction.  Without them it runs the same loop in Python, one
``sample_noisy_service_time`` call per miss; numpy has no vectorised form
of it, because the ziggurat exponential consumes a variable number of
generator words per sample.  Both paths run on any numpy bit generator.

Eager database runs, with or without churn, take :func:`exact_disk_services`
and :func:`sequential_finish_times` per server when the compiled kernels are
off or missing, or when file sizes differ; with the kernels and equal-sized
files they draw and queue inside one compiled pass instead (``eager_reads``
in :mod:`repro.cluster._ckernels`).  Every other eager FIFO in the
queueing, cluster and pipeline substrates, memcached's included, runs
through :func:`grouped_finish_times`.  The per-request scalar loops these
replaced live on in ``tests/test_fast_paths.py`` as references that every
path is checked against bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import _ckernels


def exact_disk_services(
    disk,
    sizes: np.ndarray,
    rng: np.random.Generator,
    noise_probability: float,
    noise_multiplier_mean: float,
) -> np.ndarray:
    """Disk service times for a miss stream, bit-identical to the scalar path.

    Draws, for each miss in turn, exactly what
    :meth:`~repro.cluster.disk.DiskModel.sample_noisy_service_time` draws
    (the per-copy draw of
    :meth:`~repro.cluster.storage_server.StorageServerModel.probe` and of
    ``ReferenceServer.serve`` in ``tests/test_fast_paths.py``), and leaves
    the generator in exactly the state that loop would leave it.  With the
    compiled kernels the loop runs in C on the generator's state; without
    them it is that loop in Python.

    Args:
        disk: A :class:`~repro.cluster.disk.DiskModel`.
        sizes: File size in bytes per miss, in serve order.
        rng: The server's generator, positioned at the start of the stream.
        noise_probability: Per-miss interference probability.
        noise_multiplier_mean: Mean of the exponential interference multiplier.

    Returns:
        Service time per miss, bitwise equal to the scalar draws.
    """
    sizes = np.asarray(sizes, dtype=float)
    lib = _ckernels.load()
    if lib is None or len(sizes) == 0:
        draw = disk.sample_noisy_service_time
        return np.array(
            [draw(size, rng, noise_probability, noise_multiplier_mean) for size in sizes.tolist()],
            dtype=float,
        )
    out = np.empty(len(sizes))
    xfer = sizes / disk.transfer_bytes_per_sec
    bit_generator = rng.bit_generator
    # ctypes releases the GIL: hold the generator's lock, as numpy does.
    with bit_generator.lock:
        lib.disk_services(
            bit_generator.ctypes.bit_generator,
            lib.std_exponential,
            xfer.ctypes.data,
            len(sizes),
            disk.min_positioning_s,
            disk.max_positioning_s - disk.min_positioning_s,
            disk.slow_access_probability,
            disk.slow_access_mean_s,
            noise_probability,
            noise_multiplier_mean,
            out.ctypes.data,
        )
    return out


def sequential_finish_times(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """FIFO busy-period recursion, bit-identical to the per-request loop.

    ``finish[i] = max(finish[i-1], arrival[i]) + service[i]`` with the exact
    per-step rounding of the scalar code.  An algebraic cumsum/cummax rewrite
    would round differently and break byte-identity, and active-set
    relaxation schemes lose to the geometric tail of busy-period lengths (one
    long chain forces as many passes as its length) — the recursion is
    inherently sequential.  When the optional compiled kernel is available it
    runs the identical loop over C doubles; otherwise the Python loop does.
    """
    lib = _ckernels.load()
    if lib is not None:
        arrivals = np.ascontiguousarray(arrivals, dtype=float)
        services = np.ascontiguousarray(services, dtype=float)
        out = np.empty(len(arrivals))
        lib.seq_finish(
            arrivals.ctypes.data, services.ctypes.data, out.ctypes.data, len(out)
        )
        return out
    finish = []
    append = finish.append
    free = 0.0
    for arrival, service in zip(arrivals.tolist(), services.tolist()):
        if free <= arrival:
            free = arrival
        free = free + service
        append(free)
    return np.asarray(finish)


def grouped_finish_times(
    stations: np.ndarray, arrivals: np.ndarray, services: np.ndarray
) -> np.ndarray:
    """FIFO finish time of every copy when each station serves in input order.

    Copy ``i`` joins the queue of station ``stations[i]`` (a non-negative
    id) at ``arrivals[i]`` and needs ``services[i]``.  Stations share no
    state, so one stable sort by station groups the copies without
    reordering any station's queue, and :func:`sequential_finish_times`
    runs once per group.  The result equals a loop over the copies in input
    order with one "free at" clock per station, bit for bit.
    """
    stations = np.asarray(stations)
    finish = np.empty(len(stations))
    if len(stations) == 0:
        return finish
    # The narrowest integer type that holds every id: numpy sorts 8- and
    # 16-bit integers stably with a linear-time radix sort.
    order = np.argsort(
        stations.astype(np.min_scalar_type(stations.max())), kind="stable"
    )
    grouped = stations[order]
    arrivals = np.asarray(arrivals, dtype=float)[order]
    services = np.asarray(services, dtype=float)[order]
    bounds = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), len(order)]
    for low, high in zip(bounds[:-1], bounds[1:]):
        finish[order[low:high]] = sequential_finish_times(
            arrivals[low:high], services[low:high]
        )
    return finish
