"""Batched random-draw fast paths for the cluster substrates.

The database and memcached models historically drew their randomness one
request at a time inside the serve loop (``rng.uniform`` for disk positioning,
``rng.random`` for the slow-access and noisy-neighbour coin flips,
``rng.exponential`` for the penalty magnitudes).  Those scalar draws dominate
the per-point cost of a sweep.  This module reproduces the same streams
**consumed in the identical substream order**, so artifacts stay
byte-identical while the per-request Python work disappears.

When the compiled kernels load (:mod:`repro.cluster._ckernels`),
:func:`exact_disk_services` runs the scalar per-miss loop itself in C,
directly on the generator's ``bitgen_t`` state and through numpy's own
exponential sampler, so it is bit-identical by construction.

Without them it takes a numpy path.  The hard part there is the exponential:
numpy's ziggurat sampler consumes a *variable* number of 64-bit draws per
sample, so a stream that interleaves fixed-width draws (one ``uint64`` per
double) with exponentials cannot be sliced up front.  The numpy path solves
this with a single pre-drawn block plus probe-based accounting:

1. Draw one ``rng.random`` block covering the whole miss stream (every double
   consumes exactly one ``uint64``, so block values *are* the stream values).
2. Scan the per-miss coin-flip columns for the first triggered penalty.
3. Rewind the generator to the exponential's stream position with
   ``bit_generator.advance``, draw it scalar (bit-identical by construction),
   then draw one probe double.  The probe equals the next stream value, so
   matching it against the block reveals exactly how many ``uint64`` values
   the ziggurat consumed — no generator internals needed.
4. Continue scanning the same block at the shifted offset.

A final ``advance`` leaves the generator exactly where the scalar path would
have left it, so a batched stream can be continued with scalar draws.  The
numpy path therefore needs a bit generator with ``advance`` (``PCG64``, the
default, or ``Philox``); ``MT19937`` and ``SFC64`` lack it and raise
``AttributeError`` there, while the compiled path runs on any of them.

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

_TWO128 = 1 << 128


class StreamAccountingError(RuntimeError):
    """A probe double was not found in the pre-drawn block.

    This cannot happen unless two adjacent stream doubles collide bit-for-bit
    (probability ~2**-53 per trigger); it is kept as a hard error rather than
    a silent fallback so any accounting bug surfaces immediately.
    """


def _probe_match(block: np.ndarray, start: int, probe: float) -> int:
    """Offset ``k >= 0`` such that ``block[start + k] == probe``."""
    item = block.item
    limit = min(start + 64, len(block))
    for idx in range(start, limit):
        if item(idx) == probe:
            return idx - start
    raise StreamAccountingError(
        f"probe value not found within 64 positions of offset {start}"
    )


def exact_disk_services(
    disk,
    sizes: np.ndarray,
    rng: np.random.Generator,
    noise_probability: float,
    noise_multiplier_mean: float,
) -> np.ndarray:
    """Disk service times for a miss stream, bit-identical to the scalar path.

    Reproduces, for each miss, exactly what the per-copy scalar server
    (``ReferenceServer.serve`` in ``tests/test_fast_paths.py``, and
    :meth:`repro.cluster.storage_server.StorageServerModel.probe`) draws on
    a cache miss: ``disk.sample_service_time`` (a positioning uniform, then
    the slow-access coin flip and exponential penalty) followed by the
    noisy-neighbour coin flip and exponential multiplier.  The generator is
    left in exactly the state the scalar path would leave it.

    With the compiled kernels this is the scalar loop itself, run in C on
    the generator's state (any numpy bit generator).  Without them it is the
    block-and-probe numpy path of the module docstring, which needs
    ``rng.bit_generator.advance``: ``MT19937`` and ``SFC64`` lack it and
    raise ``AttributeError``.

    Args:
        disk: A :class:`~repro.cluster.disk.DiskModel`.
        sizes: File size in bytes per miss, in serve order.
        rng: The server's generator, positioned at the start of the stream.
        noise_probability: Per-miss interference probability.
        noise_multiplier_mean: Mean of the exponential interference multiplier.

    Returns:
        Service time per miss, bitwise equal to the scalar draws.
    """
    n = len(sizes)
    lo = disk.min_positioning_s
    span = disk.max_positioning_s - disk.min_positioning_s
    slow_p = disk.slow_access_probability
    xfer = np.asarray(sizes, dtype=float) / disk.transfer_bytes_per_sec
    if n == 0:
        return np.empty(0)

    lib = _ckernels.load()
    if lib is not None:
        out = np.empty(n)
        bit_generator = rng.bit_generator
        # ctypes releases the GIL: hold the generator's lock, as numpy does.
        with bit_generator.lock:
            lib.disk_services(
                bit_generator.ctypes.bit_generator,
                lib.std_exponential,
                xfer.ctypes.data,
                n,
                lo,
                span,
                slow_p,
                disk.slow_access_mean_s,
                noise_probability,
                noise_multiplier_mean,
                out.ctypes.data,
            )
        return out

    has_slow = slow_p > 0.0
    has_noise = noise_probability > 0.0
    columns = 1 + (1 if has_slow else 0) + (1 if has_noise else 0)
    if columns == 1:
        # No coin flips at all: one positioning uniform per miss.
        return lo + span * rng.random(n) + xfer

    trigger_p = (slow_p if has_slow else 0.0) + (noise_probability if has_noise else 0.0)
    slack = int(n * trigger_p * 16) + 1024
    block_len = n * columns + slack
    block = rng.random(block_len)
    physical = block_len  # generator position relative to the block start

    # Trigger candidates: only block values below the largest threshold can
    # trigger in *any* column alignment, so one global scan replaces the
    # historical per-window comparisons.  ``hot`` is sorted (flatnonzero of a
    # positional mask), which is exactly the scan order of the scalar path.
    max_p = max(slow_p if has_slow else 0.0, noise_probability if has_noise else 0.0)
    hot_positions = np.flatnonzero(block < max_p)
    # Python lists: the walk below touches each candidate once with plain-int
    # arithmetic, which beats per-element numpy scalar extraction ~3x.
    hot_list = hot_positions.tolist()
    hot_vals = block[hot_positions].tolist()
    num_hot = len(hot_list)

    exponential = rng.exponential
    random = rng.random
    advance = rng.bit_generator.advance

    extras = {}    # miss index -> uint64s consumed beyond the fixed columns
    replayed = {}  # miss index -> exactly-replayed service value

    noise_column = columns - 1  # noise flips sit in the last coin-flip column
    miss = 0    # next miss whose coin flips are unverified
    base = 0    # block offset of that miss's positioning uniform
    hot_at = 0  # monotone cursor into the candidate list
    while miss < n:
        limit = base + (n - miss) * columns  # end of the remaining fixed draws
        first = -1
        column = 0
        while hot_at < num_hot:
            position = hot_list[hot_at]
            if position < base:
                # Consumed by a previous trigger's exponential/probe draws.
                hot_at += 1
                continue
            if position >= limit:
                break
            offset_column = (position - base) % columns
            if offset_column == 1 and has_slow and hot_vals[hot_at] < slow_p:
                first, column = position, 1
                break
            if (
                offset_column == noise_column
                and offset_column != 0
                and has_noise
                and hot_vals[hot_at] < noise_probability
            ):
                first, column = position, noise_column
                break
            hot_at += 1
        if first < 0:
            break  # no further trigger: the tail is pure fixed-column draws
        local = (first - base) // columns
        t = miss + local
        q = base + local * columns  # block offset of miss t's uniform
        service = lo + span * block.item(q) + xfer.item(t)
        if has_slow and column == 1:
            # Slow access: the exponential follows the two fixed draws.
            target = q + 2
            advance((target - physical) % _TWO128)
            service += exponential(disk.slow_access_mean_s)
            probe = random()
            gap = _probe_match(block, target + 1, probe)
            physical = target + 1 + gap + 1
            extra = gap + 1
            if has_noise:
                # The probe is exactly the noise coin flip that the scalar
                # path would draw next.
                if probe < noise_probability:
                    noise = exponential(noise_multiplier_mean)
                    probe2 = random()
                    gap2 = _probe_match(block, physical, probe2)
                    service *= 1.0 + noise
                    physical += gap2 + 1
                    extra += gap2
        else:
            # Noise-only trigger: every fixed draw is already in the block
            # (the noise multiplier is the miss's final draw).
            target = q + columns
            advance((target - physical) % _TWO128)
            service *= 1.0 + exponential(noise_multiplier_mean)
            probe = random()
            gap = _probe_match(block, target + 1, probe)
            physical = target + 1 + gap + 1
            extra = gap + 1
        replayed[t] = service
        extras[t] = extra
        miss = t + 1
        base = q + columns + extra

    # Park the generator exactly where the scalar path would have: after the
    # fixed-column draws of every remaining (trigger-free) miss.
    advance((base + (n - miss) * columns - physical) % _TWO128)

    # Block offset of each miss's positioning uniform, via one cumsum.
    step = np.full(n, columns, dtype=np.int64)
    step[0] = 0
    if extras:
        after = np.fromiter(extras.keys(), dtype=np.int64, count=len(extras)) + 1
        ext = np.fromiter(extras.values(), dtype=np.int64, count=len(extras))
        keep = after < n
        np.add.at(step, after[keep], ext[keep])
    offsets = np.cumsum(step)
    out = lo + span * block[offsets] + xfer
    if replayed:
        idx = np.fromiter(replayed.keys(), dtype=np.int64, count=len(replayed))
        val = np.fromiter(replayed.values(), dtype=float, count=len(replayed))
        out[idx] = val
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
