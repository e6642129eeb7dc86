"""Optional C fast paths for five Python-level inner loops, via ``ctypes``.

Five hot loops resist numpy vectorisation, because each step depends on the
previous one or because numpy would spend a call per small group: the FIFO
busy-period recursion, the per-miss disk draws (the ziggurat exponential
consumes a variable number of generator words), the LRU cache state, the
pipeline's per-chunk placement draws (``Generator.choice`` without
replacement, one Python call per chunk) and the serving proxy's batch
reservation (``reserve_batch``: one FIFO row per backend, then each
request's winner, which numpy runs as some forty calls per batch).  All
five are plain loops over contiguous C arrays, so when a system C compiler
is present they are compiled once per source digest into a small shared
library and called through ``ctypes`` — no third-party packages, no Python
headers, no build step in the repo.

Byte-identity: each C routine is a literal port of the loop it replaces and
performs exactly the same IEEE-754 double operations and generator draws in
the same order; ``reserve_batch`` also ports numpy's pairwise summation,
which ``ndarray.sum()`` runs on a contiguous array (``array_sum``; a test
pins it against ``.sum()``, so a numpy that sums differently fails loudly).
The build omits ``-ffast-math``, so the compiler cannot
reassociate, and passes ``-ffp-contract=off``, so it cannot fuse a multiply
and an add into one FMA (aarch64 has FMA in its baseline).  The draws run on
the generator's own numpy ``bitgen_t`` state through numpy's own samplers:
``disk_services`` calls ``random_standard_exponential``, the routine
``Generator.exponential`` runs, and ``distinct_choices`` ports
``Generator.choice(n, size=k, replace=False)`` for pools of up to 10,000
(Floyd's algorithm, then a shuffle of the picks) and calls
``random_bounded_uint64`` as it does.  Both symbols are looked up in numpy's
``_generator`` extension at load time rather than linked from a static copy,
so a numpy upgrade cannot leave a stale sampler in a cached library.  The
numpy and Python implementations remain the no-compiler path:
``REPRO_CKERNELS=0`` forces them, and tests pin both paths against the
references.

The library is cached in a per-user directory under the temp dir, created
``0o700``.  A cache directory or library that another user owns, or that
group or others may write, is refused rather than loaded.

Any failure — no compiler, no numpy sampler symbol, an unsafe cache
directory, read-only temp dir, unsupported platform — results in :func:`load`
returning ``None`` and every caller using its fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
from typing import Optional

from repro import flags

CKERNELS_ENV_VAR = flags.CKERNELS.name
"""Set to ``0`` to disable the compiled kernels (Python fallbacks run).

Declared (with its choices) in :mod:`repro.flags`.
"""

_C_SOURCE = r"""
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* FIFO busy-period recursion: finish[i] = max(finish[i-1], a[i]) + s[i].
 * Identical IEEE double ops, in identical order, to the scalar Python loop. */
void seq_finish(const double *arrivals, const double *services,
                double *out, int64_t n) {
    double free_at = 0.0;
    int64_t i;
    for (i = 0; i < n; i++) {
        double arrival = arrivals[i];
        if (free_at <= arrival) {
            free_at = arrival;
        }
        free_at = free_at + services[i];
        out[i] = free_at;
    }
}

/* numpy's bit generator interface (numpy/random/bitgen.h). */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Per-miss disk service draws of the scalar server (ReferenceServer.serve
 * in tests/test_fast_paths.py, and StorageServerModel.probe), in its order:
 * rng.uniform(lo, hi) is lo + span * next_double; rng.random() is
 * next_double; rng.exponential(scale) is scale * std_exp(bg). */
void disk_services(bitgen_t *bg, double (*std_exp)(bitgen_t *),
                   const double *xfer, int64_t n, double lo, double span,
                   double slow_p, double slow_mean, double noise_p,
                   double noise_mean, double *out) {
    int64_t i;
    for (i = 0; i < n; i++) {
        double s = lo + span * bg->next_double(bg->state);
        s = s + xfer[i];
        if (slow_p > 0 && bg->next_double(bg->state) < slow_p) {
            s = s + slow_mean * std_exp(bg);
        }
        if (noise_p > 0 && bg->next_double(bg->state) < noise_p) {
            s = s * (1.0 + noise_mean * std_exp(bg));
        }
        out[i] = s;
    }
}

/* LRU cache of `capacity` (>= 1) items over keys 0 .. max key: a doubly
 * linked list, most recent at the head, with newer/older links and the
 * cached mark indexed by key.  A hit moves its key to the head; a miss
 * inserts it there and evicts the tail once the size exceeds capacity. */
void lru_flags(const int64_t *keys, int64_t n, int64_t capacity,
               int64_t *newer, int64_t *older, uint8_t *cached,
               uint8_t *hit) {
    int64_t head = -1, tail = -1, size = 0, t;
    for (t = 0; t < n; t++) {
        int64_t key = keys[t];
        if (cached[key]) {
            hit[t] = 1;
            if (key == head) {
                continue;
            }
            older[newer[key]] = older[key];
            if (key == tail) {
                tail = newer[key];
            } else {
                newer[older[key]] = newer[key];
            }
        } else {
            hit[t] = 0;
            cached[key] = 1;
            if (head < 0) {
                tail = key;
            }
            size++;
        }
        newer[key] = -1;
        older[key] = head;
        if (head >= 0) {
            newer[head] = key;
        }
        head = key;
        if (size > capacity) {
            int64_t victim = tail;
            tail = newer[victim];
            older[tail] = -1;
            cached[victim] = 0;
            size--;
        }
    }
}

/* numpy's random_bounded_uint64: a uniform integer in [off, off + rng]. */
typedef uint64_t (*bounded_fn)(bitgen_t *, uint64_t, uint64_t, uint64_t, bool);

/* `rows` successive Generator.choice(n, size=k, replace=False) draws for
 * n <= 10000, in numpy's order: Floyd's algorithm, with numpy's
 * open-addressing hash set of mask + 1 slots as the membership test, then
 * the tail shuffle of the k picks. */
void distinct_choices(bitgen_t *bg, bounded_fn bounded, int64_t n, int64_t k,
                      int64_t rows, uint64_t *hash_set, uint64_t mask,
                      int64_t *out) {
    const uint64_t empty = (uint64_t)-1;
    int64_t r, i, j;
    uint64_t slot;
    for (r = 0; r < rows; r++) {
        int64_t *idx = out + r * k;
        for (slot = 0; slot <= mask; slot++) {
            hash_set[slot] = empty;
        }
        for (j = n - k; j < n; j++) {
            uint64_t val = bounded(bg, 0, (uint64_t)j, 0, 0);
            uint64_t loc = val & mask;
            while (hash_set[loc] != empty && hash_set[loc] != val) {
                loc = (loc + 1) & mask;
            }
            if (hash_set[loc] == empty) {
                hash_set[loc] = val;
                idx[j - n + k] = (int64_t)val;
            } else {
                loc = (uint64_t)j & mask;
                while (hash_set[loc] != empty) {
                    loc = (loc + 1) & mask;
                }
                hash_set[loc] = (uint64_t)j;
                idx[j - n + k] = j;
            }
        }
        for (i = k - 1; i >= 1; i--) {
            int64_t pick = (int64_t)bounded(bg, 0, (uint64_t)i, 0, 0);
            int64_t held = idx[pick];
            idx[pick] = idx[i];
            idx[i] = held;
        }
    }
}

/* numpy's pairwise summation (pairwise_sum_DOUBLE): plain adds below 8
 * elements, 8 accumulators up to 128, above that a split at half the
 * length rounded down to a multiple of 8. */
static double pairwise_sum(const double *a, int64_t n) {
    int64_t i, k;
    if (n < 8) {
        double res = -0.0;
        for (i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        for (k = 0; k < 8; k++) {
            r[k] = a[k];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (k = 0; k < 8; k++) {
                r[k] += a[i + k];
            }
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    {
        int64_t half = n / 2;
        half -= half % 8;
        return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
    }
}

/* ndarray.sum() of a contiguous double array: the reduction's 0.0 identity
 * plus the pairwise sum of all n elements. */
double array_sum(const double *a, int64_t n) {
    return 0.0 + pairwise_sum(a, n);
}

/* np.maximum on doubles: the first operand unless it is less (NaN wins). */
#define NP_MAX(a, b) (((a) >= (b) || (a) != (a)) ? (a) : (b))

/* The serving proxy's pool, as BatchPool in Python mirrors it.  Per-slot
 * arrays are indexed by pool index; the table holds pool indices. */
typedef struct {
    const int64_t *table;    /* rows x width replica table */
    int64_t rows;
    int64_t width;
    int64_t slots;
    const uint8_t *queueing; /* 1: single-server FIFO, 0: infinite-server */
    const double **blocks;   /* each slot's draw block */
    const int64_t *lengths;  /* its length */
    const double **refills;  /* the block drawn after it, or NULL */
    int64_t *cursors;        /* in: next unread draw; out: after the batch */
    double *busy;            /* in: busy_until; out: after the batch */
    int64_t *taken;          /* out: copies the slot received */
    double *consumed;        /* out: ndarray.sum() of their services */
    double useful;           /* out: ndarray.sum() of the winners' services */
    double last;             /* out: the latest winning finish */
} batch_pool_t;

/* One batch of RedundancyProxy.submit_batch, as reserve_copies and the
 * winner pick after it compute it in numpy.  Request r sends copy j to slot
 * table[keys[r] * width + j] at arrivals[r].  Each slot serves its copies in
 * copy order, with the services at its cursor, read on into its refill
 * block past the end of its block.  A FIFO slot runs _fifo_finishes' closed
 * form from the busy_until it entered with: prefix sum c, slack
 * m = max(m, a - (c - s)), finish = max(m, busy) + c; an infinite-server
 * slot finishes at a + s.  A request's winner is its first copy with the
 * least finish, a NaN counting as least (np.argmin); latencies[r] is the
 * winning finish minus arrivals[r].
 *
 * Returns 0 when done.  Before it changes anything but `taken`, it returns
 * -1 if a key is outside the table or copies exceeds its width, -2 if
 * scratch memory runs out, or the number of receiving slots that need more
 * draws than their block holds and have no refill block.  A refill block
 * must hold at least taken - (length - cursor) draws. */
int64_t reserve_batch(batch_pool_t *pool, const int64_t *keys,
                      const double *arrivals, int64_t count, int64_t copies,
                      double *latencies) {
    const int64_t slots = pool->slots;
    int64_t *taken = pool->taken;
    int64_t *cursors = pool->cursors;
    int64_t r, j, s, most = count, missing = 0;
    double *prefix, *slack, *last, *scratch, latest = 0.0;
    if (copies > pool->width) {
        return -1;
    }
    for (s = 0; s < slots; s++) {
        taken[s] = 0;
    }
    for (r = 0; r < count; r++) {
        const int64_t *row;
        if (keys[r] < 0 || keys[r] >= pool->rows) {
            return -1;
        }
        row = pool->table + keys[r] * pool->width;
        for (j = 0; j < copies; j++) {
            taken[row[j]]++;
        }
    }
    for (s = 0; s < slots; s++) {
        if (taken[s] > most) {
            most = taken[s];
        }
        if (taken[s] > pool->lengths[s] - cursors[s] && pool->refills[s] == NULL) {
            missing++;
        }
    }
    if (missing) {
        return missing;
    }
    /* Per slot: prefix sum, slack and last finish; then room for the
     * winners' services, or for one slot's services across its refill. */
    prefix = malloc(sizeof(double) * (size_t)(3 * slots + most));
    if (prefix == NULL) {
        return -2;
    }
    slack = prefix + slots;
    last = slack + slots;
    scratch = last + slots;
    for (s = 0; s < slots; s++) {
        prefix[s] = -0.0; /* -0.0 + s is s, so c starts at the first service */
        slack[s] = -INFINITY;
    }
    for (r = 0; r < count; r++) {
        const int64_t *row = pool->table + keys[r] * pool->width;
        const double arrival = arrivals[r];
        double best = 0.0, won = 0.0;
        for (j = 0; j < copies; j++) {
            int64_t at;
            double service, finish;
            s = row[j];
            at = cursors[s]++;
            service = at < pool->lengths[s] ? pool->blocks[s][at]
                                            : pool->refills[s][at - pool->lengths[s]];
            if (pool->queueing[s]) {
                double c = prefix[s] + service;
                double m = NP_MAX(slack[s], arrival - (c - service));
                prefix[s] = c;
                slack[s] = m;
                finish = NP_MAX(m, pool->busy[s]) + c;
                last[s] = finish;
            } else {
                finish = arrival + service;
            }
            if (j == 0 || (best == best && !(finish >= best))) {
                best = finish;
                won = service;
            }
        }
        latencies[r] = best - arrival;
        scratch[r] = won;
        latest = r == 0 ? best : NP_MAX(latest, best);
    }
    pool->useful = array_sum(scratch, count);
    pool->last = latest;
    for (s = 0; s < slots; s++) {
        const int64_t n = taken[s], end = cursors[s], length = pool->lengths[s];
        if (n == 0) {
            continue;
        }
        if (end <= length) {
            pool->consumed[s] = array_sum(pool->blocks[s] + end - n, n);
        } else {
            const int64_t tail = length - (end - n);
            memcpy(scratch, pool->blocks[s] + end - n, sizeof(double) * (size_t)tail);
            memcpy(scratch + tail, pool->refills[s], sizeof(double) * (size_t)(n - tail));
            pool->consumed[s] = array_sum(scratch, n);
            cursors[s] = end - length;
        }
        if (pool->queueing[s]) {
            pool->busy[s] = last[s];
        }
    }
    free(prefix);
    return 0;
}
"""


class BatchPool(ctypes.Structure):
    """``batch_pool_t``, field for field: what ``reserve_batch`` reads and
    writes of one pool.  Pointer fields hold the addresses of arrays the
    caller keeps alive."""

    _fields_ = [
        ("table", ctypes.c_void_p),
        ("rows", ctypes.c_int64),
        ("width", ctypes.c_int64),
        ("slots", ctypes.c_int64),
        ("queueing", ctypes.c_void_p),
        ("blocks", ctypes.c_void_p),
        ("lengths", ctypes.c_void_p),
        ("refills", ctypes.c_void_p),
        ("cursors", ctypes.c_void_p),
        ("busy", ctypes.c_void_p),
        ("taken", ctypes.c_void_p),
        ("consumed", ctypes.c_void_p),
        ("useful", ctypes.c_double),
        ("last", ctypes.c_double),
    ]


_lib: Optional[ctypes.CDLL] = None
_tried = False


def _cache_dir() -> str:
    """Per-user kernel cache under the temp dir (persistent across processes)."""
    return os.path.join(tempfile.gettempdir(), f"repro-ckernels-{os.getuid()}")


def _check_private(path: str) -> None:
    """Refuse ``path`` unless the current user owns it and only they may write it."""
    info = os.lstat(path)
    if stat.S_ISLNK(info.st_mode):
        raise PermissionError(f"kernel cache path {path} is a symlink")
    if info.st_uid != os.getuid():
        raise PermissionError(f"kernel cache path {path} is owned by uid {info.st_uid}")
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError(f"kernel cache path {path} is writable by group or others")


def _build(cache_dir: str) -> ctypes.CDLL:
    import numpy.random._generator as numpy_generator

    # Resolved first: a numpy without either sampler fails the whole build.
    numpy_samplers = ctypes.CDLL(numpy_generator.__file__)
    std_exponential = numpy_samplers.random_standard_exponential
    std_exponential.argtypes = [ctypes.c_void_p]
    std_exponential.restype = ctypes.c_double
    bounded_uint64 = numpy_samplers.random_bounded_uint64
    bounded_uint64.argtypes = [ctypes.c_void_p] + [ctypes.c_uint64] * 3 + [ctypes.c_bool]
    bounded_uint64.restype = ctypes.c_uint64

    digest = hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    _check_private(cache_dir)
    lib_path = os.path.join(cache_dir, f"ckernels-{digest}.so")
    if not os.path.exists(lib_path):
        scratch = f"{lib_path}.tmp{os.getpid()}"
        src_path = f"{scratch}.c"
        with open(src_path, "w") as handle:
            handle.write(_C_SOURCE)
        try:
            subprocess.run(
                ["cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-o", scratch, src_path],
                check=True,
                capture_output=True,
                timeout=120,
            )
        finally:
            os.remove(src_path)
        os.chmod(scratch, 0o700)
        os.replace(scratch, lib_path)  # atomic against concurrent builders
    _check_private(lib_path)
    lib = ctypes.CDLL(lib_path)
    lib.seq_finish.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
    ]
    lib.seq_finish.restype = None
    lib.disk_services.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
    ] + [ctypes.c_double] * 6 + [ctypes.c_void_p]
    lib.disk_services.restype = None
    lib.lru_flags.argtypes = [
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    lib.lru_flags.restype = None
    lib.distinct_choices.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_uint64,
        ctypes.c_void_p,
    ]
    lib.distinct_choices.restype = None
    lib.array_sum.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    lib.array_sum.restype = ctypes.c_double
    lib.reserve_batch.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_void_p,
    ]
    lib.reserve_batch.restype = ctypes.c_int64
    # Passed as disk_services' std_exp and distinct_choices' bounded; kept
    # here so they live with the library.
    lib.std_exponential = std_exponential
    lib.bounded_uint64 = bounded_uint64
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or ``None`` when unavailable/disabled.

    The environment variable is consulted on every call (so tests can pin
    either path); the compile attempt happens at most once per process.
    """
    global _lib, _tried
    if flags.CKERNELS.read() == "0":
        return None
    if _tried:
        return _lib
    _tried = True
    try:
        _lib = _build(_cache_dir())
    except Exception:
        _lib = None
    return _lib
