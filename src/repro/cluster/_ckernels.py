"""Optional C fast paths for Python-level inner loops, via ``ctypes``.

Six hot paths resist numpy vectorisation, because each step depends on the
previous one or because numpy would spend a call per small group: the FIFO
busy-period recursion (``seq_finish``), the per-miss disk draws
(``disk_services``: the ziggurat exponential consumes a variable number of
generator words), the eager database run (``eager_reads``: every read in
``(request, copy)`` order through its server's LRU cache, disk draws and
disk FIFO, which numpy would split into per-server scans, gathers and
scatters), the pipeline's per-chunk placement draws (``distinct_choices``:
``Generator.choice`` without replacement, one Python call per chunk), the
serving proxy's reservations (``reserve_stretch``: a virtual-clock load
run's quiet stretch, wake by wake, which Python runs as a clock timer and a
proxy call per wake; each wake's arrivals are one batch, one FIFO row per
backend and then each request's winner, which numpy runs as some forty
calls per batch; a ``submit_batch`` batch is a stretch of one wake) and the
streaming histogram's recording of many batches (``fold_moments``: each
batch's sum, mean and M2 folded into the running moments in turn, which
numpy runs as four calls per batch; ``bin_counts``: a block's bin keys
counted in a dense table, which numpy does with a floor, a cast and a
``bincount``).  All six are plain loops over contiguous C arrays, so when
a system C compiler is present they are compiled once per source digest
into a small shared library and called through ``ctypes`` — no
third-party packages, no Python headers, no build step in the repo.

Byte-identity: each C routine is a literal port of the loop it replaces and
performs exactly the same IEEE-754 double operations and generator draws in
the same order; ``reserve_stretch`` and ``fold_moments`` also port numpy's
pairwise summation, which ``ndarray.sum()`` runs on a contiguous array
(``array_sum``; a test pins it against ``.sum()``, so a numpy that sums
differently fails loudly).  ``reserve_stretch`` reserves each batch with
the closed form ``reserve_copies`` runs in numpy, on ``start + offset``
added as numpy adds it.  A lone arrival is a batch of one at its wake,
which for finite services is the scalar ``SimBackend.submit`` reservation
(``max(now, busy) + service``, the first least finish, sums of one
element).  Each wake is ``now + ((start + due) - now)``, where the clock's
timer would fall, each horizon is compared as ``np.searchsorted``
compares, and the proxy's and each backend's running totals are added in
arrival order, as the per-wake calls add them.
``bin_counts`` takes the floors of
``BINS_PER_DECADE * np.log10`` as numpy computed them and never calls
libm's ``log10``, which can differ from numpy's in the last ulp and so move
a sample at a bin edge into the neighbouring bin.  The build omits
``-ffast-math``, so the compiler cannot reassociate, and passes
``-ffp-contract=off``, so it cannot fuse a multiply and an add into one FMA
(aarch64 has FMA in its baseline).  The draws run on
the generator's own numpy ``bitgen_t`` state through numpy's own samplers:
``disk_services`` and ``eager_reads`` call ``random_standard_exponential``,
the routine ``Generator.exponential`` runs, and ``distinct_choices`` ports
``Generator.choice(n, size=k, replace=False)`` for pools of up to 10,000
(Floyd's algorithm, then a shuffle of the picks) and calls
``random_bounded_uint64`` as it does.  Both symbols are looked up in numpy's
``_generator`` extension at load time rather than linked from a static copy,
so a numpy upgrade cannot leave a stale sampler in a cached library.

The library is cached in a per-user directory under the temp dir, created
``0o700``.  A cache directory or library that another user owns, or that
group or others may write, is refused rather than loaded.

Any failure — no compiler, no numpy sampler symbol, an unsafe cache
directory, read-only temp dir, unsupported platform — results in :func:`load`
returning ``None``, and every caller runs its no-compiler path, which
``REPRO_CKERNELS=0`` forces and tests pin against the same references.  For
the database that is the scalar loop itself: per server, an
``LRUByteCache``, one Python ``DiskModel.sample_noisy_service_time`` call
per miss and the Python FIFO loop (``eager_reads``, ``disk_services``,
``seq_finish``).  The placements run ``Generator.choice`` per chunk
(``distinct_choices``); the serving proxy runs a timer per wake and
reserves each batch in numpy (``reserve_stretch``); the histogram's block
loop folds each batch in numpy and counts the keys with ``np.floor`` and
``np.bincount`` (``fold_moments``, ``bin_counts``).  At 128 bins per decade
every key fits the table, so ``bin_counts`` has no fall-back of its own.
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

typedef double (*std_exp_fn)(bitgen_t *);

/* The disk: a service is lo + span * uniform + xfer, plus slow_mean * an
 * exponential with probability slow_p, then times 1 + noise_mean * an
 * exponential with probability noise_p. */
typedef struct {
    double lo;
    double span;
    double slow_p;
    double slow_mean;
    double noise_p;
    double noise_mean;
} disk_t;

/* One miss's disk service, drawn as the scalar server draws it
 * (ReferenceServer.serve in tests/test_fast_paths.py, and
 * StorageServerModel.probe): rng.uniform(lo, hi) is lo + span *
 * next_double; rng.random() is next_double; rng.exponential(scale) is
 * scale * std_exp(bg). */
static double disk_service(bitgen_t *bg, std_exp_fn std_exp, const disk_t *disk,
                           double xfer) {
    double s = disk->lo + disk->span * bg->next_double(bg->state);
    s = s + xfer;
    if (disk->slow_p > 0 && bg->next_double(bg->state) < disk->slow_p) {
        s = s + disk->slow_mean * std_exp(bg);
    }
    if (disk->noise_p > 0 && bg->next_double(bg->state) < disk->noise_p) {
        s = s * (1.0 + disk->noise_mean * std_exp(bg));
    }
    return s;
}

/* Per-miss disk service draws of n misses, in order. */
void disk_services(bitgen_t *bg, std_exp_fn std_exp, const double *xfer, int64_t n,
                   double lo, double span, double slow_p, double slow_mean,
                   double noise_p, double noise_mean, double *out) {
    const disk_t disk = {lo, span, slow_p, slow_mean, noise_p, noise_mean};
    int64_t i;
    for (i = 0; i < n; i++) {
        out[i] = disk_service(bg, std_exp, &disk, xfer[i]);
    }
}

/* np.minimum on doubles: the first operand unless it is greater (NaN wins). */
#define NP_MIN(a, b) (((a) <= (b) || (a) != (a)) ? (a) : (b))

/* One key slot of a server's LRU list: its newer and older neighbours. */
typedef struct {
    int32_t newer;
    int32_t older;
} node_t;

/* One storage server of eager_reads.  Its LRU cache is a doubly linked list
 * over the key slots, most recent at the head, with the links and the
 * cached mark indexed by key (each server has its own, so the state grows
 * with the servers in the run, not with their largest id); its disk draws
 * on its own generator and serves misses FIFO, free again at free_at. */
typedef struct {
    node_t *nodes;
    uint8_t *cached;
    int64_t head;
    int64_t tail;
    int64_t size;
    bitgen_t *bg;
    double free_at;
} server_t;

/* An LRU access of `capacity` (>= 1) items: a hit moves the key to the
 * head; a miss inserts it there and evicts the tail once the size exceeds
 * capacity.  Returns whether it hit. */
static int lru_access(server_t *srv, int64_t key, int64_t capacity) {
    node_t *nodes = srv->nodes, *node = &nodes[key];
    const int hit = srv->cached[key];
    if (hit) {
        if (key == srv->head) {
            return 1;
        }
        nodes[node->newer].older = node->older;
        if (key == srv->tail) {
            srv->tail = node->newer;
        } else {
            nodes[node->older].newer = node->newer;
        }
    } else {
        srv->cached[key] = 1;
        if (srv->head < 0) {
            srv->tail = key;
        }
        srv->size++;
    }
    node->newer = -1;
    node->older = srv->head;
    if (srv->head >= 0) {
        nodes[srv->head].newer = key;
    }
    srv->head = key;
    if (srv->size > capacity) {
        const int64_t victim = srv->tail;
        srv->tail = nodes[victim].newer;
        nodes[srv->tail].older = -1;
        srv->cached[victim] = 0;
        srv->size--;
    }
    return hit;
}

/* One eager database run, as DatabaseClusterExperiment._eager_batched
 * passes it.  Copy j of request r reads files[r] from server
 * replicas[r * copies + j] at arrivals[r]; migration read m reads
 * job_files[m] from server job_servers[m] at job_times[m]. */
typedef struct {
    const double *arrivals;     /* requests, non-decreasing */
    const int64_t *files;
    const int64_t *replicas;    /* requests x copies server ids */
    int64_t requests;
    int64_t copies;
    const double *job_times;    /* migration reads, non-decreasing */
    const int64_t *job_servers;
    const int64_t *job_files;
    int64_t jobs;
    bitgen_t **gens;            /* server id's generator; NULL: no such server */
    int64_t slots;              /* server ids 0 .. slots - 1 */
    int64_t keys;               /* files 0 .. keys - 1 (keys >= 1) */
    int64_t capacity;           /* LRU items per server; <= 0: every read misses */
    const int64_t *warm;        /* warm keys of servers 0 .. warmed - 1, in turn */
    const int64_t *warm_ends;   /* where server s's warm keys end in warm */
    int64_t warmed;
    std_exp_fn std_exp;
    disk_t disk;
    double xfer;                /* every read's transfer time */
    double memory_s;            /* every read's memory service time */
    double *best;               /* out: each request's least copy elapsed time */
} eager_run_t;

/* One read of `key` on server s at `at`.  A hit completes at at +
 * memory_s; a miss draws its service and queues FIFO on the disk
 * (seq_finish's recursion), completing memory_s after the disk frees.
 * Returns 0 with the completion time in *done, or -2 if the run has no
 * server s or no key `key`. */
static int serve_read(const eager_run_t *run, server_t *servers, int64_t s,
                      int64_t key, double at, int64_t *hits, double *done) {
    server_t *srv;
    double service;
    if (s < 0 || s >= run->slots || servers[s].bg == NULL || key < 0 || key >= run->keys) {
        return -2;
    }
    srv = &servers[s];
    if (run->capacity > 0 && lru_access(srv, key, run->capacity)) {
        ++*hits;
        *done = at + run->memory_s;
        return 0;
    }
    service = disk_service(srv->bg, run->std_exp, &run->disk, run->xfer);
    if (srv->free_at <= at) {
        srv->free_at = at;
    }
    srv->free_at = srv->free_at + service;
    *done = srv->free_at + run->memory_s;
    return 0;
}

/* The scalar loop of the eager run (reference_database_eager and
 * reference_database_churn in tests/test_fast_paths.py): every read in
 * (request, copy) order, each migration read served before the first
 * request that arrives at or after it, the servers warmed first with their
 * warm keys (distinct, at most capacity of them).  Writes each request's
 * least copy elapsed time to best and returns the cache hits, migration
 * reads included.  Returns -1, before drawing anything, if memory runs out
 * or keys exceeds INT32_MAX; and -2, at once, if a read names a server
 * without a generator or a key outside 0 .. keys - 1, or a warm key does. */
int64_t eager_reads(const eager_run_t *run) {
    const int64_t slots = run->slots, keys = run->keys, copies = run->copies;
    int64_t s, r, j, m = 0, hits = 0;
    server_t *servers;
    double done;
    if (keys > INT32_MAX || (uint64_t)keys > SIZE_MAX / sizeof(node_t)) {
        return -1;
    }
    /* Zeroed: a server id without a generator keeps a NULL bg. */
    servers = calloc((size_t)slots, sizeof(server_t));
    if (servers == NULL) {
        return -1;
    }
    for (s = 0; s < slots; s++) {
        server_t *srv = &servers[s];
        if (run->gens[s] == NULL) {
            continue;
        }
        srv->nodes = malloc(sizeof(node_t) * (size_t)keys);
        srv->cached = calloc((size_t)keys, 1);
        if (srv->nodes == NULL || srv->cached == NULL) {
            hits = -1;
            goto out;
        }
        srv->head = srv->tail = -1;
        srv->bg = run->gens[s];
    }
    for (s = 0; s < run->warmed && run->capacity > 0; s++) {
        for (j = s ? run->warm_ends[s - 1] : 0; j < run->warm_ends[s]; j++) {
            if (s >= slots || servers[s].bg == NULL || run->warm[j] < 0 || run->warm[j] >= keys) {
                goto invalid;
            }
            lru_access(&servers[s], run->warm[j], run->capacity);
        }
    }
    for (r = 0; r < run->requests; r++) {
        const double arrival = run->arrivals[r];
        double best = 0.0;
        for (; m < run->jobs && run->job_times[m] <= arrival; m++) {
            if (serve_read(run, servers, run->job_servers[m], run->job_files[m],
                           run->job_times[m], &hits, &done)) {
                goto invalid;
            }
        }
        for (j = 0; j < copies; j++) {
            if (serve_read(run, servers, run->replicas[r * copies + j], run->files[r],
                           arrival, &hits, &done)) {
                goto invalid;
            }
            best = j == 0 ? done - arrival : NP_MIN(best, done - arrival);
        }
        run->best[r] = best;
    }
    for (; m < run->jobs; m++) { /* after the last arrival */
        if (serve_read(run, servers, run->job_servers[m], run->job_files[m],
                       run->job_times[m], &hits, &done)) {
            goto invalid;
        }
    }
    goto out;
invalid:
    hits = -2;
out:
    for (s = 0; s < slots; s++) {
        if (run->gens[s] != NULL) {
            free(servers[s].nodes);
            free(servers[s].cached);
        }
    }
    free(servers);
    return hits;
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

/* numpy's pairwise summation (pairwise_sum_DOUBLE) of n >= 8 elements
 * (ndarray_sum does fewer): 8 accumulators up to 128, above that a split at
 * half the length rounded down to a multiple of 8, so never below 64. */
static double pairwise_sum(const double *a, int64_t n) {
    int64_t i, k;
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
 * plus the pairwise sum of all n elements, which below 8 is plain adds from
 * -0.0, done here without a call. */
static double ndarray_sum(const double *a, int64_t n) {
    if (n < 8) {
        double res = -0.0;
        int64_t i;
        for (i = 0; i < n; i++) {
            res += a[i];
        }
        return 0.0 + res;
    }
    return 0.0 + pairwise_sum(a, n);
}

/* ndarray_sum, for the test that pins it against ndarray.sum(). */
double array_sum(const double *a, int64_t n) {
    return ndarray_sum(a, n);
}

/* np.maximum on doubles: the first operand unless it is less (NaN wins). */
#define NP_MAX(a, b) (((a) >= (b) || (a) != (a)) ? (a) : (b))

/* numpy's < on doubles, as np.searchsorted compares: NaN sorts last. */
#define NP_LESS(a, b) ((a) < (b) || ((b) != (b) && (a) == (a)))

/* The serving proxy's pool, as BatchPool in Python mirrors it.  Per-slot
 * arrays are indexed by pool index; the table holds pool indices.  A slot
 * reads its draws from its block, then from its refill block, which then
 * becomes its block. */
typedef struct {
    const int64_t *table;    /* rows x width replica table */
    int64_t rows;
    int64_t width;
    int64_t slots;
    int64_t block;           /* the draws of a refill block, at least */
    const uint8_t *queueing; /* 1: single-server FIFO, 0: infinite-server */
    const double **blocks;   /* each slot's draw block */
    int64_t *lengths;        /* its length */
    const double **refills;  /* the block drawn after it, or NULL */
    int64_t *refill_lengths; /* its length; with a status > 0, the length a
                                slot without one needs (0: none needed) */
    int64_t *cursors;        /* in: next unread draw; out: after the call */
    double *busy;            /* in: busy_until; out: after the call */
} batch_pool_t;

/* A quiet stretch of RedundancyProxy.submit_stretch: arrivals index .. stop
 * - 1 of a run, issued as run_load's per-wake loop issues them. */
typedef struct {
    const int64_t *keys;     /* the run's keys */
    const double *offsets;   /* its arrival offsets, ascending */
    double start;            /* arrival i is due at start + offsets[i] */
    double resolution;
    int64_t copies;
    int64_t stop;
    int64_t index;           /* in/out: the next arrival */
    double now;              /* in/out: the clock, at the last wake */
    double *latencies;       /* size of them: batches' from the front, lone
                                arrivals' from the back, last first */
    int64_t size;
    int64_t batched;         /* in/out: latencies at the front */
    int64_t lone;            /* in/out: latencies at the back */
    int64_t *ends;           /* out: where each batch's latencies end */
    int64_t batches;         /* in/out: batches in ends */
    double useful;           /* in/out: the proxy's useful_service_s */
    double last;             /* in/out: its latest winning finish */
    int64_t *completed;      /* in/out, per slot: copies received */
    double *consumed;        /* in/out, per slot: consumed_s */
} stretch_t;

/* Slot s moves on to its refill block. */
static void next_block(batch_pool_t *pool, int64_t s) {
    pool->blocks[s] = pool->refills[s];
    pool->lengths[s] = pool->refill_lengths[s];
    pool->refills[s] = NULL;
    pool->refill_lengths[s] = 0;
}

/* Scratch of one reserve_stretch call: per slot the copies the current
 * batch sends it (0 between batches), a prefix sum, a slack and a last
 * finish; the slots the batch reaches, in the order it first reaches them;
 * and room for a batch's winners' services, or one slot's services across
 * its refill. */
typedef struct {
    int64_t *taken;
    int64_t *reached;
    double *prefix;
    double *slack;
    double *last;
    double *spare;
    int64_t room;
} scratch_t;

/* One batch of a stretch, as RedundancyProxy.submit_batch reserves it
 * (reserve_copies, then np.argmin).  Request r arrives at start +
 * offsets[r] (the double add numpy does; a start of -0.0 leaves each
 * offset as it is) and sends copy j to slot table[keys[r] * width + j].
 * Each slot serves its copies in copy order, with the services at its
 * cursor, read on into its refill block past the end of its block.  A FIFO
 * slot runs _fifo_finishes' closed form from the busy_until it entered
 * with: prefix sum c, slack m = max(m, a - (c - s)), finish = max(m, busy)
 * + c; an infinite-server slot finishes at a + s.  A request's winner is
 * its first copy with the least finish, a NaN counting as least
 * (np.argmin); latencies[r] is the winning finish minus its arrival.  The
 * winners' services and each slot's are summed as ndarray.sum() sums them
 * and added to the stretch's totals, and the latest winning finish raises
 * its last.
 *
 * A batch of one at `now` is SimBackend.submit's scalar reservation, for
 * finite services: c - s is 0, so m is now and a FIFO slot finishes at
 * max(now, busy) + s; the first least finish wins; a sum of one element is
 * that element.
 *
 * Returns 0 when done, with the scratch's per-slot counts back at 0.
 * Before it changes anything but the scratch, which its caller then drops,
 * and `refill_lengths`, it returns -1 if a key is outside the table, -2 if
 * scratch memory runs out, or the number of receiving slots that need more
 * draws than their block holds and have no refill block; each such slot's
 * refill_lengths is then the length its refill must have, draw_many's
 * max(block, short), which for one draw is draw_service's block. */
static int64_t reserve_requests(batch_pool_t *pool, stretch_t *run, const int64_t *keys,
                                const double *offsets, double start, int64_t count,
                                double *latencies, scratch_t *work) {
    const int64_t copies = run->copies;
    int64_t *taken = work->taken, *reached = work->reached, *cursors = pool->cursors;
    double *prefix = work->prefix, *slack = work->slack, *last = work->last;
    int64_t r, j, s, t, slots = 0, most = count, missing = 0;
    double latest = 0.0;
    for (r = 0; r < count; r++) {
        const int64_t *row;
        if (keys[r] < 0 || keys[r] >= pool->rows) {
            return -1;
        }
        row = pool->table + keys[r] * pool->width;
        for (j = 0; j < copies; j++) {
            if (taken[row[j]]++ == 0) {
                reached[slots++] = row[j];
            }
        }
    }
    for (t = 0; t < slots; t++) {
        int64_t short_by;
        s = reached[t];
        short_by = taken[s] - (pool->lengths[s] - cursors[s]);
        if (taken[s] > most) {
            most = taken[s];
        }
        if (short_by > 0 && pool->refills[s] == NULL) {
            pool->refill_lengths[s] = short_by > pool->block ? short_by : pool->block;
            missing++;
        }
        prefix[s] = -0.0; /* -0.0 + s is s, so c starts at the first service */
        slack[s] = -INFINITY;
    }
    if (missing) {
        return missing;
    }
    if (most > work->room) {
        free(work->spare);
        work->spare = malloc(sizeof(double) * (size_t)most);
        work->room = work->spare == NULL ? 0 : most;
        if (work->spare == NULL) {
            return -2;
        }
    }
    for (r = 0; r < count; r++) {
        const int64_t *row = pool->table + keys[r] * pool->width;
        const double arrival = start + offsets[r];
        double best = 0.0, won = 0.0;
        for (j = 0; j < copies; j++) {
            int64_t at;
            double service, finish;
            bool nan;
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
            /* np.argmin counts a NaN as least and keeps the first; tested
             * apart, the plain pick compiles without a branch */
            nan = finish != finish && best == best;
            if (j == 0 || finish < best) {
                best = finish;
                won = service;
            }
            if (nan) {
                best = finish;
                won = service;
            }
        }
        latencies[r] = best - arrival;
        work->spare[r] = won;
        latest = r == 0 ? best : NP_MAX(latest, best);
    }
    run->useful = run->useful + ndarray_sum(work->spare, count);
    if (latest > run->last) {
        run->last = latest;
    }
    for (t = 0; t < slots; t++) {
        const int64_t slot = reached[t], n = taken[slot], end = cursors[slot];
        const int64_t length = pool->lengths[slot];
        double consumed;
        if (end <= length) {
            consumed = ndarray_sum(pool->blocks[slot] + end - n, n);
        } else {
            const int64_t tail = length - (end - n);
            memcpy(work->spare, pool->blocks[slot] + end - n, sizeof(double) * (size_t)tail);
            memcpy(work->spare + tail, pool->refills[slot], sizeof(double) * (size_t)(n - tail));
            consumed = ndarray_sum(work->spare, n);
            cursors[slot] = end - length;
            next_block(pool, slot);
        }
        if (pool->queueing[slot]) {
            pool->busy[slot] = last[slot];
        }
        run->completed[slot] += n;
        run->consumed[slot] = run->consumed[slot] + consumed;
        taken[slot] = 0;
    }
    return 0;
}

/* The per-wake loop of run_load over a stretch in which the clock runs
 * nothing else.  A wake moves the clock to now + ((start + due) - now), as
 * a timer due there would, and only when that delay exceeds the resolution;
 * it then issues every arrival up to the horizon (now - start) + resolution
 * (np.searchsorted's right side, at least one, never past stop) as one
 * reserve_requests batch: two or more at start + offset, as submit_batch
 * issues them, one alone at the wake, as submit_nowait does.
 * RedundancyProxy.submit_batch is one wake: offsets its arrivals, start
 * -0.0, now its first arrival and an infinite resolution.
 *
 * Returns 0 once index reaches stop.  Otherwise index and now stop before
 * the wake that needs Python: a status > 0 asks for refill blocks (see
 * reserve_requests), -1 meets a key or copy count the table cannot serve,
 * -2 ran out of memory. */
int64_t reserve_stretch(batch_pool_t *pool, stretch_t *run) {
    const int64_t slots = pool->slots;
    scratch_t work = {NULL, NULL, NULL, NULL, NULL, NULL, 0};
    int64_t status = 0;
    if (run->copies < 1 || run->copies > pool->width) {
        return -1;
    }
    /* int64_t and double share a size, so one block holds the per-slot parts */
    work.taken = calloc((size_t)(5 * slots), sizeof(int64_t));
    if (work.taken == NULL) {
        return -2;
    }
    work.reached = work.taken + slots;
    work.prefix = (double *)(work.reached + slots);
    work.slack = work.prefix + slots;
    work.last = work.slack + slots;
    while (run->index < run->stop) {
        const int64_t index = run->index;
        const double *offsets = run->offsets;
        const double delay = (run->start + offsets[index]) - run->now;
        double now = run->now, horizon;
        int64_t end;
        if (delay > run->resolution && now + delay > now) {
            now = now + delay;
        }
        horizon = (now - run->start) + run->resolution;
        for (end = index + 1; end < run->stop && !NP_LESS(horizon, offsets[end]); end++) {
        }
        if (end - index == 1) {
            status = reserve_requests(pool, run, run->keys + index, &now, -0.0, 1,
                                      run->latencies + run->size - 1 - run->lone, &work);
            run->lone += status == 0;
        } else {
            status = reserve_requests(pool, run, run->keys + index, offsets + index, run->start,
                                      end - index, run->latencies + run->batched, &work);
            if (status == 0) {
                run->batched += end - index;
                run->ends[run->batches++] = run->batched;
            }
        }
        if (status != 0) {
            break;
        }
        run->index = end;
        run->now = now;
    }
    free(work.taken);
    free(work.spare);
    return status;
}

/* A Histogram's running moments: count, mean, M2 (Chan et al.) and sum. */
typedef struct {
    int64_t count;
    double mean;
    double m2;
    double sum;
} moments_t;

/* The moment fold of Histogram.record_batches over `batches` batches, the
 * b-th the next sizes[b] (>= 1) samples of data, in batch order: a batch's
 * sum is ndarray.sum(), its mean that over its size and its M2
 * np.square(batch - mean).sum() (the squares are summed in scratch, which
 * holds the largest batch); then Chan's update, evaluated as Python
 * evaluates it in the numpy fold, and the sum. */
void fold_moments(moments_t *m, const double *data, const int64_t *sizes,
                  int64_t batches, double *scratch) {
    int64_t b, i;
    for (b = 0; b < batches; b++) {
        const int64_t n = sizes[b], count = m->count + n;
        const double total = ndarray_sum(data, n), mean = total / (double)n;
        double delta, batch_m2;
        for (i = 0; i < n; i++) {
            const double deviation = data[i] - mean;
            scratch[i] = deviation * deviation;
        }
        batch_m2 = ndarray_sum(scratch, n);
        delta = mean - m->mean;
        m->mean = m->mean + delta * (double)n / (double)count;
        m->m2 = m->m2 + (batch_m2 + delta * delta * (double)m->count * (double)n / (double)count);
        m->count = count;
        m->sum = m->sum + total;
        data += n;
    }
}

/* A Histogram's bins in the making: the count of each key from lo to
 * lo + size - 1. */
typedef struct {
    int64_t lo;
    int64_t size;
    int64_t *counts;
    int64_t zeros;  /* zero samples */
    int64_t least;  /* out, when a key falls outside: the least key */
    int64_t most;   /* and the greatest */
} bin_table_t;

/* np.floor of a double inside +-2**62, as an integer. */
static int64_t floor_key(double x) {
    const int64_t k = (int64_t)x;
    return (double)k > x ? k - 1 : k;
}

/* Counts the n values of scaled into table.  Each value is
 * BINS_PER_DECADE * np.log10(sample): a zero sample's is -inf and counts
 * in zeros, any other's bin key is its floor.  Returns 0 when counted.
 * Before counting anything, it returns 1, with the least and greatest key
 * in least and most, when a key falls outside the table, and -1 when one
 * lies beyond +-2**62. */
int64_t bin_counts(bin_table_t *table, const double *scaled, int64_t n) {
    double least = INFINITY, most = -INFINITY;
    int64_t i;
    for (i = 0; i < n; i++) {
        if (scaled[i] != -INFINITY) {
            least = scaled[i] < least ? scaled[i] : least;
            most = scaled[i] > most ? scaled[i] : most;
        }
    }
    if (least <= most) {
        if (!(least > -0x1p62 && most < 0x1p62)) {
            return -1;
        }
        table->least = floor_key(least);
        table->most = floor_key(most);
        if (table->least < table->lo || table->most >= table->lo + table->size) {
            return 1;
        }
    }
    for (i = 0; i < n; i++) {
        if (scaled[i] == -INFINITY) {
            table->zeros++;
        } else {
            table->counts[floor_key(scaled[i]) - table->lo]++;
        }
    }
    return 0;
}
"""


class BatchPool(ctypes.Structure):
    """``batch_pool_t``, field for field: what ``reserve_stretch`` reads and
    writes of one pool.  Pointer fields hold the addresses of arrays the
    caller keeps alive."""

    _fields_ = [
        ("table", ctypes.c_void_p),
        ("rows", ctypes.c_int64),
        ("width", ctypes.c_int64),
        ("slots", ctypes.c_int64),
        ("block", ctypes.c_int64),
        ("queueing", ctypes.c_void_p),
        ("blocks", ctypes.c_void_p),
        ("lengths", ctypes.c_void_p),
        ("refills", ctypes.c_void_p),
        ("refill_lengths", ctypes.c_void_p),
        ("cursors", ctypes.c_void_p),
        ("busy", ctypes.c_void_p),
    ]


class Stretch(ctypes.Structure):
    """``stretch_t``, field for field: one quiet stretch of a load run as
    ``reserve_stretch`` issues it.  Pointer fields hold the addresses of
    arrays the caller keeps alive."""

    _fields_ = [
        ("keys", ctypes.c_void_p),
        ("offsets", ctypes.c_void_p),
        ("start", ctypes.c_double),
        ("resolution", ctypes.c_double),
        ("copies", ctypes.c_int64),
        ("stop", ctypes.c_int64),
        ("index", ctypes.c_int64),
        ("now", ctypes.c_double),
        ("latencies", ctypes.c_void_p),
        ("size", ctypes.c_int64),
        ("batched", ctypes.c_int64),
        ("lone", ctypes.c_int64),
        ("ends", ctypes.c_void_p),
        ("batches", ctypes.c_int64),
        ("useful", ctypes.c_double),
        ("last", ctypes.c_double),
        ("completed", ctypes.c_void_p),
        ("consumed", ctypes.c_void_p),
    ]


class Moments(ctypes.Structure):
    """``moments_t``: the running moments ``fold_moments`` folds batches into."""

    _fields_ = [
        ("count", ctypes.c_int64),
        ("mean", ctypes.c_double),
        ("m2", ctypes.c_double),
        ("sum", ctypes.c_double),
    ]


class BinTable(ctypes.Structure):
    """``bin_table_t``, field for field: the bins ``bin_counts`` counts into.
    Pointer fields hold the addresses of arrays the caller keeps alive."""

    _fields_ = [
        ("lo", ctypes.c_int64),
        ("size", ctypes.c_int64),
        ("counts", ctypes.c_void_p),
        ("zeros", ctypes.c_int64),
        ("least", ctypes.c_int64),
        ("most", ctypes.c_int64),
    ]


class Disk(ctypes.Structure):
    """``disk_t``: the disk parameters ``disk_service`` draws a miss with."""

    _fields_ = [
        (name, ctypes.c_double)
        for name in ("lo", "span", "slow_p", "slow_mean", "noise_p", "noise_mean")
    ]


class EagerRun(ctypes.Structure):
    """``eager_run_t``, field for field: one eager database run as
    ``eager_reads`` reads it.  Pointer fields hold the addresses of arrays
    the caller keeps alive."""

    _fields_ = [
        ("arrivals", ctypes.c_void_p),
        ("files", ctypes.c_void_p),
        ("replicas", ctypes.c_void_p),
        ("requests", ctypes.c_int64),
        ("copies", ctypes.c_int64),
        ("job_times", ctypes.c_void_p),
        ("job_servers", ctypes.c_void_p),
        ("job_files", ctypes.c_void_p),
        ("jobs", ctypes.c_int64),
        ("gens", ctypes.c_void_p),
        ("slots", ctypes.c_int64),
        ("keys", ctypes.c_int64),
        ("capacity", ctypes.c_int64),
        ("warm", ctypes.c_void_p),
        ("warm_ends", ctypes.c_void_p),
        ("warmed", ctypes.c_int64),
        ("std_exp", ctypes.c_void_p),
        ("disk", Disk),
        ("xfer", ctypes.c_double),
        ("memory_s", ctypes.c_double),
        ("best", ctypes.c_void_p),
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
    lib.eager_reads.argtypes = [ctypes.POINTER(EagerRun)]
    lib.eager_reads.restype = ctypes.c_int64
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
    lib.reserve_stretch.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    lib.reserve_stretch.restype = ctypes.c_int64
    lib.fold_moments.argtypes = [ctypes.POINTER(Moments)] + [ctypes.c_void_p] * 2 + [
        ctypes.c_int64,
        ctypes.c_void_p,
    ]
    lib.fold_moments.restype = None
    lib.bin_counts.argtypes = [ctypes.POINTER(BinTable), ctypes.c_void_p, ctypes.c_int64]
    lib.bin_counts.restype = ctypes.c_int64
    # Passed as disk_services' and eager_reads' std_exp and as
    # distinct_choices' bounded; kept here so they live with the library.
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
