"""Optional C fast paths for four Python-level inner loops, via ``ctypes``.

Four hot loops in the batched substrate kernels resist numpy vectorisation
because each step depends on the previous one: the FIFO busy-period
recursion, the per-miss disk draws (the ziggurat exponential consumes a
variable number of generator words), the LRU cache state and the pipeline's
per-chunk placement draws (``Generator.choice`` without replacement, one
Python call per chunk).  All four are plain loops over contiguous C arrays,
so when a system C compiler is present they are compiled once per source
digest into a small shared library and called through ``ctypes`` — no
third-party packages, no Python headers, no build step in the repo.

Byte-identity: each C routine is a literal port of the loop it replaces and
performs exactly the same IEEE-754 double operations and generator draws in
the same order.  The build omits ``-ffast-math``, so the compiler cannot
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
#include <stdbool.h>
#include <stdint.h>

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
"""

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
