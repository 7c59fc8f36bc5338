"""One OpenBLAS thread per training process.

Training's BLAS calls are small — one side of every matrix is the embedding
dimension, d = 32 — and on a host whose other cores already run the walk
workers, a second BLAS thread only adds handoff cost.  Worse, OpenBLAS
threads busy-wait after every threaded call (and are re-created after every
``fork``), so an idle pool still takes CPU from the trainer and the workers.
:func:`limit_blas_threads` therefore sets every OpenBLAS library loaded in
the process to one thread, once, and never restores the old count:
restoring re-creates both pools' threads, which then spin while the caller
runs whatever comes next.

numpy and scipy each ship their own OpenBLAS (``libscipy_openblas64_*`` with
``*64_`` symbols, and ``libscipy_openblas*``); a system build is a plain
``libopenblas``.  The limit covers every one of them.  A user who sets a
thread count through the environment keeps it, and a process with no
OpenBLAS loaded (MKL, Accelerate, a host without ``/proc``) is left as is.
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections.abc import Callable
from typing import NamedTuple

__all__ = ["USER_THREAD_VARS", "OpenBLASPool", "limit_blas_threads", "openblas_pools"]

#: the environment variables OpenBLAS reads its thread count from; setting
#: any of them is an explicit choice that :func:`limit_blas_threads` keeps
USER_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# symbol prefix (scipy-openblas wheels rename theirs) × suffix (ILP64 builds)
_SYMBOL_STEMS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


class OpenBLASPool(NamedTuple):
    """The thread-count accessors of one loaded OpenBLAS library."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _loaded_openblas_paths() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process, in
    map order; empty where ``/proc/self/maps`` does not exist."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths = (line.split(maxsplit=5) for line in lines)
    return list(
        dict.fromkeys(
            p[5].strip()
            for p in paths
            if len(p) == 6 and "openblas" in os.path.basename(p[5]).lower()
        )
    )


def openblas_pools() -> list[OpenBLASPool]:
    """Every OpenBLAS library loaded into this process (never loads one)."""
    pools: list[OpenBLASPool] = []
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_NOW)
        except OSError:  # unmapped since the scan
            continue
        for get_name, set_name in _SYMBOL_STEMS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append(OpenBLASPool(get, set_))
                break
    return pools


@functools.cache
def limit_blas_threads() -> int:
    """Set every loaded OpenBLAS pool to one thread; return the thread count
    training runs with.

    Runs once per process (later calls return the first answer, and forked
    workers inherit the setting).  Call it after ``scipy.linalg`` is
    imported, or scipy's pool is not loaded yet and is missed.  Returns 1
    after the limit is applied; the pools' own count, untouched, when the
    user set one of :data:`USER_THREAD_VARS` (OpenBLAS caps it at the core
    count); and 0 when no OpenBLAS is loaded.
    """
    pools = openblas_pools()
    if not pools:
        return 0
    if not any(os.environ.get(var) for var in USER_THREAD_VARS):
        for pool in pools:
            pool.set_num_threads(1)
    return max(pool.get_num_threads() for pool in pools)
