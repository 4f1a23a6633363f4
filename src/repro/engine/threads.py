"""BLAS/OpenMP thread pinning for pooled execution backends.

The evaluation kernels solve many *small* dense systems (MNA matrices are
~10x10); at that size a threaded BLAS loses more to fork/join overhead
than it gains, and a pool of worker processes each spinning its own
OpenMP/OpenBLAS thread team oversubscribes the machine — N workers x M
BLAS threads on N cores thrashes every cache level.  The backends
therefore pin the solver libraries to one thread per worker.

Pinning is environment-variable based and *best effort*: OpenBLAS and
OpenMP read ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` once, when the
library loads.  Under the default ``fork`` start method the parent pins
its environment before creating the pool, so workers inherit the values;
the same function doubles as the pool's worker initializer, which covers
``spawn``-style platforms where each worker imports NumPy fresh.  Values
the user already exported always win — an explicit
``OMP_NUM_THREADS=8`` is respected, not overwritten.

Benchmarks record the effective values (see
:func:`effective_blas_threads`) in their JSON ``config`` block so a
regression report states the threading regime it measured under.
"""

from __future__ import annotations

import os

#: Environment variables the solver libraries honour, in report order.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def pin_blas_threads(threads: int = 1) -> dict[str, str]:
    """Pin the BLAS/OpenMP thread count of this process, returning it.

    Sets every variable in :data:`THREAD_ENV_VARS` to ``threads`` unless
    the user already exported a value (explicit settings win).  Returns
    the effective mapping after pinning.  Module-level and
    argument-defaulted so :class:`concurrent.futures.ProcessPoolExecutor`
    can pickle it directly as a worker ``initializer``.
    """
    effective: dict[str, str] = {}
    for var in THREAD_ENV_VARS:
        value = os.environ.get(var)
        if value is None or not value.strip():
            value = str(threads)
            os.environ[var] = value
        effective[var] = value
    return effective


def effective_blas_threads() -> dict[str, str | None]:
    """Current values of the pinned variables (``None`` = unset)."""
    return {var: os.environ.get(var) for var in THREAD_ENV_VARS}


def available_cpus() -> int:
    """CPUs this process may run on: the default pool size.

    The scheduler affinity mask, not ``os.cpu_count()``: a container
    pinned to 2 of a host's 64 CPUs must not size a pool for 64 (a
    fork-started ``ProcessPoolExecutor`` launches every worker at its
    first ``map``).  Falls back to ``os.cpu_count()`` where the platform
    has no affinity call.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


__all__ = [
    "THREAD_ENV_VARS",
    "available_cpus",
    "effective_blas_threads",
    "pin_blas_threads",
]
