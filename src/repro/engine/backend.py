"""Pluggable execution backends for the flow's embarrassingly parallel loops.

The flow has two fan-out points — per-wave block synthesis and the
per-resolution designer-rule sweep — and both funnel through one tiny
contract: ``map`` an importable function over a list of picklable tasks,
preserving order.  ``SerialBackend`` runs in-process (the library and
service default, and the reference for determinism checks);
``ProcessPoolBackend`` dispatches to a :class:`concurrent.futures`
process pool so independent tasks use every core (the ``repro-adc`` flow
commands' default).

Backends are deliberately dumb: all scheduling intelligence (deduplication,
donor ordering, wave construction) lives in :mod:`repro.engine.scheduler`,
which guarantees that the *task list* handed to a backend is identical
whichever backend executes it.  That is what makes parallel runs reproduce
serial results bit-for-bit.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Iterable,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from repro.engine.threads import available_cpus, pin_blas_threads
from repro.errors import SpecificationError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER, current_context

T = TypeVar("T")
R = TypeVar("R")

#: Tasks handed to each process-pool worker per dispatch.  Synthesis tasks
#: run for seconds, so batching dispatches would only unbalance the pool.
_CHUNKSIZE = 1


#: Seconds between a pool worker's checks that its parent is still alive.
_PARENT_POLL_S = 1.0


def _exit_with_parent(parent: int) -> None:
    """Watchdog loop: end this worker once ``parent`` is gone."""
    while True:
        time.sleep(_PARENT_POLL_S)
        if os.getppid() != parent:
            os._exit(1)


def _init_pool_worker() -> None:
    """Process-pool worker initializer: pin BLAS, start an empty registry.

    A fork-started worker inherits the parent's :data:`REGISTRY`, and it
    spools *cumulative* snapshots that the campaign runner adds to the
    parent's own counters; without the reset everything the parent counted
    before the fork would be counted once more per worker.  The inherited
    telemetry mode stays as it is.

    An idle worker blocks on its call queue forever, so a campaign killed
    by a signal (``SIGTERM`` runs no cleanup) would leave its workers
    behind; a daemon thread ends the worker when its parent changes.
    """
    pin_blas_threads()
    REGISTRY.reset()
    threading.Thread(
        target=_exit_with_parent,
        args=(os.getppid(),),
        name="repro-parent-watch",
        daemon=True,
    ).start()


def _call_in_context(call: tuple[Callable[[T], R], dict | None, T]) -> R:
    """Pool-side trampoline: run one task under its dispatcher's span."""
    fn, context, task = call
    with TRACER.adopted(context):
        return fn(task)


@runtime_checkable
class ExecutionBackend(Protocol):
    """Minimal contract the flow needs from an executor."""

    #: Short identifier ('serial', 'process', ...).
    name: str

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task, returning results in task order."""
        ...

    def close(self) -> None:
        """Release any pooled resources; idempotent."""
        ...


class SerialBackend:
    """In-process execution — the determinism reference."""

    name = "serial"

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task in this process, in order."""
        return [fn(task) for task in tasks]

    def close(self) -> None:
        """No-op: nothing is pooled."""
        return None

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class _PooledBackend:
    """Shared machinery for ``concurrent.futures``-backed backends.

    The pool is created lazily on the first ``map`` and reused across calls
    (waves of the synthesis scheduler share one pool); single-task maps run
    inline to skip dispatch latency.  Subclasses set ``name`` and
    ``executor_cls``.
    """

    name: str
    executor_cls: type

    def __init__(self, max_workers: int | None = None):
        """``max_workers=None`` means one worker per CPU this process may use."""
        if max_workers is not None and max_workers < 1:
            raise SpecificationError("max_workers must be >= 1")
        self.max_workers = max_workers or available_cpus()
        self._executor = None

    def _pool(self):
        if self._executor is None:
            # Pin the solver libraries to one thread per worker before the
            # pool exists: fork-started workers inherit the parent's
            # environment, and the initializer re-pins under spawn (see
            # :mod:`repro.engine.threads`).  User-exported values win.
            pin_blas_threads()
            kwargs: dict[str, Any] = {"max_workers": self.max_workers}
            if issubclass(self.executor_cls, ProcessPoolExecutor):
                kwargs["initializer"] = _init_pool_worker
            self._executor = self.executor_cls(**kwargs)
        return self._executor

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task through the pool, in task order."""
        task_list: Sequence[T] = list(tasks)
        if len(task_list) <= 1 or self.max_workers == 1:
            return [fn(task) for task in task_list]
        context = current_context()
        calls = [(fn, context, task) for task in task_list]
        return list(self._pool().map(_call_in_context, calls, chunksize=_CHUNKSIZE))

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ProcessPoolBackend(_PooledBackend):
    """``concurrent.futures.ProcessPoolExecutor``-backed execution.

    Task functions must be importable module-level callables and tasks must
    be picklable — every task dataclass in :mod:`repro.engine.scheduler`
    satisfies this.
    """

    name = "process"
    executor_cls = ProcessPoolExecutor


class ThreadPoolBackend(_PooledBackend):
    """``concurrent.futures.ThreadPoolExecutor``-backed execution.

    Threads share the interpreter, so tasks need not be picklable and
    dispatch latency is tiny — the right trade for short analytic
    evaluations and for I/O-heavy work (persistent-cache reads), where the
    process pool's serialization cost dominates.  CPU-bound synthesis under
    the GIL still serializes; use ``ProcessPoolBackend`` for that.  Every
    task function used by the engine is reentrant (per-call
    ``numpy.random.default_rng`` state, no shared mutables), so threaded
    maps return the same values as serial ones.
    """

    name = "thread"
    executor_cls = ThreadPoolExecutor


def _broker_backend(name: str) -> Callable[..., ExecutionBackend]:
    """Factory for ``queue`` / ``broker``: one :class:`BrokerBackend` class.

    Imported lazily so ``import repro.cli`` stays clear of the fabric.  The
    name alone decides who executes: ``queue`` runs tasks on this process's
    threads, ``broker`` publishes them to ``repro-adc worker`` processes.
    """

    def factory(max_workers=None, queue_dir=None, broker_url=None):
        from repro.engine.broker import BrokerBackend

        return BrokerBackend(
            name=name,
            broker_url=broker_url,
            queue_dir=queue_dir,
            max_workers=max_workers,
        )

    return factory


#: Registered backend names -> factories.  Every factory takes the same
#: keywords — ``max_workers``, ``queue_dir``, ``broker_url`` — and ignores
#: the ones it has no use for.
BACKENDS: dict[str, Callable[..., ExecutionBackend]] = {
    "serial": lambda max_workers=None, queue_dir=None, broker_url=None: (
        SerialBackend()
    ),
    "thread": lambda max_workers=None, queue_dir=None, broker_url=None: (
        ThreadPoolBackend(max_workers)
    ),
    "process": lambda max_workers=None, queue_dir=None, broker_url=None: (
        ProcessPoolBackend(max_workers)
    ),
    "queue": _broker_backend("queue"),
    "broker": _broker_backend("broker"),
}


def create_backend(name: str, config: Any = None) -> ExecutionBackend:
    """The one construction path for execution backends.

    ``config`` is anything shaped like :class:`~repro.engine.config.FlowConfig`
    (only ``max_workers``, ``queue_dir`` and ``broker_url`` are read);
    ``None`` builds the backend with registry defaults.  The CLI, the flow,
    the campaign runner and the service scheduler all come through here, so
    an unknown name fails identically everywhere — one
    :class:`~repro.errors.SpecificationError` the CLI renders as its
    single-line ``repro-adc: error:`` form.
    """
    try:
        factory = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise SpecificationError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None
    return factory(
        max_workers=getattr(config, "max_workers", None),
        queue_dir=getattr(config, "queue_dir", None),
        broker_url=getattr(config, "broker_url", None),
    )
