"""Crash-tolerant work-queue execution: file-backed task leases and acks.

``QueueBackend`` is the fourth entry in :data:`repro.engine.backend.BACKENDS`
and the prototype of the distributed executor the ROADMAP targets.  It keeps
the backend contract (``map`` an importable function over picklable tasks,
results in task order) but routes every task through an on-disk queue
protocol under ``queue_dir``:

* **key** — each ``(fn, task)`` pair is content-addressed: tasks that expose
  a ``queue_payload()`` method (e.g. :class:`~repro.engine.scheduler.SynthesisJob`)
  digest that stable payload, everything else digests structurally via
  :func:`repro.engine.persist.digest`.
* **lease** — a worker claims a task by atomically creating
  ``<key>.lease`` (``O_CREAT | O_EXCL``).  A lease left behind by a killed
  process is recognized at the next ``map`` (lease without ack) and broken.
* **ack** — the result is pickled to a temporary file and renamed to
  ``<key>.ack.pkl`` *before* the lease is released, so an ack is always a
  complete result.  A re-dispatched task whose ack already exists replays
  the stored result instead of executing.

The file plumbing itself lives in :class:`repro.engine.broker.DirectoryBroker`
— this backend is one of two clients of that protocol (the other is the
distributed :class:`~repro.engine.broker.BrokerBackend` / ``repro-adc
worker`` fleet), which is why a campaign interrupted under ``--backend
queue`` can be finished by remote workers and vice versa: they share one
directory layout, byte-for-byte.

The protocol is what makes a killed campaign cheap to resume: a rerun of
the same scenario replays every completed synthesis from its ack and only
executes the tail that never finished.  Determinism is unaffected — tasks
are pure functions, results are assembled in task order, and a replayed ack
is byte-for-byte the result the original execution produced — so the wave
scheduler's donor ordering and the ledger's escalation decisions are
identical whether a map executed, replayed, or mixed both.

The queue directory is single-campaign-scoped (the campaign runner places
it inside the results store).  Concurrent *processes* sharing one directory
are tolerated conservatively: a foreign live lease is waited on until its
ack appears.  Executor threads heartbeat their own leases while a task
runs, so a task longer than ``lease_timeout`` is never reclaimed out from
under a live claimant; the wait on a foreign TTL'd lease is bounded by the
holder's heartbeats (a killed holder stops beating and the lease breaks
within one TTL).  Only a *legacy* deadline-less lease from a live pid keeps
the PR 4 wait-then-steal rule, because nothing else ever expires it.
"""

from __future__ import annotations

import os
import pickle
import shutil
import socket
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from repro.engine.broker import DirectoryBroker, lease_heartbeat
from repro.engine.persist import digest
from repro.engine.threads import pin_blas_threads

T = TypeVar("T")
R = TypeVar("R")

#: Completed-task result files.
ACK_SUFFIX = ".ack.pkl"

#: In-flight claim markers.
LEASE_SUFFIX = ".lease"

#: Sentinel distinguishing "no ack" from a legitimately-``None`` result.
_MISS = object()


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists (owned by someone else), or unknowable: keep it
    return True


def task_key(fn: Callable, task: object) -> str | None:
    """Content address of one ``(fn, task)`` dispatch, or ``None``.

    ``None`` means the task has no stable identity (its structural digest
    raised) — it still executes, it just never replays from an ack.
    """
    payload_fn = getattr(task, "queue_payload", None)
    body = payload_fn() if callable(payload_fn) else task
    try:
        return digest({"fn": f"{fn.__module__}.{fn.__qualname__}", "task": body})
    except Exception:
        return None


class QueueBackend:
    """File-backed work-queue executor (``BACKENDS['queue']``).

    ``queue_dir=None`` runs against a private temporary directory — fully
    functional but ephemeral (no crash tolerance beyond the process).  The
    campaign runner passes a directory inside the results store, which is
    what makes interrupted campaigns resumable at task granularity.
    """

    name = "queue"

    def __init__(
        self,
        max_workers: int | None = None,
        queue_dir: str | Path | None = None,
        lease_timeout: float = 60.0,
    ):
        from repro.errors import SpecificationError

        if max_workers is not None and max_workers < 1:
            raise SpecificationError("max_workers must be >= 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.lease_timeout = lease_timeout
        self._owns_dir = queue_dir is None
        self.queue_dir = Path(
            tempfile.mkdtemp(prefix="repro-queue-") if queue_dir is None else queue_dir
        )
        #: All file plumbing goes through the broker protocol; the lease
        #: TTL doubles as the foreign-claim wait quantum.
        self.broker = DirectoryBroker(self.queue_dir, lease_ttl=lease_timeout)
        #: One identity for every executor thread of this backend — leases
        #: carry it so ack/release are ownership-checked, and heartbeats
        #: from any of our threads match.
        self.worker_id = f"queue-{socket.gethostname()}-{os.getpid()}"
        #: Same cadence as ``WorkerLoop``: three beats per TTL.
        self._heartbeat_interval = max(lease_timeout / 3.0, 0.05)
        self._executor: ThreadPoolExecutor | None = None
        #: Tasks served from a pre-existing ack instead of executing.
        self.replayed = 0
        #: Tasks this backend actually executed (and acked).
        self.executed = 0
        #: Stale leases broken at dispatch time (evidence of a killed run).
        self.broken_leases = 0

    # -- queue file plumbing (delegated to the directory broker) --------------

    def _load_ack(self, key: str):
        from repro.service import wire

        payload = self.broker.result(key)
        if payload is None:
            return _MISS
        try:
            # The restricted wire decoder, not bare pickle: queue
            # directories can be shared with remote workers, so acks get
            # the same allow-list the broker fabric applies.
            return wire.decode_result(payload)
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ValueError,
            TypeError,
            IndexError,
            ImportError,  # a pickled class moved between code versions
        ):
            # An unreadable ack degrades to a miss; the task re-executes and
            # the entry is rewritten atomically.
            self.broker.discard(key)
            return _MISS

    def _store_ack(self, key: str, result: object) -> None:
        self.broker.ack(
            key,
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
            self.worker_id,
        )

    def _break_stale_lease(self, key: str) -> None:
        """Remove a lease left by a dead run (a lease without an ack).

        Called before dispatch, when no worker of this ``map`` call can hold
        the lease yet.  The broker's reclaim policy decides: a lease whose
        recorded pid is dead on this host (or whose TTL deadline passed) is
        an interrupted claim and is broken immediately, so resuming right
        after a kill never waits out the lease timeout; a live claim is left
        in place — ``_run_one`` will wait for its ack.
        """
        if self.broker.break_if_stale(key):
            self.broken_leases += 1

    def _run_one(self, fn: Callable[[T], R], key: str | None, task: T) -> R:
        if key is None:  # undigestable task: execute without the protocol
            return fn(task)
        while not self.broker.claim(key, self.worker_id):
            # A foreign claimant holds the lease: wait for its ack.  The
            # broker's reclaim policy bounds the wait when the claimant is
            # dead (expired TTL, dead local pid); a *live* TTL'd lease is
            # honored for as long as its holder keeps heartbeating, because
            # stealing it would double-execute the task.  Only a legacy
            # deadline-less lease from a live pid keeps the PR 4
            # wait-then-steal rule — nothing else ever expires it.
            deadline = time.monotonic() + self.lease_timeout
            reclaimed = False
            while time.monotonic() < deadline:
                hit = self._load_ack(key)
                if hit is not _MISS:
                    self.replayed += 1
                    return hit
                if self.broker.break_if_stale(key):
                    reclaimed = True
                    break
                time.sleep(0.05)
            if not reclaimed:
                info = self.broker.lease_info(key)
                if info is not None and info["deadline"] is None:
                    self.broker.release(key)  # legacy steal (PR 4 rule)
        try:
            hit = self._load_ack(key)
            if hit is not _MISS:  # acked between our sweep and our claim
                self.replayed += 1
                return hit
            with lease_heartbeat(
                self.broker, key, self.worker_id, self._heartbeat_interval
            ):
                result = fn(task)
            self._store_ack(key, result)
            self.executed += 1
            return result
        finally:
            self.broker.release_if_owner(key, self.worker_id)

    # -- the backend contract ------------------------------------------------

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            # Queue workers are threads sharing this process's BLAS pools:
            # pin them to one solver thread each so max_workers concurrent
            # solves don't oversubscribe the cores (user settings win).
            pin_blas_threads()
            self._executor = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task through the queue, in task order.

        Acked tasks replay; the rest are leased and executed on a worker
        pool.  Duplicate tasks within one call collapse onto one execution
        (``fn`` is pure by the backend contract, so this is unobservable).
        """
        task_list = list(tasks)
        if not task_list:
            return []
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        keys = [task_key(fn, task) for task in task_list]

        results: dict[str, object] = {}
        pending: dict[str, T] = {}
        unkeyed: list[int] = []
        for i, (key, task) in enumerate(zip(keys, task_list)):
            if key is None:
                unkeyed.append(i)
                continue
            if key in results or key in pending:
                continue
            hit = self._load_ack(key)
            if hit is not _MISS:
                self.replayed += 1
                results[key] = hit
            else:
                self._break_stale_lease(key)
                pending[key] = task

        work = [(key, pending[key]) for key in pending]
        work += [(None, task_list[i]) for i in unkeyed]
        if len(work) == 1 or self.max_workers == 1:
            outcomes = [self._run_one(fn, key, task) for key, task in work]
        elif work:
            outcomes = list(
                self._pool().map(lambda kt: self._run_one(fn, kt[0], kt[1]), work)
            )
        else:
            outcomes = []
        for (key, _), outcome in zip(work, outcomes):
            if key is not None:
                results[key] = outcome
        unkeyed_results = iter(outcomes[len(pending):])

        return [
            next(unkeyed_results) if key is None else results[key] for key in keys
        ]

    def close(self) -> None:
        """Shut the worker pool down; remove the directory if ephemeral."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._owns_dir:
            shutil.rmtree(self.queue_dir, ignore_errors=True)

    def __enter__(self) -> "QueueBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


__all__ = ["ACK_SUFFIX", "LEASE_SUFFIX", "QueueBackend", "task_key"]
