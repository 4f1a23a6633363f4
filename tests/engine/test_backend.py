"""Execution-backend contract tests."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.engine.backend import (
    BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    create_backend,
)
from repro.engine.config import FlowConfig
from repro.errors import SpecificationError


def _square(x: int) -> int:
    """Module-level so the process pool can pickle a reference to it."""
    return x * x


def _worker_telemetry(_: int) -> tuple[dict, str]:
    """A pool worker's own counters and telemetry mode."""
    from repro.obs import metrics

    return metrics.REGISTRY.snapshot()["counters"], metrics.telemetry_mode()


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was created")


class TestSerialBackend:
    def test_map_preserves_order(self):
        backend = SerialBackend()
        assert backend.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_close_idempotent(self):
        backend = SerialBackend()
        backend.close()
        backend.close()

    def test_satisfies_protocol(self):
        assert isinstance(SerialBackend(), ExecutionBackend)


class TestProcessPoolBackend:
    def test_map_preserves_order(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            assert backend.map(_square, list(range(8))) == [x * x for x in range(8)]

    def test_single_task_runs_inline(self):
        backend = ProcessPoolBackend(max_workers=2)
        assert backend.map(_square, [5]) == [25]
        # No pool was spun up for a single task.
        assert backend._executor is None
        backend.close()

    def test_pool_reused_across_maps(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            backend.map(_square, [1, 2, 3])
            pool = backend._executor
            backend.map(_square, [4, 5, 6])
            assert backend._executor is pool

    def test_invalid_workers_rejected(self):
        with pytest.raises(SpecificationError):
            ProcessPoolBackend(max_workers=0)

    def test_satisfies_protocol(self):
        assert isinstance(ProcessPoolBackend(), ExecutionBackend)


class TestPoolSizing:
    """Pools default to the CPUs this process may run on, not the host's."""

    def test_default_follows_the_affinity_mask(self, monkeypatch, tmp_path):
        from repro.engine.broker import BrokerBackend

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert ProcessPoolBackend().max_workers == 3
        assert ThreadPoolBackend().max_workers == 3
        queue = BrokerBackend(name="queue", queue_dir=str(tmp_path))
        try:
            assert queue.max_workers == 3
        finally:
            queue.close()

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert ProcessPoolBackend().max_workers == 5

    @pytest.mark.parametrize("affinity, workers", [({0}, None), ({0, 1, 2, 3}, 1)])
    def test_one_cpu_runs_inline_and_forks_nothing(
        self, monkeypatch, affinity, workers
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(ProcessPoolExecutor, "__init__", _no_pool)
        with ProcessPoolBackend(max_workers=workers) as backend:
            assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert backend._executor is None


class TestPoolWorkerRegistry:
    def test_workers_start_from_an_empty_registry(self):
        from repro.obs import metrics

        metrics.reset_all()
        metrics.counter("test.parent_only", 7)
        try:
            with ProcessPoolBackend(max_workers=2) as backend:
                results = backend.map(_worker_telemetry, [0, 1, 2, 3])
        finally:
            metrics.reset_all()
        for counters, mode in results:
            assert "test.parent_only" not in counters
            assert mode == "metrics"

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only fork-started workers inherit the parent's mode",
    )
    def test_workers_keep_the_inherited_telemetry_mode(self):
        from repro.obs import metrics

        metrics.reset_all("off")
        try:
            with ProcessPoolBackend(max_workers=2) as backend:
                results = backend.map(_worker_telemetry, [0, 1])
        finally:
            metrics.reset_all()
        assert {mode for _, mode in results} == {"off"}


#: Starts a two-worker pool, prints the worker pids, then SIGKILLs itself.
_ORPHAN_SCRIPT = """
import os, signal
from repro.engine.backend import ProcessPoolBackend

backend = ProcessPoolBackend(max_workers=2)
backend.map(abs, [-1, -2])
print(*backend._executor._processes, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestPoolWorkerLifetime:
    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_workers_exit_when_their_parent_is_killed(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
        )
        with proc.stdout:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        proc.wait(timeout=60)
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors


class TestThreadPoolBackend:
    def test_map_preserves_order(self):
        with ThreadPoolBackend(max_workers=2) as backend:
            assert backend.map(_square, list(range(8))) == [x * x for x in range(8)]

    def test_single_task_runs_inline(self):
        backend = ThreadPoolBackend(max_workers=2)
        assert backend.map(_square, [5]) == [25]
        assert backend._executor is None
        backend.close()

    def test_unpicklable_tasks_allowed(self):
        # Unlike the process pool, closures and lambdas are fine.
        with ThreadPoolBackend(max_workers=2) as backend:
            offset = 10
            assert backend.map(lambda x: x + offset, [1, 2, 3]) == [11, 12, 13]

    def test_invalid_workers_rejected(self):
        with pytest.raises(SpecificationError):
            ThreadPoolBackend(max_workers=0)

    def test_satisfies_protocol(self):
        assert isinstance(ThreadPoolBackend(), ExecutionBackend)


class TestFactory:
    def test_registry_names(self):
        assert {"serial", "thread", "process"} <= set(BACKENDS)

    def test_create_backend(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        backend = create_backend("process", FlowConfig(max_workers=3))
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecificationError):
            create_backend("gpu")

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_every_factory_takes_the_same_keywords(self, name, tmp_path):
        backend = BACKENDS[name](
            max_workers=1, queue_dir=str(tmp_path), broker_url=None
        )
        try:
            assert backend.name == name
        finally:
            backend.close()


class TestFlowConfig:
    def test_default_is_serial(self):
        config = FlowConfig()
        assert isinstance(create_backend(config.backend, config), SerialBackend)

    def test_process_config(self):
        config = FlowConfig(backend="process", max_workers=2)
        backend = create_backend(config.backend, config)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 2

    def test_serial_downgrade_for_workers(self):
        cfg = FlowConfig(backend="process", max_workers=4)
        serial = cfg.serial()
        assert serial.backend == "serial"
        # Budgets survive the downgrade; a serial config is returned as-is.
        assert serial.budget == cfg.budget
        assert FlowConfig().serial() is not None

    def test_make_cache_tiers(self, tmp_path):
        from repro.flow.cache import BlockCache, PersistentBlockCache
        from repro.tech import CMOS025

        cfg = FlowConfig(budget=77)
        cache = cfg.make_cache(CMOS025)
        assert type(cache) is BlockCache
        assert cache.budget == 77

        persistent = FlowConfig(cache_dir=str(tmp_path)).make_cache(CMOS025)
        assert isinstance(persistent, PersistentBlockCache)

    def test_has_thirteen_fields(self):
        import dataclasses

        assert len(dataclasses.fields(FlowConfig)) == 13

    @pytest.mark.parametrize(
        "field",
        [
            "dc_kernel",
            "eval_speculation",
            "chunksize",
            "eval_kernel",
            "behavioral_kernel",
            "broker_wait_timeout",
        ],
    )
    def test_retired_fields_are_rejected(self, field):
        with pytest.raises(TypeError, match=field):
            FlowConfig(**{field: 1})
