"""Execution-backend contract tests."""

import pytest

from repro.engine.backend import (
    BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
)
from repro.engine.config import FlowConfig
from repro.errors import SpecificationError


def _square(x: int) -> int:
    """Module-level so the process pool can pickle a reference to it."""
    return x * x


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

    def test_make_backend(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        backend = make_backend("process", max_workers=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecificationError):
            make_backend("gpu")


class TestFlowConfig:
    def test_default_is_serial(self):
        assert isinstance(FlowConfig().make_backend(), SerialBackend)

    def test_process_config(self):
        backend = FlowConfig(backend="process", max_workers=2).make_backend()
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

    def test_has_fourteen_fields(self):
        import dataclasses

        assert len(dataclasses.fields(FlowConfig)) == 14

    @pytest.mark.parametrize(
        "field",
        [
            "dc_kernel",
            "eval_speculation",
            "chunksize",
            "eval_kernel",
            "behavioral_kernel",
        ],
    )
    def test_retired_fields_are_rejected(self, field):
        with pytest.raises(TypeError, match=field):
            FlowConfig(**{field: 1})
