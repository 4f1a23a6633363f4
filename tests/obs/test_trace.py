"""Unit tests for trace spans: nesting, propagation, export, rendering."""

import json

import pytest

from repro.engine.backend import ProcessPoolBackend, ThreadPoolBackend
from repro.engine.broker import BrokerBackend
from repro.obs.report import read_spans, render_trace
from repro.obs.trace import (
    TRACE_ENV,
    TRACER,
    configure_tracing,
    current_context,
    span,
    trace_enabled,
)


def _spans(trace_dir):
    records = []
    for path in sorted(trace_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            records.append(json.loads(line))
    return records


class TestSpanExport:
    def test_disabled_tracer_emits_nothing(self, tmp_path):
        assert not trace_enabled()
        with span("quiet"):
            assert current_context() is None
        assert not list(tmp_path.glob("*.jsonl"))

    def test_nested_spans_share_trace_and_link_parents(self, tmp_path):
        configure_tracing(tmp_path)
        with span("outer", wave=1):
            with span("inner"):
                pass
        records = {r["name"]: r for r in _spans(tmp_path)}
        assert set(records) == {"outer", "inner"}
        outer, inner = records["outer"], records["inner"]
        assert inner["trace"] == outer["trace"]
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"wave": 1}
        assert outer["duration_s"] >= inner["duration_s"] >= 0.0

    def test_sibling_spans_get_distinct_ids(self, tmp_path):
        configure_tracing(tmp_path)
        with span("root"):
            with span("a"):
                pass
            with span("b"):
                pass
        records = _spans(tmp_path)
        assert len({r["span"] for r in records}) == 3
        assert len({r["trace"] for r in records}) == 1

    def test_decorator_form(self, tmp_path):
        configure_tracing(tmp_path)

        @span("worker.fn", kind="test")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert work(2) == 3
        records = [r for r in _spans(tmp_path) if r["name"] == "worker.fn"]
        assert len(records) == 2
        assert records[0]["span"] != records[1]["span"]

    def test_exception_recorded_and_stack_unwound(self, tmp_path):
        configure_tracing(tmp_path)
        try:
            with span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        (record,) = _spans(tmp_path)
        assert record["error"] == "ValueError"
        assert current_context() is None

    def test_explicit_parent_stitches_cross_process_context(self, tmp_path):
        configure_tracing(tmp_path)
        ctx = {"trace": "t" * 16, "span": "p" * 16}
        with span("worker.task", parent=ctx):
            pass
        (record,) = _spans(tmp_path)
        assert record["trace"] == ctx["trace"]
        assert record["parent"] == ctx["span"]

    def test_worker_identity_stamped(self, tmp_path):
        configure_tracing(tmp_path)
        TRACER.worker = "w-7"
        try:
            with span("worker.task"):
                pass
        finally:
            TRACER.worker = None
        (record,) = _spans(tmp_path)
        assert record["worker"] == "w-7"

    def test_env_var_enables_sink(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, str(tmp_path))
        assert trace_enabled()
        with span("via-env"):
            pass
        assert _spans(tmp_path)[0]["name"] == "via-env"


def _traced_task(task: tuple[int, int]) -> int:
    """Module-level so a process pool can pickle it: one span per task."""
    wave, n = task
    with span("pool.task", wave=wave):
        return n


def _queue_backend(max_workers, queue_dir):
    return BrokerBackend(name="queue", queue_dir=queue_dir, max_workers=max_workers)


class TestPoolPropagation:
    @pytest.mark.parametrize(
        "make_backend",
        [
            lambda n, _: ProcessPoolBackend(n),
            lambda n, _: ThreadPoolBackend(n),
            _queue_backend,
        ],
        ids=["process", "thread", "queue"],
    )
    def test_pool_tasks_parent_to_the_dispatching_span(self, tmp_path, make_backend):
        trace_dir = tmp_path / "traces"
        configure_tracing(trace_dir)
        backend = make_backend(2, str(tmp_path / "queue"))
        try:
            # The pool starts inside wave 0; wave 1 reuses its workers.
            for wave in range(2):
                with span("wave", wave=wave):
                    assert backend.map(_traced_task, [(wave, n) for n in range(3)]) == [0, 1, 2]
        finally:
            backend.close()
        records = _spans(trace_dir)
        waves = {r["attrs"]["wave"]: r["span"] for r in records if r["name"] == "wave"}
        tasks = [r for r in records if r["name"] == "pool.task"]
        assert len(tasks) == 6
        for record in tasks:
            assert record["parent"] == waves[record["attrs"]["wave"]]


class TestCurrentContext:
    def test_reflects_innermost_open_span(self, tmp_path):
        configure_tracing(tmp_path)
        assert current_context() is None
        with span("outer"):
            outer_ctx = current_context()
            with span("inner"):
                inner_ctx = current_context()
                assert inner_ctx["trace"] == outer_ctx["trace"]
                assert inner_ctx["span"] != outer_ctx["span"]
            assert current_context() == outer_ctx
        assert current_context() is None


class TestReport:
    def test_read_spans_accepts_store_or_trace_dir(self, tmp_path):
        store = tmp_path / "store"
        configure_tracing(store / "traces")
        with span("campaign.run"):
            pass
        assert [s["name"] for s in read_spans(store)] == ["campaign.run"]
        assert [s["name"] for s in read_spans(store / "traces")] == ["campaign.run"]

    def test_render_indents_children_and_counts_processes(self, tmp_path):
        configure_tracing(tmp_path)
        with span("campaign.run", backend="serial"):
            with span("campaign.scenario", label="k10"):
                pass
        text = render_trace(read_spans(tmp_path))
        assert "trace report: 2 span(s), 1 trace(s), 1 process(es)" in text
        lines = text.splitlines()
        run_line = next(l for l in lines if "campaign.run" in l)
        scen_line = next(l for l in lines if "campaign.scenario" in l)
        assert len(scen_line) - len(scen_line.lstrip()) > \
            len(run_line) - len(run_line.lstrip())
        assert "backend=serial" in run_line
        assert "label=k10" in scen_line

    def test_orphan_spans_render_as_roots(self, tmp_path):
        configure_tracing(tmp_path)
        with span("survivor", parent={"trace": "t" * 16, "span": "dead" * 4}):
            pass
        text = render_trace(read_spans(tmp_path))
        assert "survivor" in text

    def test_empty_report(self):
        assert "no spans recorded" in render_trace([])

    def test_torn_lines_skipped(self, tmp_path):
        (tmp_path / "x.jsonl").write_text(
            '{"name": "ok", "span": "s1", "trace": "t1"}\n{ torn\n'
        )
        assert [s["name"] for s in read_spans(tmp_path)] == ["ok"]
