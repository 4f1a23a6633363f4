"""The flow commands' default ``process`` backend forks only for synthesis.

Analytic screening, behavioral verification and cache-warm reruns dispatch
no multi-task map, so a ``process`` campaign over them must finish without
creating a pool: each test makes ``ProcessPoolExecutor`` raise on
construction.  The stores must still match the serial run byte for byte.
"""

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.cli as cli
from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig

DETERMINISTIC = ("results.jsonl", "report.txt", "manifest.json")


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was created")


@pytest.fixture
def forbid_pool(monkeypatch):
    monkeypatch.setattr(ProcessPoolExecutor, "__init__", _no_pool)


def _assert_same_store(left, right):
    for artifact in DETERMINISTIC:
        assert (left / artifact).read_bytes() == (right / artifact).read_bytes(), artifact


def test_analytic_behavioral_campaign_forks_nothing(tmp_path, forbid_pool):
    grid = CampaignGrid(
        resolutions=(10, 11), sample_rates_hz=(20e6, 40e6),
        modes=("analytic", "behavioral"),
    )
    stores = {}
    for backend in ("serial", "process"):
        stores[backend] = tmp_path / backend
        run_campaign(
            grid,
            config=FlowConfig(backend=backend, max_workers=2, behavioral_draws=8),
            store_dir=stores[backend],
        )
    _assert_same_store(stores["process"], stores["serial"])


def test_warm_rerun_forks_nothing(tmp_path, monkeypatch):
    grid = CampaignGrid(resolutions=(10,), modes=("analytic", "synthesis"))
    knobs = dict(
        budget=60, retarget_budget=30, verify_transient=False,
        cache_dir=str(tmp_path / "cache"),
    )
    run_campaign(grid, config=FlowConfig(**knobs), store_dir=tmp_path / "cold")
    monkeypatch.setattr(ProcessPoolExecutor, "__init__", _no_pool)
    for backend in ("serial", "process"):
        run_campaign(
            grid,
            config=FlowConfig(backend=backend, max_workers=2, **knobs),
            store_dir=tmp_path / backend,
        )
    _assert_same_store(tmp_path / "process", tmp_path / "serial")
    records = [
        json.loads(line)
        for line in (tmp_path / "process" / "results.jsonl").read_text().splitlines()
    ]
    synthesis = [r for r in records if r["mode"] == "synthesis"]
    assert synthesis and all(r["cold_runs"] == 0 for r in synthesis)


def test_campaign_command_defaults_to_process(tmp_path, monkeypatch, forbid_pool):
    seen = []

    def spy(grid, config=None, **kwargs):
        seen.append(config)
        return run_campaign(grid, config=config, **kwargs)

    monkeypatch.setattr(cli, "run_campaign", spy)
    out = tmp_path / "store"
    assert cli.main(["campaign", "--bits", "10", "--quiet", "--out", str(out)]) == 0
    assert [config.backend for config in seen] == ["process"]
    assert json.loads((out / "meta.json").read_text())["backend"] == "process"
