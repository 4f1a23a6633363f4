"""Campaign records must not depend on which transient kernel verified them.

A synthesis campaign with the transient verifier on writes exactly the
bytes a run on the per-element walk (``tests/oracles/transient.py``)
writes, on the serial and the queue backend.  The queue backend's executor
threads share the process, so the patched module attribute reaches them.
"""

from unittest import mock

import pytest

from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig
from tests.oracles.transient import simulate_transient_walk

GRID = CampaignGrid(resolutions=(10,), modes=("synthesis",))


def _store_bytes(store, backend):
    config = FlowConfig(
        budget=60,
        retarget_budget=30,
        verify_transient=True,
        backend=backend,
        max_workers=2,
    )
    run_campaign(GRID, config=config, store_dir=store)
    return (store / "results.jsonl").read_bytes(), (store / "report.txt").read_bytes()


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("transient-determinism")
    oracle = mock.Mock(side_effect=simulate_transient_walk)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.synth.evaluator.simulate_transient", oracle)
        walk = _store_bytes(tmp_path / "walk-serial", "serial")
    assert oracle.called
    return {
        "walk-serial": walk,
        "compiled-serial": _store_bytes(tmp_path / "compiled-serial", "serial"),
        "compiled-queue": _store_bytes(tmp_path / "compiled-queue", "queue"),
    }


def test_compiled_matches_walk_bytes(stores):
    assert stores["compiled-serial"] == stores["walk-serial"]


def test_compiled_queue_matches_walk_bytes(stores):
    assert stores["compiled-queue"] == stores["walk-serial"]
