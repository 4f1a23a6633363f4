"""Campaign records must be byte-identical to the legacy-evaluator oracle.

A campaign run on the compiled equation path must write exactly the bytes
a run on :class:`tests.oracles.LegacyEvaluator` writes — and stay
byte-identical across execution backends, extending the backend
determinism guarantees to the equation layer.
"""

from unittest import mock

import pytest

from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig
from tests.oracles import LegacyEvaluator


def _store_bytes(tmp_path, label, **config_kwargs):
    config = FlowConfig(
        budget=60,
        retarget_budget=30,
        verify_transient=False,
        **config_kwargs,
    )
    campaign = run_campaign(
        CampaignGrid(resolutions=(10,), modes=("synthesis",)), config=config
    )
    paths = campaign.save(tmp_path / label)
    return paths["results"].read_bytes(), paths["report"].read_bytes()


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("kernel-determinism")
    oracle = mock.Mock(side_effect=LegacyEvaluator)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.synth.synthesis.HybridEvaluator", oracle)
        legacy = _store_bytes(tmp_path, "legacy-serial")
    assert oracle.called
    return {
        "legacy-serial": legacy,
        "compiled-serial": _store_bytes(tmp_path, "compiled-serial"),
        "compiled-thread": _store_bytes(
            tmp_path, "compiled-thread", backend="thread", max_workers=2
        ),
    }


def test_compiled_matches_legacy_bytes(stores):
    assert stores["compiled-serial"] == stores["legacy-serial"]


def test_compiled_thread_matches_legacy_bytes(stores):
    assert stores["compiled-thread"] == stores["legacy-serial"]
