"""Campaign records must be byte-identical across evaluation kernels.

The compiled kernel is the default (`FlowConfig.eval_kernel`), so a
campaign run through it must write exactly the bytes a legacy-kernel run
writes — and stay byte-identical across execution backends, extending the
PR 1/PR 2 determinism guarantees to the kernel layer.
"""

import pytest

from repro.campaign import CampaignGrid, run_campaign
from repro.engine.config import FlowConfig


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
    return {
        "legacy-serial": _store_bytes(
            tmp_path, "legacy-serial", eval_kernel="legacy"
        ),
        "compiled-serial": _store_bytes(
            tmp_path, "compiled-serial", eval_kernel="compiled"
        ),
        "compiled-thread": _store_bytes(
            tmp_path,
            "compiled-thread",
            eval_kernel="compiled",
            backend="thread",
            max_workers=2,
        ),
    }


def test_compiled_matches_legacy_bytes(stores):
    assert stores["compiled-serial"] == stores["legacy-serial"]


def test_compiled_thread_matches_legacy_bytes(stores):
    assert stores["compiled-thread"] == stores["legacy-serial"]


def test_default_config_uses_compiled_kernel():
    config = FlowConfig()
    assert config.eval_kernel == "compiled"
