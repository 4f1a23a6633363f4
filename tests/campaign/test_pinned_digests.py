"""Identity digests pinned to literal values.

Campaign stores, persistent block caches and queue/broker acks are all
keyed by these digests.  Any change to the payloads behind them orphans
every store, cache entry and ack already on disk, so a change here must be
deliberate: bump the matching version constant and update the literal.
"""

from repro.campaign.manifest import config_digest
from repro.engine import persist
from repro.engine.config import FlowConfig
from repro.engine.scheduler import SynthesisJob
from repro.enumeration.candidates import PipelineCandidate
from repro.service import wire
from repro.specs.adc import AdcSpec
from repro.specs.stage import plan_stages
from repro.tech import CMOS025

CONFIG = FlowConfig()


def _first_mdac():
    """First MDAC of the paper's 13-bit 4-3-2 pipeline."""
    candidate = PipelineCandidate((4, 3, 2), 13, 7)
    return plan_stages(AdcSpec(resolution_bits=13), candidate).mdacs[0]


def test_default_config_digest():
    assert config_digest(CONFIG) == (
        "ca629b3d772896947b2cac6c1bb14f7f7498a76ea35719c80696f412c6c90cc1"
    )


def test_cold_block_fingerprint():
    fingerprint = persist.block_fingerprint(
        _first_mdac(),
        CMOS025,
        budget=CONFIG.budget,
        seed=CONFIG.seed,
        verify_transient=CONFIG.verify_transient,
    )
    assert fingerprint == (
        "b80615cec96a3c3515f81760077b645138a841cca35d34b13cd1fe885d3126c0"
    )


def test_synthesis_task_payload_digest():
    job = SynthesisJob(
        spec=_first_mdac(),
        tech=CMOS025,
        budget=CONFIG.budget,
        seed=CONFIG.seed,
        verify_transient=CONFIG.verify_transient,
    )
    assert persist.digest(wire.synthesis_task_payload(job)) == (
        "21260eed94711d12e75ebbffe343cb723699f12b688e315d0420b1fe4fd2cd32"
    )
