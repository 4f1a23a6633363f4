"""Equation-path equivalence: compiled templates == the legacy oracle, bitwise.

The contract: every metric, cost, optimizer trajectory and synthesis
outcome of the compiled equation path must be *bit-identical* to the
seed's per-element walk, kept as :class:`tests.oracles.LegacyEvaluator`.
"""

from unittest import mock

import numpy as np
import pytest

from repro.engine.persist import sizing_digest
from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, synthesize_mdac, two_stage_space
from repro.tech import CMOS025
from tests.oracles import LegacyEvaluator


def _mdac():
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs[2]


def _assert_results_equal(a, b):
    for field in (
        "power",
        "dc_gain",
        "loop_unity_hz",
        "phase_margin",
        "saturation_margin",
        "settling_error",
        "dc_ok",
    ):
        assert getattr(a, field) == getattr(b, field), field
    assert a.violations == b.violations
    assert a.cost() == b.cost()


class TestEvaluatorEquivalence:
    def test_compiled_matches_legacy_bitwise(self):
        mdac = _mdac()
        space = two_stage_space(mdac, CMOS025)
        rng = np.random.default_rng(3)
        sizings = [space.decode(rng.random(space.dimension)) for _ in range(12)]
        legacy = LegacyEvaluator(mdac, CMOS025)
        compiled_ = HybridEvaluator(mdac, CMOS025)
        for sizing in sizings:
            _assert_results_equal(
                legacy.evaluate(sizing), compiled_.evaluate(sizing)
            )
        assert legacy.equation_evals == compiled_.equation_evals

    def test_evaluate_batch_matches_sequential(self):
        mdac = _mdac()
        space = two_stage_space(mdac, CMOS025)
        rng = np.random.default_rng(9)
        sizings = [space.decode(rng.random(space.dimension)) for _ in range(10)]
        sequential = HybridEvaluator(mdac, CMOS025)
        batched = HybridEvaluator(mdac, CMOS025)
        seq_results = [sequential.evaluate(s) for s in sizings]
        batch_results = batched.evaluate_batch(sizings)
        for a, b in zip(seq_results, batch_results):
            _assert_results_equal(a, b)
        assert sequential.equation_evals == batched.equation_evals


class TestSynthesisEquivalence:
    # Every synthesis polishes its anneal/DE winner with pattern search, so
    # identical digests cover all three optimizers.
    @pytest.mark.parametrize("optimizer", ["anneal", "de"])
    def test_synthesize_identical_across_kernels(self, optimizer, monkeypatch):
        mdac = _mdac()

        def run():
            return synthesize_mdac(
                mdac,
                CMOS025,
                budget=60,
                seed=1,
                optimizer=optimizer,
                verify_transient=False,
            )

        compiled_ = run()
        oracle = mock.Mock(side_effect=LegacyEvaluator)
        monkeypatch.setattr("repro.synth.synthesis.HybridEvaluator", oracle)
        base = run()
        assert oracle.called
        assert sizing_digest(compiled_) == sizing_digest(base)
        assert compiled_.history == base.history
        assert compiled_.equation_evals == base.equation_evals
        assert compiled_.final.cost() == base.final.cost()
