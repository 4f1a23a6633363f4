"""Kernel equivalence: compiled/batched paths == legacy, bitwise.

The PR 3 acceptance contract: the compiled kernel is the default, so every
metric, cost, optimizer trajectory and synthesis outcome it produces must
be *bit-identical* to the legacy evaluator.
"""

import numpy as np
import pytest

from repro.engine.persist import sizing_digest
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SynthesisError
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, synthesize_mdac, two_stage_space
from repro.tech import CMOS025


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
    def test_unknown_kernel_rejected(self):
        with pytest.raises(SynthesisError):
            HybridEvaluator(_mdac(), CMOS025, kernel="quantum")

    def test_compiled_matches_legacy_bitwise(self):
        mdac = _mdac()
        space = two_stage_space(mdac, CMOS025)
        rng = np.random.default_rng(3)
        sizings = [space.decode(rng.random(space.dimension)) for _ in range(12)]
        legacy = HybridEvaluator(mdac, CMOS025, kernel="legacy")
        compiled_ = HybridEvaluator(mdac, CMOS025, kernel="compiled")
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
        sequential = HybridEvaluator(mdac, CMOS025, kernel="compiled")
        batched = HybridEvaluator(mdac, CMOS025, kernel="compiled")
        seq_results = [sequential.evaluate(s) for s in sizings]
        batch_results = batched.evaluate_batch(sizings)
        for a, b in zip(seq_results, batch_results):
            _assert_results_equal(a, b)
        assert sequential.equation_evals == batched.equation_evals

    def test_evaluate_batch_legacy_fallback(self):
        mdac = _mdac()
        space = two_stage_space(mdac, CMOS025)
        rng = np.random.default_rng(4)
        sizings = [space.decode(rng.random(space.dimension)) for _ in range(4)]
        legacy = HybridEvaluator(mdac, CMOS025, kernel="legacy")
        reference = HybridEvaluator(mdac, CMOS025, kernel="legacy")
        for a, b in zip(
            legacy.evaluate_batch(sizings),
            [reference.evaluate(s) for s in sizings],
        ):
            _assert_results_equal(a, b)


class TestSynthesisEquivalence:
    @pytest.mark.parametrize("optimizer", ["anneal", "de"])
    def test_synthesize_identical_across_kernels(self, optimizer):
        mdac = _mdac()
        runs = {
            label: synthesize_mdac(
                mdac,
                CMOS025,
                budget=60,
                seed=1,
                optimizer=optimizer,
                verify_transient=False,
                kernel=kernel,
            )
            for label, kernel in (("legacy", "legacy"), ("compiled", "compiled"))
        }
        base, other = runs["legacy"], runs["compiled"]
        assert sizing_digest(other) == sizing_digest(base)
        assert other.history == base.history
        assert other.equation_evals == base.equation_evals
        assert other.final.cost() == base.final.cost()
