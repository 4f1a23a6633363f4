"""The chained warm-start DC walk: the equation half's only DC path.

Each evaluator keeps the previous candidate's operating point and starts
the next DC solve from it, falling back to the cold bias guess when the
warm solve fails or lands on the rail-stuck solution.  Costs depend on
that chain, so these tests pin its contracts: where it starts, that batch
boundaries do not break it, that every solution it accepts satisfies KCL,
and that evaluators for different corners never share it.
"""

import numpy as np
import pytest

from repro.analysis.dc import _ABS_TOL, solve_dc
from repro.analysis.mna import layout_for
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import ReproError
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, two_stage_space
from repro.tech import CMOS025, CMOS025_SLOW
from tests.oracles.dc import assemble_walk


@pytest.fixture(scope="module")
def mdac():
    plan = plan_stages(
        AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7)
    )
    return plan.mdacs[2]


def _sizings(mdac, count, seed, tech=CMOS025):
    space = two_stage_space(mdac, tech)
    rng = np.random.default_rng(seed)
    return [space.decode(rng.random(space.dimension)) for _ in range(count)]


def _signature(result):
    return (
        result.power,
        result.dc_gain,
        result.loop_unity_hz,
        result.phase_margin,
        result.saturation_margin,
        result.dc_ok,
        tuple(result.violations),
        result.cost(),
    )


class TestChainStart:
    def test_fresh_evaluator_has_no_warm_point(self, mdac):
        assert HybridEvaluator(mdac, CMOS025)._warm_x is None

    def test_first_solve_is_the_cold_bias_guess(self, mdac):
        evaluator = HybridEvaluator(mdac, CMOS025)
        sizing = _sizings(mdac, 1, seed=0)[0]
        evaluator.evaluate(sizing)
        cold = solve_dc(
            evaluator._ac_bench(sizing), initial_guess=evaluator._dc_guess()
        )
        assert np.array_equal(evaluator._warm_x, cold.x)


class TestBatchBoundaries:
    @pytest.mark.parametrize("split", [1, 4, 7])
    def test_split_batches_equal_one_batch(self, mdac, split):
        sizings = _sizings(mdac, 8, seed=5)
        whole = HybridEvaluator(mdac, CMOS025).evaluate_batch(sizings)
        parts = HybridEvaluator(mdac, CMOS025)
        pieces = parts.evaluate_batch(sizings[:split]) + parts.evaluate_batch(
            sizings[split:]
        )
        assert [_signature(r) for r in pieces] == [_signature(r) for r in whole]

    def test_evaluate_after_batch_continues_the_chain(self, mdac):
        sizings = _sizings(mdac, 6, seed=8)
        sequential = HybridEvaluator(mdac, CMOS025)
        expected = [sequential.evaluate(s) for s in sizings]
        mixed = HybridEvaluator(mdac, CMOS025)
        got = mixed.evaluate_batch(sizings[:5]) + [mixed.evaluate(sizings[5])]
        assert [_signature(r) for r in got] == [_signature(r) for r in expected]
        assert np.array_equal(mixed._warm_x, sequential._warm_x)

    def test_empty_batch_leaves_the_evaluator_untouched(self, mdac):
        evaluator = HybridEvaluator(mdac, CMOS025)
        evaluator.evaluate(_sizings(mdac, 1, seed=0)[0])
        warm = evaluator._warm_x.copy()
        assert evaluator.evaluate_batch([]) == []
        assert evaluator.equation_evals == 1
        assert np.array_equal(evaluator._warm_x, warm)

    def test_every_candidate_counts_as_one_equation_evaluation(self, mdac):
        sizings = _sizings(mdac, 9, seed=2)
        evaluator = HybridEvaluator(mdac, CMOS025)
        evaluator.evaluate_batch(sizings[:4])
        evaluator.evaluate_batch(sizings[4:])
        assert evaluator.equation_evals == 9
        assert evaluator.transient_evals == 0


class TestAcceptedSolutions:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_chained_solutions_satisfy_kcl(self, mdac, seed):
        evaluator = HybridEvaluator(mdac, CMOS025)
        checked = 0
        for sizing in _sizings(mdac, 10, seed=seed):
            bench = evaluator._ac_bench(sizing)
            try:
                op = evaluator._solve_dc(bench, assembly=evaluator._bind(bench).dc)
            except ReproError:
                continue
            # Residual against the legacy per-element assembly, not the
            # compiled template that produced the solution.
            _, resid = assemble_walk(layout_for(bench), op.x, 0.0, 1.0)
            assert float(np.max(np.abs(resid))) < _ABS_TOL
            assert np.array_equal(evaluator._warm_x, op.x)
            checked += 1
        assert checked >= 8

    def test_accepted_solutions_are_never_rail_stuck(self, mdac):
        evaluator = HybridEvaluator(mdac, CMOS025)
        vdd = CMOS025.vdd
        accepted = 0
        for sizing in _sizings(mdac, 12, seed=6):
            bench = evaluator._ac_bench(sizing)
            try:
                op = evaluator._solve_dc(bench, assembly=evaluator._bind(bench).dc)
            except ReproError:
                continue
            assert 0.15 * vdd < op.voltages["out"] < 0.85 * vdd
            assert op.device_ops["m2"].region != "cutoff"
            accepted += 1
        assert accepted >= 8


class TestCornerIsolation:
    def test_interleaved_corners_match_solo_runs(self, mdac):
        sizings = _sizings(mdac, 6, seed=4)
        nominal, slow = (
            HybridEvaluator(mdac, CMOS025),
            HybridEvaluator(mdac, CMOS025_SLOW),
        )
        interleaved = {"nominal": [], "slow": []}
        for sizing in sizings:
            interleaved["nominal"].append(_signature(nominal.evaluate(sizing)))
            interleaved["slow"].append(_signature(slow.evaluate(sizing)))
        solo_nominal = HybridEvaluator(mdac, CMOS025).evaluate_batch(sizings)
        solo_slow = HybridEvaluator(mdac, CMOS025_SLOW).evaluate_batch(sizings)
        assert interleaved["nominal"] == [_signature(r) for r in solo_nominal]
        assert interleaved["slow"] == [_signature(r) for r in solo_slow]

    def test_slow_corner_scores_differently(self, mdac):
        sizings = _sizings(mdac, 4, seed=4)
        nominal = HybridEvaluator(mdac, CMOS025).evaluate_batch(sizings)
        slow = HybridEvaluator(mdac, CMOS025_SLOW).evaluate_batch(sizings)
        assert [r.dc_gain for r in nominal] != [r.dc_gain for r in slow]
