"""The seed's equation stage: per-element DC walk and per-frequency AC."""

from __future__ import annotations

import numpy as np

from repro.analysis.smallsignal import linearize
from repro.errors import AnalysisError, ConvergenceError, ReproError
from repro.synth.evaluator import (
    _DC_GAIN_FREQ,
    _LOOP_FREQS,
    DIFFERENTIAL_FACTOR,
    EvalResult,
    HybridEvaluator,
    _StagedEvaluation,
)
from tests.oracles.ac import ac_response_loop


class LegacyEvaluator(HybridEvaluator):
    """:class:`HybridEvaluator` without compiled stamp templates.

    The DC Newton solve assembles element by element, linearization walks
    the netlist, and the DC-gain point and loop grid are two separate
    per-frequency sweeps.  Metrics, violations and the warm-start chain
    are inherited, so every result must equal the production path's
    bit for bit.
    """

    def evaluate(self, sizing, run_transient: bool = False) -> EvalResult:
        staged = self._stage_equation(sizing)
        if staged.failed:
            return self._infeasible(sizing)
        try:
            out = staged.lin.index("out")
            gain_point = ac_response_loop(staged.lin, np.array([_DC_GAIN_FREQ]))
            loop = ac_response_loop(staged.lin, _LOOP_FREQS)
            staged.a_all = np.concatenate((gain_point[:, out], loop[:, out]))
        except (AnalysisError, ReproError):
            return self._infeasible(sizing)
        return self._finish(staged, run_transient)

    def _stage_equation(self, sizing) -> _StagedEvaluation:
        self.equation_evals += 1
        staged = _StagedEvaluation(sizing=sizing)
        bench = self._ac_bench(sizing)
        try:
            op = self._solve_dc(bench)
        except (ConvergenceError, ReproError):
            staged.failed = True
            return staged
        staged.power = (
            self.tech.vdd * abs(op.supply_current("vdd_src")) * DIFFERENTIAL_FACTOR
        )
        staged.saturation = self._saturation_margin(op)
        try:
            staged.lin = linearize(bench, op, include_noise=False)
        except (AnalysisError, ReproError):
            staged.failed = True
        return staged
