"""Per-block synthesis driver: space reduction -> anneal -> verify.

One call sizes one MDAC's opamp against its block spec, exactly in the
paper's style: the SFG-reduced space is searched by annealing on the fast
equation metrics, and the winner is verified (and if needed, repaired) with
the nonlinear transient settling simulation.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.errors import SynthesisError
from repro.specs.stage import MdacSpec
from repro.synth.anneal import anneal
from repro.synth.de import differential_evolution
from repro.synth.evaluator import HybridEvaluator
from repro.synth.patternsearch import pattern_search
from repro.synth.result import SynthesisResult
from repro.synth.space import two_stage_space
from repro.tech.process import Technology

#: Multiplicative current/cc bump applied per repair round when the
#: transient verification misses the settling spec.
_REPAIR_FACTOR = 1.30
_MAX_REPAIRS = 3


def synthesize_mdac(
    mdac: MdacSpec,
    tech: Technology,
    budget: int = 400,
    seed: int = 1,
    optimizer: str = "anneal",
    x0: np.ndarray | None = None,
    verify_transient: bool = True,
    retargeted: bool = False,
    template_store: str | None = None,
) -> SynthesisResult:
    """Synthesize one MDAC opamp; returns the verified result.

    ``optimizer`` is ``"anneal"`` (default, NeoCircuit-style) or ``"de"``.
    ``x0`` (unit coordinates) warm-starts the search — used by retargeting.

    ``template_store`` points at an on-disk compiled-template store
    (:class:`~repro.analysis.template.TemplateStore` directory) so worker
    processes load the stamp program instead of recompiling it — a pure
    performance choice: results are bit-identical with or without it.
    """
    start = time.perf_counter()
    space = two_stage_space(mdac, tech)
    evaluator = HybridEvaluator(mdac, tech, template_store=template_store)

    def cost_fn(u: np.ndarray) -> float:
        return evaluator.evaluate(space.decode(u)).cost()

    if optimizer == "anneal":
        run = anneal(
            cost_fn,
            space.dimension,
            budget=budget,
            seed=seed,
            x0=x0,
        )
    elif optimizer == "de":
        run = differential_evolution(
            cost_fn,
            space.dimension,
            budget=budget,
            seed=seed,
            x0=x0,
        )
    else:
        raise SynthesisError(f"unknown optimizer {optimizer!r}")

    # Local polish: a short pattern search closes the last few percent of
    # constraint margin the annealer leaves behind.
    polish_budget = max(40, budget // 4)
    best_x, _, _ = pattern_search(cost_fn, run.best_x, budget=polish_budget)

    sizing = space.decode(best_x)
    final = evaluator.evaluate(sizing, run_transient=verify_transient)

    # Repair loop: if the large-swing simulation disagrees with the linear
    # prediction, bump the bias current and compensation and re-verify.
    repairs = 0
    while (
        verify_transient
        and final.settling_error is not None
        and final.settling_error > mdac.settling_error
        and repairs < _MAX_REPAIRS
    ):
        repairs += 1
        sizing = dataclasses.replace(
            sizing,
            i_tail=sizing.i_tail * _REPAIR_FACTOR,
            w_input=sizing.w_input * _REPAIR_FACTOR,
            w_stage2=sizing.w_stage2 * _REPAIR_FACTOR,
            w_tail=sizing.w_tail * _REPAIR_FACTOR,
            # A modest compensation bump keeps the phase margin growing with
            # the extra second-stage transconductance.
            c_comp=sizing.c_comp * 1.15,
        )
        final = evaluator.evaluate(sizing, run_transient=True)

    return SynthesisResult(
        spec=mdac,
        final=final,
        history=run.history,
        equation_evals=evaluator.equation_evals,
        transient_evals=evaluator.transient_evals,
        retargeted=retargeted,
        wall_seconds=time.perf_counter() - start,
    )
