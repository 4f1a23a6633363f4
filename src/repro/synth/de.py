"""Differential evolution — the alternative global optimizer.

Included to cross-check the annealer (an optimizer-choice ablation): both
should land on comparable power for the same block spec.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import SynthesisError
from repro.synth.anneal import AnnealResult


def differential_evolution(
    cost_fn: Callable[[np.ndarray], float],
    dimension: int,
    budget: int = 400,
    seed: int = 1,
    population: int = 12,
    weight: float = 0.7,
    crossover: float = 0.8,
    x0: np.ndarray | None = None,
) -> AnnealResult:
    """DE/rand/1/bin over the unit hypercube within an evaluation budget.
    """
    if budget < population * 2:
        raise SynthesisError("budget must cover at least two generations")
    rng = np.random.default_rng(seed)
    pop = rng.random((population, dimension))
    if x0 is not None:
        pop[0] = np.clip(np.asarray(x0, float), 0.0, 1.0)
    costs = np.array([cost_fn(x) for x in pop])
    evaluations = population
    history = [float(np.min(costs))] * population

    while evaluations < budget:
        for i in range(population):
            if evaluations >= budget:
                break
            a, b, c = rng.choice(population, size=3, replace=False)
            mutant = np.clip(pop[a] + weight * (pop[b] - pop[c]), 0.0, 1.0)
            mask = rng.random(dimension) < crossover
            mask[rng.integers(dimension)] = True
            trial = np.where(mask, mutant, pop[i])
            trial_cost = cost_fn(trial)
            evaluations += 1
            if trial_cost <= costs[i]:
                pop[i], costs[i] = trial, trial_cost
            history.append(float(np.min(costs)))

    best = int(np.argmin(costs))
    best_cost = float(costs[best])
    threshold = best_cost * 1.05 if best_cost > 0 else best_cost
    evals_to_converge = next(
        (i + 1 for i, c in enumerate(history) if c <= threshold), evaluations
    )
    return AnnealResult(
        best_x=pop[best].copy(),
        best_cost=best_cost,
        history=history,
        evaluations=evaluations,
        evals_to_converge=evals_to_converge,
    )
