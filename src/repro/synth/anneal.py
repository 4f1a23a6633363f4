"""Simulated annealing over a unit hypercube (the NeoCircuit-style engine)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import SynthesisError


@dataclass
class AnnealResult:
    """Outcome of one annealing run."""

    #: Best point found (unit coordinates).
    best_x: np.ndarray
    #: Best cost.
    best_cost: float
    #: Cost of the best point after each evaluation (learning curve).
    history: list[float]
    #: Total evaluations spent.
    evaluations: int
    #: Evaluations needed to first reach within 5% of the final best.
    evals_to_converge: int


def anneal(
    cost_fn: Callable[[np.ndarray], float],
    dimension: int,
    budget: int = 400,
    seed: int = 1,
    x0: np.ndarray | None = None,
    t_start: float = 1.0,
    t_end: float = 1e-3,
    step_start: float = 0.35,
    step_end: float = 0.02,
) -> AnnealResult:
    """Metropolis annealing with a geometric temperature/step schedule.

    ``cost_fn`` maps a point in [0,1]^dimension to a scalar cost; lower is
    better.  ``x0`` warm-starts the search (the retargeting mechanism).
    """
    if budget < 2:
        raise SynthesisError("budget must be >= 2")
    rng = np.random.default_rng(seed)
    x = rng.random(dimension) if x0 is None else np.clip(np.asarray(x0, float), 0, 1)
    cost = cost_fn(x)
    best_x, best_cost = x.copy(), cost
    history = [best_cost]

    for k in range(1, budget):
        frac = k / (budget - 1)
        temperature = t_start * (t_end / t_start) ** frac
        step = step_start * (step_end / step_start) ** frac
        candidate = np.clip(x + rng.normal(0.0, step, dimension), 0.0, 1.0)
        candidate_cost = cost_fn(candidate)
        delta = candidate_cost - cost
        if delta <= 0 or rng.random() < np.exp(-delta / max(temperature, 1e-12)):
            x, cost = candidate, candidate_cost
            if cost < best_cost:
                best_x, best_cost = x.copy(), cost
        history.append(best_cost)

    threshold = best_cost * 1.05 if best_cost > 0 else best_cost
    evals_to_converge = next(
        (i + 1 for i, c in enumerate(history) if c <= threshold), budget
    )
    return AnnealResult(
        best_x=best_x,
        best_cost=best_cost,
        history=history,
        evaluations=budget,
        evals_to_converge=evals_to_converge,
    )
