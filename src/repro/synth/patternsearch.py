"""Hooke-Jeeves pattern search: local polish after the global anneal."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


def pattern_search(
    cost_fn: Callable[[np.ndarray], float],
    x0: np.ndarray,
    budget: int = 120,
    step: float = 0.08,
    shrink: float = 0.5,
    min_step: float = 0.005,
) -> tuple[np.ndarray, float, int]:
    """Coordinate pattern search in [0,1]^d from ``x0``.

    Returns ``(best_x, best_cost, evaluations)``.  Deterministic: probes
    +-step along every coordinate, moves to any improvement, shrinks the
    step when a full sweep fails.
    """
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    cost = cost_fn(x)
    evaluations = 1
    current_step = step
    dimension = len(x)

    while evaluations < budget and current_step >= min_step:
        improved = False
        for i in range(dimension):
            for sign in (+1.0, -1.0):
                if evaluations >= budget:
                    break
                trial = x.copy()
                trial[i] = np.clip(trial[i] + sign * current_step, 0.0, 1.0)
                if trial[i] == x[i]:
                    continue
                trial_cost = cost_fn(trial)
                evaluations += 1
                if trial_cost < cost:
                    x, cost = trial, trial_cost
                    improved = True
                    break
        if not improved:
            current_step *= shrink
    return x, cost, evaluations
