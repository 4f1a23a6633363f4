"""Optimizer contracts the synthesis flow relies on.

Every optimizer walks the unit hypercube calling ``cost_fn`` once per
point, in a fixed order for a given seed.  That order is what makes the
warm-start DC chain (and with it every cost) reproducible, so these tests
pin it on a cheap analytic cost: same seed, same calls; every call inside
the budget and the cube; the reported best is a point that was evaluated.
"""

import numpy as np
import pytest

from repro.errors import SynthesisError
from repro.synth import anneal, differential_evolution
from repro.synth.patternsearch import pattern_search

DIMENSION = 5


def shifted_sphere(x: np.ndarray) -> float:
    return float(np.sum((np.asarray(x) - 0.3) ** 2))


class Recorder:
    """Cost function that records every point it is asked to score."""

    def __init__(self):
        self.points: list[np.ndarray] = []

    def __call__(self, x: np.ndarray) -> float:
        self.points.append(np.array(x, dtype=float))
        return shifted_sphere(x)


def _run(name: str, cost_fn, seed: int = 2, budget: int = 96, x0=None):
    """Run one optimizer; returns ``(best_x, best_cost, evaluations)``."""
    if name == "anneal":
        result = anneal(cost_fn, DIMENSION, budget=budget, seed=seed, x0=x0)
    elif name == "de":
        result = differential_evolution(
            cost_fn, DIMENSION, budget=budget, seed=seed, population=8, x0=x0
        )
    else:
        start = np.full(DIMENSION, 0.5) if x0 is None else x0
        return pattern_search(cost_fn, start, budget=budget)
    return result.best_x, result.best_cost, result.evaluations


SEEDED = ["anneal", "de"]
ALL = ["anneal", "de", "pattern_search"]


class TestCallSequence:
    @pytest.mark.parametrize("name", ALL)
    def test_same_seed_replays_the_same_calls(self, name):
        first, second = Recorder(), Recorder()
        _run(name, first)
        _run(name, second)
        assert len(first.points) == len(second.points)
        for a, b in zip(first.points, second.points):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", SEEDED)
    def test_different_seeds_explore_differently(self, name):
        first, second = Recorder(), Recorder()
        _run(name, first, seed=2)
        _run(name, second, seed=3)
        assert not np.array_equal(first.points[0], second.points[0])

    @pytest.mark.parametrize("name", ALL)
    def test_every_point_stays_in_the_unit_cube(self, name):
        recorder = Recorder()
        _run(name, recorder)
        points = np.stack(recorder.points)
        assert points.min() >= 0.0
        assert points.max() <= 1.0

    @pytest.mark.parametrize("name", ALL)
    def test_warm_start_is_the_first_point_scored(self, name):
        x0 = np.linspace(0.1, 0.9, DIMENSION)
        recorder = Recorder()
        _run(name, recorder, x0=x0)
        assert np.array_equal(recorder.points[0], x0)


class TestBudgetAccounting:
    @pytest.mark.parametrize("name", SEEDED)
    def test_seeded_optimizers_spend_exactly_the_budget(self, name):
        recorder = Recorder()
        _, _, evaluations = _run(name, recorder, budget=96)
        assert evaluations == 96
        assert len(recorder.points) == 96

    def test_pattern_search_reports_the_calls_it_made(self):
        recorder = Recorder()
        _, _, evaluations = _run("pattern_search", recorder, budget=40)
        assert evaluations == len(recorder.points)
        assert evaluations <= 40

    def test_de_rejects_a_budget_below_two_generations(self):
        with pytest.raises(SynthesisError):
            differential_evolution(
                shifted_sphere, DIMENSION, budget=15, population=8
            )


class TestReportedBest:
    @pytest.mark.parametrize("name", ALL)
    def test_best_point_was_evaluated_at_the_best_cost(self, name):
        recorder = Recorder()
        best_x, best_cost, _ = _run(name, recorder)
        costs = [shifted_sphere(p) for p in recorder.points]
        assert best_cost == min(costs)
        assert any(np.array_equal(best_x, p) for p in recorder.points)
        assert shifted_sphere(best_x) == best_cost

    @pytest.mark.parametrize("name", SEEDED)
    def test_history_is_the_running_best(self, name):
        cost_fn = Recorder()
        if name == "anneal":
            result = anneal(cost_fn, DIMENSION, budget=96, seed=2)
        else:
            result = differential_evolution(
                cost_fn, DIMENSION, budget=96, seed=2, population=8
            )
        history = result.history
        assert len(history) == result.evaluations
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert history[-1] == result.best_cost
        assert 1 <= result.evals_to_converge <= result.evaluations

    def test_pattern_search_reaches_the_sphere_minimum(self):
        best_x, best_cost, _ = pattern_search(
            shifted_sphere, np.full(DIMENSION, 0.5), budget=400
        )
        assert best_cost < 1e-4
        assert np.allclose(best_x, 0.3, atol=0.01)
