"""Reference walks the production kernels must match bit for bit.

``src/`` ships one equation path, one behavioral path and one AC path.
The slower walks they replaced live here, only for tests and benchmarks
to compare against:

* :class:`~tests.oracles.evaluator.LegacyEvaluator` — the per-element DC
  stamp walk, :func:`~repro.analysis.smallsignal.linearize` and two
  per-frequency AC sweeps, as a :class:`~repro.synth.evaluator.HybridEvaluator`;
* :func:`~tests.oracles.behavioral.simulate_draws_scalar` — the scalar
  per-sample pipeline walk behind
  :func:`~repro.behavioral.batch.simulate_draws`;
* :func:`~tests.oracles.ac.ac_response_loop` — the per-frequency AC loop
  behind :func:`~repro.analysis.ac.ac_response`.

A test runs the flow on an oracle by monkeypatching the module attribute
the flow looks it up through, e.g. ``repro.synth.synthesis.HybridEvaluator``
or ``repro.behavioral.verify.simulate_draws``.
"""

from tests.oracles.ac import ac_response_loop
from tests.oracles.behavioral import simulate_draws_scalar
from tests.oracles.evaluator import LegacyEvaluator

__all__ = ["LegacyEvaluator", "ac_response_loop", "simulate_draws_scalar"]
