"""Reference walks the production kernels must match bit for bit.

``src/`` ships one equation path, one behavioral path, one AC path and one
transient path.  The slower walks they replaced live here, only for tests
and benchmarks to compare against:

* :class:`~tests.oracles.dc.DcWalk` — the per-element DC stamp walk
  behind :class:`~repro.analysis.template.DcProgram`, passed to
  :func:`~repro.analysis.dc.solve_dc` as its ``assembly``;
* :class:`~tests.oracles.evaluator.LegacyEvaluator` — the DC walk,
  :func:`~repro.analysis.smallsignal.linearize` and two per-frequency AC
  sweeps, as a :class:`~repro.synth.evaluator.HybridEvaluator`;
* :func:`~tests.oracles.behavioral.simulate_draws_scalar` — the scalar
  per-sample pipeline walk behind
  :func:`~repro.behavioral.batch.simulate_draws`;
* :func:`~tests.oracles.ac.ac_response_loop` — the per-frequency AC loop
  behind :func:`~repro.analysis.ac.ac_response`;
* :func:`~tests.oracles.transient.simulate_transient_walk` — the
  per-element transient Newton walk behind
  :func:`~repro.analysis.transient.simulate_transient`.

A test runs the flow on an oracle by monkeypatching the module attribute
the flow looks it up through, e.g. ``repro.synth.synthesis.HybridEvaluator``,
``repro.behavioral.verify.simulate_draws`` or
``repro.synth.evaluator.simulate_transient``.
"""

from tests.oracles.ac import ac_response_loop
from tests.oracles.dc import DcWalk
from tests.oracles.behavioral import simulate_draws_scalar
from tests.oracles.evaluator import LegacyEvaluator
from tests.oracles.transient import settling_benches, simulate_transient_walk

__all__ = [
    "DcWalk",
    "LegacyEvaluator",
    "ac_response_loop",
    "settling_benches",
    "simulate_draws_scalar",
    "simulate_transient_walk",
]
