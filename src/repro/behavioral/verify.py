"""Monte-Carlo behavioral verification of an optimized topology.

Closes the loop the analytic flow leaves open: after the optimizer picks a
topology from equation-level power models, this module stresses that
topology in the time domain — per-stage error models derived from the
synthesized block requirements (:func:`repro.specs.stage.plan_stages`)
plus seeded random mismatch — and reports the simulated SNDR/ENOB the
campaign layer stores next to every analytic number.

Determinism contract: every random quantity descends from one integer
seed through a fixed :class:`numpy.random.SeedSequence` spawn tree —
``seed -> (parameter stream, per-draw noise streams)`` — and parameter
draws are consumed in a fixed order (draw-major; per stage: gain, then
comparator offsets, then DAC levels).  Replaying the same seed therefore
reproduces every draw bit for bit, which is what lets checkpointed
behavioral scenarios resume, shard and merge byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.behavioral.batch import BatchResult, simulate_draws
from repro.behavioral.metrics import sndr_db
from repro.behavioral.nonideal import StageErrorModel
from repro.behavioral.signals import full_scale_sine, pick_coherent_cycles
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SpecificationError
from repro.specs.adc import AdcSpec
from repro.specs.stage import StagePlan, plan_stages

#: Record length for SNDR captures: long enough for a clean noise floor,
#: short enough that a 1000-draw batch stays comfortably in memory.
SAMPLES = 2048


@dataclass(frozen=True)
class MismatchSpec:
    """How much nonideality to inject, scaled to each block's own budget.

    Each sigma multiplies the tolerance the stage plan already computed
    for that error mechanism, so "0.25" always means "a quarter of what
    the block was specified to tolerate" regardless of resolution or
    stage split.
    """

    #: Random residue-gain error sigma, x the stage settling error eps.
    gain_error_sigma: float = 0.25
    #: Comparator offset sigma, x the sub-ADC offset tolerance FS/2^(m+1).
    offset_sigma: float = 0.25
    #: Per-level DAC error sigma, x the converter LSB.
    dac_error_sigma: float = 0.25
    #: Stage input-referred noise, x the stage's rms noise allocation.
    noise_sigma: float = 0.5
    #: Include the deterministic imperfections every real block carries:
    #: incomplete settling at the specified eps and the static gain error
    #: floor -eps/2 implied by the minimum DC gain 2/(eps*beta).
    systematic: bool = True

    @classmethod
    def ideal(cls) -> "MismatchSpec":
        """No injected errors at all — the pipeline becomes a pure quantizer."""
        return cls(
            gain_error_sigma=0.0,
            offset_sigma=0.0,
            dac_error_sigma=0.0,
            noise_sigma=0.0,
            systematic=False,
        )


DEFAULT_MISMATCH = MismatchSpec()


def draw_error_models(
    plan: StagePlan,
    draws: int,
    seed: int,
    mismatch: MismatchSpec = DEFAULT_MISMATCH,
) -> tuple[tuple[tuple[StageErrorModel, ...], ...], tuple[np.random.Generator, ...]]:
    """Sample ``draws`` per-stage error-model tuples plus their noise streams.

    The parameter stream always consumes the same count per draw (one
    gain, ``comparator_count`` offsets, ``2^m - 1`` DAC levels per stage)
    with the sigmas applied as pure scale factors, so draw d's mismatch
    realization is comparable across :class:`MismatchSpec` settings.
    """
    if draws < 1:
        raise SpecificationError("draws must be >= 1")
    root = np.random.SeedSequence(seed)
    param_seq, noise_seq = root.spawn(2)
    rng = np.random.default_rng(param_seq)
    lsb = plan.spec.lsb
    all_draws: list[tuple[StageErrorModel, ...]] = []
    for _ in range(draws):
        models: list[StageErrorModel] = []
        for mdac, sub_adc in zip(plan.mdacs, plan.sub_adcs):
            eps = mdac.settling_error
            gain_z = rng.standard_normal()
            offset_z = rng.standard_normal(sub_adc.comparator_count)
            dac_z = rng.standard_normal(2**mdac.stage_bits - 1)
            gain_error = mismatch.gain_error_sigma * eps * gain_z
            settling = 0.0
            if mismatch.systematic:
                # Static gain error from the minimum-DC-gain opamp:
                # -1/(A0*beta) with A0 = 2/(eps*beta) is exactly -eps/2.
                gain_error -= eps / 2.0
                settling = eps
            offsets = mismatch.offset_sigma * sub_adc.offset_tolerance * offset_z
            dac_errors = mismatch.dac_error_sigma * lsb * dac_z
            noise_rms = mismatch.noise_sigma * math.sqrt(mdac.noise_allocation)
            models.append(
                StageErrorModel(
                    gain_error=float(gain_error),
                    settling_error=settling,
                    comparator_offsets=tuple(float(x) for x in offsets),
                    noise_rms=noise_rms,
                    dac_level_errors=tuple(float(x) for x in dac_errors),
                )
            )
        all_draws.append(tuple(models))
    noise_rngs = tuple(np.random.default_rng(s) for s in noise_seq.spawn(draws))
    return tuple(all_draws), noise_rngs


@dataclass(frozen=True)
class BehavioralVerdict:
    """Monte-Carlo simulation outcome for one candidate topology."""

    candidate: PipelineCandidate
    draws: int
    seed: int
    samples: int
    #: Coherent input cycle count (also the carrier's FFT bin).
    cycles: int
    #: Per-draw SNDR [dB], in draw order.
    sndr_db: tuple[float, ...]
    #: Per-draw effective number of bits.
    enob: tuple[float, ...]

    @property
    def sndr_db_mean(self) -> float:
        return sum(self.sndr_db) / len(self.sndr_db)

    @property
    def sndr_db_min(self) -> float:
        return min(self.sndr_db)

    @property
    def enob_mean(self) -> float:
        return sum(self.enob) / len(self.enob)

    @property
    def enob_min(self) -> float:
        return min(self.enob)


def verify_candidate(
    spec: AdcSpec,
    candidate: PipelineCandidate,
    *,
    draws: int,
    seed: int,
    mismatch: MismatchSpec = DEFAULT_MISMATCH,
    samples: int = SAMPLES,
) -> BehavioralVerdict:
    """Simulate ``draws`` mismatch realizations of one topology.

    Drives a near-full-scale coherent sine through the behavioral
    pipeline under per-stage error models derived from the candidate's
    stage plan, and distills each draw's code record into SNDR/ENOB.
    """
    plan = plan_stages(spec, candidate)
    models, rngs = draw_error_models(plan, draws, seed, mismatch)
    cycles = pick_coherent_cycles(samples)
    stimulus = full_scale_sine(samples, cycles, spec.full_scale)
    result: BatchResult = simulate_draws(
        candidate, spec.full_scale, models, stimulus, rngs=rngs
    )
    sndr = tuple(sndr_db(result.codes[d], cycles) for d in range(draws))
    return BehavioralVerdict(
        candidate=candidate,
        draws=draws,
        seed=seed,
        samples=samples,
        cycles=cycles,
        sndr_db=sndr,
        enob=tuple((s - 1.76) / 6.02 for s in sndr),
    )


__all__ = [
    "DEFAULT_MISMATCH",
    "SAMPLES",
    "BehavioralVerdict",
    "MismatchSpec",
    "draw_error_models",
    "verify_candidate",
]
