"""Vectorized Monte-Carlo pipeline simulation: draws × samples × stages.

:func:`simulate_draws` evaluates the whole input record × mismatch-draw
matrix as one ``(draws, samples)`` numpy array program per stage —
bit-identical to the scalar per-sample walk of
:class:`~repro.behavioral.pipeline.BehavioralPipeline`, which survives
only as a test oracle (``tests/oracles/behavioral.py``).

Bit-identity holds because every array stage replays the scalar
arithmetic op-for-op on float64 arrays (numpy elementwise double ops are
the same IEEE operations the scalar walk performs) and because thermal
noise replays the scalar RNG *stream*: the scalar walk consumes one
standard normal per noisy stage per sample (sample-major, stage-minor),
exactly the C-order fill of ``Generator.standard_normal((samples, k))``,
and ``Generator.normal(0.0, sigma)`` is ``0.0 + sigma * z`` on that same
stream.  The equivalence is enforced by
``tests/behavioral/test_batch_kernel.py`` and the ``behavioral`` stage of
``benchmarks/run_all.py --check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.behavioral.nonideal import StageErrorModel
from repro.blocks.sah import SampleAndHold
from repro.blocks.subadc import FlashSubAdc
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SpecificationError


@dataclass(frozen=True)
class BatchResult:
    """Full conversion trace of one draws × samples simulation."""

    #: Raw per-stage codes, shape ``(draws, samples, stage_count)``.
    stage_codes: np.ndarray
    #: Final residue entering the ideal backend, shape ``(draws, samples)``.
    residues: np.ndarray
    #: Backend quantizer codes, shape ``(draws, samples)``.
    backend_codes: np.ndarray
    #: Corrected K-bit output words, shape ``(draws, samples)``.
    codes: np.ndarray = field(default=None)  # type: ignore[assignment]


def simulate_draws(
    candidate: PipelineCandidate,
    full_scale: float,
    error_draws: Sequence[Sequence[StageErrorModel]],
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator] | None = None,
    sah: SampleAndHold | None = None,
) -> BatchResult:
    """Convert ``samples`` under every mismatch draw as one array program.

    ``error_draws`` holds one per-stage error-model tuple per Monte-Carlo
    draw; ``rngs`` supplies one independent generator per draw (required
    whenever any error model carries thermal noise — each draw owns its
    noise stream so draws are order-independent and replayable).  The
    generators are consumed exactly as the scalar walk consumes them, so
    the same seeded generators reproduce its trace bit for bit.
    """
    if sah is None:
        sah = SampleAndHold()
    error_draws = [tuple(models) for models in error_draws]
    for models in error_draws:
        if len(models) != candidate.stage_count:
            raise SpecificationError("one error model per stage required")
    if rngs is not None and len(rngs) != len(error_draws):
        raise SpecificationError("one rng per draw required")
    noisy = sah.noise_rms > 0.0 or any(
        model.noise_rms > 0.0 for models in error_draws for model in models
    )
    if noisy and rngs is None:
        raise SpecificationError("rngs required when any draw carries noise")
    samples = np.asarray(samples, dtype=float)
    return _simulate_batch(candidate, full_scale, error_draws, samples, rngs, sah)


def _simulate_batch(
    candidate: PipelineCandidate,
    full_scale: float,
    error_draws: list[tuple[StageErrorModel, ...]],
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator] | None,
    sah: SampleAndHold,
) -> BatchResult:
    """One (draws, samples) array program per stage."""
    draws, n_samples = len(error_draws), len(samples)
    n_stages = candidate.stage_count
    total_bits = candidate.total_bits
    backend_bits = total_bits - candidate.frontend_bits
    # Structural validation the scalar walk performs inside combine_codes.
    if candidate.frontend_bits > total_bits - 1:
        raise SpecificationError("stages resolve more than total_bits")

    # Thermal-noise replay: the scalar walk consumes one standard normal
    # per noisy source per sample, sample-major.  Pre-draw each draw's
    # whole (samples, sources) block from its own generator — the same
    # stream positions — and hand out columns per source.
    sah_noisy = sah.noise_rms > 0.0
    sigmas = np.array(
        [[model.noise_rms for model in models] for models in error_draws]
    ).reshape(draws, n_stages)
    column = np.full((draws, n_stages), -1, dtype=int)
    noise_blocks: list[np.ndarray | None] = [None] * draws
    for d in range(draws):
        col = 1 if sah_noisy else 0
        for c in range(n_stages):
            if sigmas[d, c] > 0.0:
                column[d, c] = col
                col += 1
        if col:
            noise_blocks[d] = rngs[d].standard_normal((n_samples, col))

    # Sample-and-hold: vin * (1 + gain_error) + noise, like the scalar walk.
    v = np.broadcast_to(
        samples * (1.0 + sah.gain_error), (draws, n_samples)
    ).copy()
    if sah_noisy:
        for d in range(draws):
            v[d] = v[d] + (0.0 + sah.noise_rms * noise_blocks[d][:, 0])
    else:
        v = v + 0.0  # the scalar walk's `+ noise` with noise == 0.0

    stage_codes = np.zeros((draws, n_samples, n_stages), dtype=np.int64)
    for c in range(n_stages):
        m = candidate.resolutions[c]
        levels = 2**m - 1
        # Stage input noise (consumed before the sub-ADC decision).
        # Added row by row in place: the same IEEE adds as ``v + noise``
        # without two more (draws, samples) temporaries.
        for d in range(draws):
            if sigmas[d, c] > 0.0:
                v[d] += 0.0 + sigmas[d, c] * noise_blocks[d][:, column[d, c]]
        # Thermometer decision: loop over the <= 2^m - 2 comparators so the
        # working set stays at (draws, samples) — never (draws, samples,
        # comparators).
        thresholds = FlashSubAdc(m, full_scale).ideal_thresholds()
        offsets = np.zeros((draws, levels - 1))
        for d, models in enumerate(error_draws):
            if models[c].comparator_offsets:
                if len(models[c].comparator_offsets) != levels - 1:
                    raise SpecificationError(
                        f"{m}-bit stage needs {levels - 1} offsets"
                    )
                offsets[d] = models[c].comparator_offsets
        code = np.zeros((draws, n_samples), dtype=np.int64)
        for j in range(levels - 1):
            code += (v + offsets[:, j : j + 1]) > thresholds[j]
        stage_codes[:, :, c] = code
        # MDAC residue: gain * vin - dac, per-draw gain and DAC errors.
        gain = np.array(
            [
                2.0 ** (m - 1) * models[c].effective_gain_factor
                for models in error_draws
            ]
        )
        # In place, op for op: ``(code - mid) * full_scale / 2.0``.
        dac = code - (levels - 1) / 2.0
        dac *= full_scale
        dac /= 2.0
        if any(models[c].dac_level_errors for models in error_draws):
            level_errors = np.zeros((draws, levels))
            for d, models in enumerate(error_draws):
                if models[c].dac_level_errors:
                    if len(models[c].dac_level_errors) != levels:
                        raise SpecificationError("one DAC error per level required")
                    level_errors[d] = models[c].dac_level_errors
            dac += np.take_along_axis(level_errors, code, axis=1)
        v *= gain[:, None]
        v -= dac

    # Ideal backend quantizer, then the exact integer correction.
    n = 2**backend_bits
    backend_codes = np.clip(
        np.floor((v / full_scale + 0.5) * n), 0, n - 1
    ).astype(np.int64)
    cumulative = 0
    acc = np.zeros((draws, n_samples), dtype=np.int64)
    for c, m in enumerate(candidate.resolutions):
        levels = 2**m - 1
        cumulative += m - 1
        acc += (stage_codes[:, :, c] - (levels - 1) // 2) * (
            2 ** (total_bits - 1 - cumulative)
        )
    word = 2 ** (total_bits - 1) + acc + (backend_codes - 2 ** (backend_bits - 1))
    codes = np.clip(word, 0, 2**total_bits - 1)
    return BatchResult(stage_codes, v, backend_codes, codes)


__all__ = ["BatchResult", "simulate_draws"]
