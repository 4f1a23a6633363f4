"""Designer-rule extraction: the decision diagram of the paper's Fig. 3.

Sweeping the topology optimizer over target resolutions yields simple rules
a designer can apply without rerunning anything — which first-stage
resolution to pick per resolution band, and that the last enumerated stage
is always 1.5-bit.  Each resolution's optimization is independent, so the
sweep fans out over the configured execution backend; inside a pool worker
the nested flow call is forced serial to avoid oversubscription.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.backend import create_backend
from repro.engine.config import FlowConfig
from repro.power.model import PowerModel, DEFAULT_POWER_MODEL
from repro.specs.adc import AdcSpec


@dataclass(frozen=True)
class DesignerRule:
    """One extracted rule: a resolution band and its first-stage choice."""

    #: Inclusive resolution band [bits].
    k_min: int
    k_max: int
    #: Optimal first-stage raw resolution for the band.
    first_stage_bits: int
    #: Winning configuration label per swept resolution in the band.
    winners: tuple[str, ...]

    def __str__(self) -> str:
        band = (
            f"K = {self.k_min}" if self.k_min == self.k_max
            else f"{self.k_min} <= K <= {self.k_max}"
        )
        return f"{band}: first stage {self.first_stage_bits}-bit ({', '.join(self.winners)})"


@dataclass(frozen=True)
class _SweepTask:
    """Picklable per-resolution optimization unit."""

    resolution_bits: int
    sample_rate_hz: float
    model: PowerModel
    config: FlowConfig


@dataclass(frozen=True)
class SweepPoint:
    """Slim per-resolution sweep outcome.

    The minimal facts rule compression needs — produced by this module's
    own backend sweep or assembled from campaign scenario results (see
    :func:`repro.experiments.fig3.fig3_designer_rules`).
    """

    resolution_bits: int
    winner_label: str
    first_stage_bits: int
    last_stage_bits: int


def _sweep_one(task: _SweepTask) -> SweepPoint:
    """Optimize one resolution — pool-dispatchable."""
    from repro.flow.topology import optimize_topology

    spec = AdcSpec(
        resolution_bits=task.resolution_bits, sample_rate_hz=task.sample_rate_hz
    )
    best = optimize_topology(
        spec, mode="analytic", model=task.model, config=task.config
    ).best
    return SweepPoint(
        resolution_bits=task.resolution_bits,
        winner_label=best.label,
        first_stage_bits=best.candidate.resolutions[0],
        last_stage_bits=best.candidate.resolutions[-1],
    )


def extract_rules(
    resolutions: list[int] | None = None,
    model: PowerModel = DEFAULT_POWER_MODEL,
    sample_rate_hz: float = 40e6,
    two_bit_rule_range: tuple[int, int] = (10, 13),
    config: FlowConfig | None = None,
) -> tuple[list[DesignerRule], dict[int, str], bool]:
    """Sweep K, find winners, and compress into first-stage-choice bands.

    Returns ``(rules, winners_by_k, last_stage_always_2bit)``; the 2-bit
    last-stage rule is evaluated over ``two_bit_rule_range`` — the paper
    states it for 10..13-bit converters.  ``resolutions`` need not be
    contiguous: bands cover only the resolutions actually swept.
    """
    if resolutions is None:
        resolutions = list(range(9, 15))
    if config is None:
        config = FlowConfig()

    tasks = [
        _SweepTask(k, sample_rate_hz, model, config.serial())
        for k in sorted(set(resolutions))
    ]
    backend = create_backend(config.backend, config)
    try:
        points = backend.map(_sweep_one, tasks)
    finally:
        backend.close()
    return compress_rules(points, two_bit_rule_range)


def compress_rules(
    points: list[SweepPoint],
    two_bit_rule_range: tuple[int, int] = (10, 13),
) -> tuple[list[DesignerRule], dict[int, str], bool]:
    """Compress swept winners into first-stage-choice bands.

    Pure function over :class:`SweepPoint` data, shared by
    :func:`extract_rules` and the campaign-backed Fig. 3 driver.  Returns
    ``(rules, winners_by_k, last_stage_always_2bit)``.
    """
    by_k = {p.resolution_bits: p for p in points}
    winners = {k: by_k[k].winner_label for k in sorted(by_k)}
    last_stage_2bit = all(
        p.last_stage_bits == 2
        for p in points
        if two_bit_rule_range[0] <= p.resolution_bits <= two_bit_rule_range[1]
    )

    rules: list[DesignerRule] = []
    ks = sorted(winners)
    band_start_idx = 0
    for i, k in enumerate(ks):
        first_bits = by_k[k].first_stage_bits
        is_last = i == len(ks) - 1
        next_first = None if is_last else by_k[ks[i + 1]].first_stage_bits
        if is_last or next_first != first_bits:
            rules.append(
                DesignerRule(
                    k_min=ks[band_start_idx],
                    k_max=k,
                    first_stage_bits=first_bits,
                    winners=tuple(winners[j] for j in ks[band_start_idx : i + 1]),
                )
            )
            band_start_idx = i + 1
    return rules, winners, last_stage_2bit
