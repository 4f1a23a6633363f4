"""Run the standalone benchmark suite and emit ``BENCH_PR10.json``.

Standalone (no pytest): fixed seeds, deterministic workloads, wall-clock
measurements of the compiled evaluation kernels against the reference
walks in ``tests/oracles/`` (imported from the repo root, which this
script puts on ``sys.path``), plus the optimization-service stage (submission latency, coalescing hit
rate, sustained jobs/s — see ``benchmarks/bench_service.py``).

    PYTHONPATH=src python benchmarks/run_all.py                # full
    PYTHONPATH=src python benchmarks/run_all.py --smoke        # CI smoke
    PYTHONPATH=src python benchmarks/run_all.py --check ...    # exit 1 on
                                                               # regression

Stages: ``synthesize_mdac`` and ``equation_metric_stage`` (compiled
kernels vs the oracles), ``template_cache``,
``behavioral``, ``service``, ``fabric`` — the distributed execution
fabric measured against a live HTTP broker and real ``repro-adc worker``
subprocesses: per-task lease overhead (submit/lease/heartbeat/ack round
trip in milliseconds), fleet throughput at 1 vs 2 workers on
fixed-service-time probe tasks (isolating dispatch concurrency from the
runner's core count), sizing digests of a 2-worker synthesis batch
against a local serial run, and the time for a SIGKILLed worker's lease
to be reclaimed (see ``benchmarks/bench_fabric.py``) — and ``obs``:
telemetry overhead on a 48-candidate ``evaluate_batch`` pass, ``off`` vs
``metrics`` vs ``trace`` walls measured round-robin, plus a registry
counter micro-rate (see ``benchmarks/bench_obs.py``).

``--check`` is the CI regression guard: it fails the run when the compiled
kernel is slower than the legacy-evaluator oracle on the same workload,
when any variant's synthesis result diverges (the bit-identity contract), when a
warm template store still compiles, when the behavioral batch kernel is
not bit-identical to the scalar walk or misses its 5x floor at 256
draws, when the service stage breaks its coalescing contract (N
identical concurrent submissions must perform exactly one cold
synthesis), or when the ``fabric`` stage misses its 1.5x two-worker
throughput floor, diverges from the local serial run, or fails to
reclaim a SIGKILLed worker's lease within 3x the lease TTL, or when the
``obs`` stage shows metrics-mode telemetry above its 3% overhead floor
(or trace mode exporting nothing).

A stage that *raises* is recorded in its JSON slot as ``{"error": ...}``
and the run exits non-zero after writing the (partial) report — CI fails
loudly instead of uploading a silently truncated BENCH artifact.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
import traceback
from pathlib import Path
from unittest import mock

import numpy as np

from repro.analysis.ac import ac_system_stack, solve_ac_stack
from repro.analysis.mna import layout_cache_disabled
from repro.analysis.template import (
    TEMPLATE_STATS,
    _TEMPLATE_CACHE,
    reset_template_stats,
)
from repro.behavioral.batch import simulate_draws
from repro.behavioral.signals import full_scale_sine, pick_coherent_cycles
from repro.behavioral.verify import draw_error_models
from repro.engine.persist import sizing_digest
from repro.engine.threads import pin_blas_threads
from repro.enumeration.candidates import PipelineCandidate, enumerate_candidates
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, synthesize_mdac, two_stage_space
from repro.synth.evaluator import _AC_FREQS
from repro.tech import CMOS025

# The reference walks live in the test tree (tests/oracles/).
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles import (  # noqa: E402
    LegacyEvaluator,
    ac_response_loop,
    simulate_draws_scalar,
)


def _block_spec():
    spec = AdcSpec(resolution_bits=13)
    plan = plan_stages(spec, PipelineCandidate((4, 3, 2), 13, 7))
    return plan.mdacs[2]


def _time_synthesize(budget: int, seed_baseline: bool = False):
    mdac = _block_spec()

    def run():
        start = time.perf_counter()
        result = synthesize_mdac(
            mdac,
            CMOS025,
            budget=budget,
            seed=1,
            verify_transient=False,
        )
        return result, time.perf_counter() - start

    if seed_baseline:
        with layout_cache_disabled(), mock.patch(
            "repro.synth.synthesis.HybridEvaluator", LegacyEvaluator
        ):
            run()  # warm module/caches
            result, wall = run()
    else:
        run()
        result, wall = run()
    return result, wall


def stage_synthesize(budget: int) -> dict:
    """Full-candidate equation-evaluation throughput: compiled vs oracle."""
    legacy, legacy_wall = _time_synthesize(budget, seed_baseline=True)
    compiled_, compiled_wall = _time_synthesize(budget)
    identical = (
        sizing_digest(legacy) == sizing_digest(compiled_)
        and legacy.history == compiled_.history
        and legacy.equation_evals == compiled_.equation_evals
    )
    evals = compiled_.equation_evals
    return {
        "workload": f"synthesize_mdac(2b@8b, budget={budget}, seed=1, anneal+polish)",
        "equation_evals": evals,
        "legacy_cands_per_s": round(evals / legacy_wall, 1),
        "compiled_cands_per_s": round(evals / compiled_wall, 1),
        "wall_legacy_s": round(legacy_wall, 3),
        "wall_compiled_s": round(compiled_wall, 3),
        "speedup_full_candidate": round(legacy_wall / compiled_wall, 2),
        "identical_results": identical,
    }


def stage_equation_metrics(repeats: int) -> dict:
    """The AC/transfer-function stage: per-frequency loop vs batched stack."""
    mdac = _block_spec()
    space = two_stage_space(mdac, CMOS025)
    evaluator = HybridEvaluator(mdac, CMOS025)
    rng = np.random.default_rng(1)
    staged = evaluator._stage_equation(space.decode(rng.random(space.dimension)))
    lin = staged.lin

    def legacy_stage():
        return ac_response_loop(lin, _AC_FREQS)[:, lin.index("out")]

    def batched_stage():
        stack = ac_system_stack(lin, _AC_FREQS)
        return solve_ac_stack(stack, lin.b_ac, _AC_FREQS)[:, lin.index("out")]

    identical = bool(np.array_equal(legacy_stage(), batched_stage()))

    def rate(fn):
        fn()
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return repeats / (time.perf_counter() - start)

    legacy_rate, batched_rate = rate(legacy_stage), rate(batched_stage)
    return {
        "workload": f"{len(_AC_FREQS)}-point AC sweep of the opamp testbench",
        "legacy_sweeps_per_s": round(legacy_rate, 1),
        "batched_sweeps_per_s": round(batched_rate, 1),
        "speedup": round(batched_rate / legacy_rate, 2),
        "identical_results": identical,
    }


def _results_match(a, b) -> bool:
    return (
        a.cost() == b.cost()
        and a.violations == b.violations
        and a.power == b.power
    )


def stage_template_cache() -> dict:
    """Persisted stamp programs: a warm worker must not compile at all.

    Simulates a pool/queue worker restart: compile into an on-disk
    :class:`~repro.analysis.template.TemplateStore`, wipe the in-process
    cache (a fresh interpreter has an empty one), and re-evaluate.  The
    warm pass must report zero compiles — templates load from the store.
    """
    mdac = _block_spec()
    space = two_stage_space(mdac, CMOS025)
    rng = np.random.default_rng(13)
    sizings = [space.decode(rng.random(space.dimension)) for _ in range(4)]

    def evaluate(store_dir):
        evaluator = HybridEvaluator(
            mdac, CMOS025, template_store=store_dir
        )
        return [evaluator.evaluate(s) for s in sizings]

    with tempfile.TemporaryDirectory() as store_dir:
        _TEMPLATE_CACHE.clear()
        reset_template_stats()
        start = time.perf_counter()
        cold = evaluate(store_dir)
        cold_wall = time.perf_counter() - start
        cold_stats = dict(TEMPLATE_STATS)

        _TEMPLATE_CACHE.clear()  # a freshly forked worker starts empty
        reset_template_stats()
        start = time.perf_counter()
        warm = evaluate(store_dir)
        warm_wall = time.perf_counter() - start
        warm_stats = dict(TEMPLATE_STATS)

    identical = all(_results_match(a, b) for a, b in zip(cold, warm))
    return {
        "workload": f"{len(sizings)} evaluations, cold store vs warm rerun",
        "cold_compiled": cold_stats["compiled"],
        "warm_compiled": warm_stats["compiled"],
        "warm_store_hits": warm_stats["store_hits"],
        "wall_cold_s": round(cold_wall, 3),
        "wall_warm_s": round(warm_wall, 3),
        "identical_results": identical,
    }


def stage_behavioral(draws: int, samples: int) -> dict:
    """Vectorized Monte-Carlo pipeline simulation vs the scalar walk.

    Same seeded mismatch draws and the same coherent stimulus through the
    batch program and the scalar oracle.  ``draw_error_models`` is called
    once per side so each gets identically-seeded fresh generators — the thermal-noise
    streams, not just the static mismatches, must replay bit-for-bit.
    The 256-draw speedup floor in ``--check`` is the PR 7 acceptance bar.
    """
    spec = AdcSpec(resolution_bits=10)
    candidate = next(c for c in enumerate_candidates(10) if c.label == "3-2")
    plan = plan_stages(spec, candidate)
    cycles = pick_coherent_cycles(samples)
    stimulus = full_scale_sine(samples, cycles, spec.full_scale)

    def run(simulate):
        models, rngs = draw_error_models(plan, draws, 101)
        simulate(  # warm numpy/module caches
            candidate, spec.full_scale, models[:1], stimulus, rngs=rngs[:1]
        )
        models, rngs = draw_error_models(plan, draws, 101)
        start = time.perf_counter()
        result = simulate(
            candidate, spec.full_scale, models, stimulus, rngs=rngs
        )
        return result, time.perf_counter() - start

    legacy, legacy_wall = run(simulate_draws_scalar)
    batch, batch_wall = run(simulate_draws)
    identical = all(
        np.array_equal(getattr(legacy, field), getattr(batch, field))
        for field in ("stage_codes", "residues", "backend_codes", "codes")
    )
    conversions = draws * samples
    return {
        "workload": f"{draws} mismatch draws x {samples}-sample coherent "
                    f"capture, 10-bit '3-2' pipeline",
        "legacy_conversions_per_s": round(conversions / legacy_wall, 1),
        "batch_conversions_per_s": round(conversions / batch_wall, 1),
        "wall_legacy_s": round(legacy_wall, 3),
        "wall_batch_s": round(batch_wall, 3),
        "speedup": round(legacy_wall / batch_wall, 2),
        "identical_results": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets for CI (seconds, not minutes)")
    parser.add_argument("--out", default="BENCH_PR10.json",
                        help="output JSON path (default: BENCH_PR10.json)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if compiled is slower than the "
                             "oracle or any result diverges")
    args = parser.parse_args(argv)

    # Pin the BLAS/OpenMP pools exactly like the pooled backends do, and
    # record the effective values so a BENCH artifact states the thread
    # configuration it was measured under.
    blas_threads = pin_blas_threads()

    budget = 120 if args.smoke else 400
    repeats = 10 if args.smoke else 30
    identical = 6 if args.smoke else 8
    distinct = 8 if args.smoke else 16
    # The 256-draw point is the acceptance workload — smoke only trims the
    # capture length, never the draw count the 5x floor is defined at.
    behavioral_draws = 256
    behavioral_samples = 512 if args.smoke else 2048

    # Each stage runs in its own guard: a raising benchmark must not
    # silently truncate the JSON.  The error is recorded in the stage's
    # slot (so CI artifacts show *which* stage died and why) and the run
    # exits non-zero after writing the partial report.
    # bench_service/bench_fabric sit next to this script; script-dir
    # imports resolve them.
    from bench_fabric import check_fabric_report, run_fabric_benchmark
    from bench_obs import check_obs_report, run_obs_benchmark
    from bench_service import check_service_report, run_service_benchmark

    # Fabric probes measure dispatch concurrency (off-CPU service time),
    # so smoke only trims the probe count and service time — the 1.5x
    # two-worker floor holds at either scale.
    fabric_kwargs = (
        dict(tasks=6, busy_s=0.2, identity_jobs=3, budget=60)
        if args.smoke
        else dict(tasks=10, busy_s=0.3, identity_jobs=4, budget=120)
    )

    stage_fns = {
        "synthesize_mdac": lambda: stage_synthesize(budget),
        "equation_metric_stage": lambda: stage_equation_metrics(repeats),
        "template_cache": stage_template_cache,
        "behavioral": lambda: stage_behavioral(
            behavioral_draws, behavioral_samples
        ),
        "service": lambda: run_service_benchmark(identical, distinct),
        "fabric": lambda: run_fabric_benchmark(**fabric_kwargs),
        # Telemetry overhead holds its floor at the full 48-candidate
        # population; smoke trims only the sample count.
        "obs": lambda: run_obs_benchmark(48, repeats=5 if args.smoke else 9),
    }
    stages: dict[str, dict] = {}
    stage_errors: list[str] = []
    for name, stage_fn in stage_fns.items():
        try:
            stages[name] = stage_fn()
        except Exception:
            stages[name] = {"error": traceback.format_exc()}
            stage_errors.append(name)

    report = {
        "bench": "PR10 unified observability tier",
        "config": {
            "smoke": args.smoke,
            "budget": budget,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "blas_threads": blas_threads,
        },
        "stages": stages,
    }

    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))

    if stage_errors:
        for name in stage_errors:
            print(f"BENCH FAILED: stage {name!r} raised (see {out_path})",
                  file=sys.stderr)
        return 1

    synth = report["stages"]["synthesize_mdac"]
    eqn = report["stages"]["equation_metric_stage"]
    template = report["stages"]["template_cache"]
    behavioral = report["stages"]["behavioral"]
    service = report["stages"]["service"]
    fabric = report["stages"]["fabric"]
    obs = report["stages"]["obs"]
    print(
        f"\nfull-candidate speedup: {synth['speedup_full_candidate']}x, "
        f"equation-metric stage: {eqn['speedup']}x, "
        f"warm template compiles: {template['warm_compiled']}, "
        f"behavioral batch: {behavioral['speedup']}x, "
        f"service: {service['coalescing']['submissions']} identical submissions "
        f"-> {service['coalescing']['cold_synthesis_runs']} cold synthesis, "
        f"{service['throughput']['jobs_per_s']} jobs/s, "
        f"fabric: {fabric['throughput']['speedup_two_vs_one']}x at 2 workers "
        f"({fabric['lease_overhead']['median_ms']}ms lease overhead, "
        f"reclaim in {fabric['reclaim']['seconds_to_reclaim']}s), "
        f"obs: {obs['overhead_metrics_pct']}% metrics / "
        f"{obs['overhead_trace_pct']}% trace overhead "
        f"({obs['spans_written']} spans) -> {out_path}"
    )

    if args.check:
        failures = []
        if not synth["identical_results"]:
            failures.append("synthesize_mdac results diverged from the oracle")
        if not eqn["identical_results"]:
            failures.append("batched AC sweep diverged from the oracle loop")
        if synth["speedup_full_candidate"] < 1.0:
            failures.append(
                "regression: compiled kernel slower than the oracle on the "
                f"smoke workload ({synth['speedup_full_candidate']}x)"
            )
        if template["warm_compiled"] != 0:
            failures.append(
                "template store miss: a warm worker still compiled "
                f"{template['warm_compiled']} stamp program(s)"
            )
        if not template["identical_results"]:
            failures.append("store-loaded templates diverged from compiled ones")
        if not behavioral["identical_results"]:
            failures.append(
                "behavioral batch kernel diverged from the scalar walk"
            )
        if behavioral["speedup"] < 5.0:
            failures.append(
                "regression: behavioral batch kernel under its 5x floor "
                f"at 256 draws ({behavioral['speedup']}x)"
            )
        failures.extend(check_service_report(service))
        failures.extend(check_fabric_report(fabric))
        failures.extend(check_obs_report(obs))
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
