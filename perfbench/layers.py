"""Per-layer attribution for one in-process ``repro-adc campaign`` run.

The tracer wraps the public functions each layer is called through, at the
module attribute (or class attribute) where the *caller* looks them up, so
no file under ``src/`` changes.  Every wrapper records calls, inclusive
time, self time (inclusive minus the inclusive time of nested wrapped
calls) and exceptions raised; a few layers additionally inspect arguments
or return values for workload-shape counts.

:func:`layer_metrics` turns the recorded stats into the benchmark's named
per-layer metrics.  Which end-to-end metric each one is expected to move is
documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable

#: Layer group -> the names it is called through, as ``module:attr`` or
#: ``module:Class.attr``.  A name that no longer exists fails installation.
TARGETS: dict[str, tuple[str, ...]] = {
    "transient": ("repro.synth.evaluator:simulate_transient",),
    "dc": ("repro.synth.evaluator:solve_dc",),
    "ac": (
        "repro.synth.evaluator:ac_system_stack",
        "repro.synth.evaluator:solve_ac_stack",
    ),
    "linearize": (
        "repro.analysis.template:BoundMna.linearize",
        "repro.synth.evaluator:linearize",
    ),
    "evaluate": (
        "repro.synth.evaluator:HybridEvaluator.evaluate",
        "repro.synth.evaluator:HybridEvaluator.evaluate_batch",
    ),
    "anneal": ("repro.synth.synthesis:anneal",),
    "pattern_search": ("repro.synth.synthesis:pattern_search",),
    "synthesize": (
        "repro.engine.scheduler:synthesize_mdac",
        "repro.synth.retarget:synthesize_mdac",
    ),
    "plan_synthesis": ("repro.flow.topology:plan_synthesis",),
    "execute_plan": ("repro.flow.topology:execute_plan",),
    "persist_load": ("repro.flow.cache:load_result",),
    "persist_store": ("repro.flow.cache:store_result",),
    "optimize_topology": ("repro.campaign.runner:optimize_topology",),
    "candidate_power": ("repro.flow.topology:candidate_power",),
    "verify": ("repro.campaign.runner:verify_candidate",),
    "store_io": (
        "repro.campaign.checkpoint:CheckpointStore.write",
        "repro.campaign.runner:CampaignResult.save",
    ),
}

#: The whole campaign: its inclusive time is the denominator of
#: ``trace.attributed_share``, and its self time is what no layer covers.
SCOPE = "repro.cli:run_campaign"

#: Upper edges of the ``evaluate_batch`` population-size histogram buckets.
BATCH_BUCKETS = (1, 3, 7, 15)


class LayerStats:
    """Accumulated timings of one layer group."""

    __slots__ = ("calls", "inclusive_s", "self_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0
        self.errors = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "inclusive_s": self.inclusive_s,
            "self_s": self.self_s,
            "errors": self.errors,
        }


class Tracer:
    """Installs the layer wrappers and holds what they record."""

    def __init__(self) -> None:
        self.layers = {group: LayerStats() for group in TARGETS}
        self.scope = LayerStats()
        # Inclusive time of nested wrapped calls, one slot per open call.
        self._children: list[float] = []
        self.blocks = 0
        self.blocks_infeasible = 0
        self.equation_evals = 0
        self.transient_evals = 0
        self.repaired_blocks = 0
        self.draws = 0
        self.persist_hits = 0
        self.batch_sizes: list[int] = []

    def install(self) -> None:
        """Wrap every name in :data:`TARGETS`; raise if one is missing."""
        after_hooks = {
            "synthesize": self._on_block,
            "verify": self._on_verdict,
            "persist_load": self._on_load,
        }
        for group, names in TARGETS.items():
            for name in names:
                owner, attr = _resolve(name)
                before = self._on_batch if attr == "evaluate_batch" else None
                wrapper = self._wrap(
                    self.layers[group],
                    getattr(owner, attr),
                    before,
                    after_hooks.get(group),
                )
                setattr(owner, attr, wrapper)
        owner, attr = _resolve(SCOPE)
        setattr(owner, attr, self._wrap(self.scope, getattr(owner, attr), None, None))

    def _wrap(
        self,
        stats: LayerStats,
        fn: Callable,
        before: Callable | None,
        after: Callable | None,
    ) -> Callable:
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                nested = children.pop()
                stats.calls += 1
                stats.inclusive_s += elapsed
                stats.self_s += elapsed - nested
                if children:
                    children[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- workload-shape hooks -------------------------------------------------

    def _on_block(self, result: Any) -> None:
        self.blocks += 1
        self.blocks_infeasible += not result.feasible
        self.equation_evals += result.equation_evals
        self.transient_evals += result.transient_evals
        self.repaired_blocks += result.transient_evals > 1

    def _on_verdict(self, verdict: Any) -> None:
        self.draws += verdict.draws

    def _on_load(self, result: Any) -> None:
        self.persist_hits += result is not None

    def _on_batch(self, args: tuple) -> None:
        # (self, sizings, ...): every caller passes the population positionally.
        self.batch_sizes.append(len(args[1]))

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready stats for :func:`layer_metrics`."""
        return {
            "layers": {g: s.as_dict() for g, s in self.layers.items()},
            "scope": self.scope.as_dict(),
            "blocks": self.blocks,
            "blocks_infeasible": self.blocks_infeasible,
            "equation_evals": self.equation_evals,
            "transient_evals": self.transient_evals,
            "repaired_blocks": self.repaired_blocks,
            "draws": self.draws,
            "persist_hits": self.persist_hits,
            "batch_sizes": self.batch_sizes,
        }


def _resolve(name: str) -> tuple[Any, str]:
    """``module:attr`` / ``module:Class.attr`` -> (owner object, attr)."""
    module_name, _, path = name.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not hasattr(owner, attr):
        raise LookupError(
            f"traced name {name} no longer exists; update perfbench/layers.py"
        )
    return owner, attr


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics ``name -> (value, unit)`` of one traced run."""
    layers = snap["layers"]
    scope = snap["scope"]

    def self_s(group: str) -> float:
        return layers[group]["self_s"]

    def calls(group: str) -> int:
        return layers[group]["calls"]

    blocks = snap["blocks"]
    transient_evals = snap["transient_evals"]
    sizes = snap["batch_sizes"]
    out: dict[str, tuple[float, str]] = {
        "analysis.transient_s": (self_s("transient"), "s"),
        "analysis.transient_calls": (calls("transient"), "count"),
        "analysis.transient_failures": (layers["transient"]["errors"], "count"),
        "analysis.transient_ms_per_call": (
            1e3 * _ratio(self_s("transient"), calls("transient")),
            "ms",
        ),
        "analysis.dc_s": (self_s("dc"), "s"),
        "analysis.dc_calls": (calls("dc"), "count"),
        "analysis.dc_failures": (layers["dc"]["errors"], "count"),
        "analysis.ac_s": (self_s("ac"), "s"),
        "analysis.ac_calls": (calls("ac"), "count"),
        "analysis.linearize_s": (self_s("linearize"), "s"),
        "synth.blocks": (blocks, "count"),
        "synth.blocks_infeasible": (snap["blocks_infeasible"], "count"),
        "synth.equation_evals": (snap["equation_evals"], "count"),
        "synth.evals_per_block": (_ratio(snap["equation_evals"], blocks), "count/block"),
        "synth.transient_evals": (transient_evals, "count"),
        "synth.transient_per_block": (_ratio(transient_evals, blocks), "count/block"),
        "synth.repairs": (transient_evals - blocks if blocks else 0, "count"),
        "synth.repair_rate": (_ratio(snap["repaired_blocks"], blocks), "ratio"),
        "synth.synthesize_self_s": (self_s("synthesize"), "s"),
        "synth.anneal_self_s": (self_s("anneal"), "s"),
        "synth.pattern_search_self_s": (self_s("pattern_search"), "s"),
        "synth.evaluate_self_s": (self_s("evaluate"), "s"),
        "synth.batch_calls": (len(sizes), "count"),
        "synth.batch_population_mean": (_ratio(sum(sizes), len(sizes)), "count"),
    }
    lower = 1
    for upper in BATCH_BUCKETS:
        span = f"{lower}" if lower == upper else f"{lower}_{upper}"
        out[f"synth.batch_pop_{span}"] = (
            sum(lower <= n <= upper for n in sizes),
            "count",
        )
        lower = upper + 1
    out[f"synth.batch_pop_{lower}_up"] = (sum(n >= lower for n in sizes), "count")
    out.update(
        {
            "behavioral.verify_s": (self_s("verify"), "s"),
            "behavioral.draws": (snap["draws"], "count"),
            "behavioral.draws_per_s": (_ratio(snap["draws"], self_s("verify")), "1/s"),
            "engine.plan_synthesis_s": (self_s("plan_synthesis"), "s"),
            "engine.execute_plan_self_s": (self_s("execute_plan"), "s"),
            "engine.persist_load_s": (self_s("persist_load"), "s"),
            "engine.persist_store_s": (self_s("persist_store"), "s"),
            "engine.persist_hit_rate": (
                _ratio(snap["persist_hits"], calls("persist_load")),
                "ratio",
            ),
            "campaign.store_io_s": (self_s("store_io"), "s"),
            "campaign.store_io_calls": (calls("store_io"), "count"),
            "campaign.runner_self_s": (scope["self_s"], "s"),
            "flow.optimize_topology_self_s": (self_s("optimize_topology"), "s"),
            "power.candidate_power_s": (self_s("candidate_power"), "s"),
            "power.candidate_power_calls": (calls("candidate_power"), "count"),
            "trace.attributed_share": (
                _ratio(sum(s["self_s"] for s in layers.values()), scope["inclusive_s"]),
                "ratio",
            ),
        }
    )
    return out
