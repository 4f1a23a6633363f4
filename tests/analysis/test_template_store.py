"""Persisted compiled stamp templates: pickling, the on-disk store, stats.

PR 6 contract: templates are pure data (picklable), a ``TemplateStore``
round-trips them bit-identically, corruption degrades to a recompile
(never an error), and a warm store drops the fresh-compile count to zero —
the property the benchmark's cache stage measures.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.dc import solve_dc
from repro.analysis.mna import layout_for
from repro.analysis.template import (
    TEMPLATE_STATS,
    MnaTemplate,
    TemplateStore,
    _TEMPLATE_CACHE,
    reset_template_stats,
    template_for,
)
from repro.enumeration.candidates import PipelineCandidate
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, two_stage_space
from repro.tech import CMOS025


def _opamp_bench(seed: int = 0):
    plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
    mdac = plan.mdacs[2]
    space = two_stage_space(mdac, CMOS025)
    evaluator = HybridEvaluator(mdac, CMOS025)
    rng = np.random.default_rng(seed)
    sizing = space.decode(rng.random(space.dimension))
    return evaluator._ac_bench(sizing), mdac, space


@pytest.fixture(autouse=True)
def _fresh_template_state():
    """Each test sees an empty in-process cache and zeroed counters."""
    saved = dict(_TEMPLATE_CACHE)
    _TEMPLATE_CACHE.clear()
    reset_template_stats()
    yield
    _TEMPLATE_CACHE.clear()
    _TEMPLATE_CACHE.update(saved)
    reset_template_stats()


class TestTemplatePickling:
    def test_pickle_round_trip_is_bit_identical(self):
        bench, _, _ = _opamp_bench(1)
        template = MnaTemplate(bench)
        clone = pickle.loads(pickle.dumps(template))
        assert clone.key == template.key
        x = np.random.default_rng(0).standard_normal(layout_for(bench).size)
        jac_a, res_a = template.bind(bench).assemble(x, 1e-9, 0.5)
        jac_b, res_b = clone.bind(bench).assemble(x, 1e-9, 0.5)
        assert np.array_equal(jac_a, jac_b)
        assert np.array_equal(res_a, res_b)


class TestTemplateStore:
    def test_round_trip_and_linearize_identity(self, tmp_path):
        bench, _, _ = _opamp_bench(2)
        store = TemplateStore(tmp_path)
        template = MnaTemplate(bench)
        store.save(template)
        loaded = store.load(bench.topology_key())
        assert loaded is not None
        op = solve_dc(bench)
        ref = template.bind(bench).linearize(op)
        via_store = loaded.bind(bench).linearize(op)
        assert np.array_equal(ref.g_matrix, via_store.g_matrix)
        assert np.array_equal(ref.c_matrix, via_store.c_matrix)
        assert np.array_equal(ref.b_ac, via_store.b_ac)

    def test_missing_entry_is_a_miss(self, tmp_path):
        bench, _, _ = _opamp_bench(1)
        assert TemplateStore(tmp_path).load(bench.topology_key()) is None

    def test_corrupt_entry_degrades_to_miss_and_unlinks(self, tmp_path):
        bench, _, _ = _opamp_bench(1)
        store = TemplateStore(tmp_path)
        store.save(MnaTemplate(bench))
        path = store._path(bench.topology_key())
        path.write_bytes(b"not a pickle")
        assert store.load(bench.topology_key()) is None
        assert not path.exists()

    def test_wrong_key_entry_is_rejected(self, tmp_path):
        bench_a, _, _ = _opamp_bench(1)
        store = TemplateStore(tmp_path)
        template = MnaTemplate(bench_a)
        # Write the right pickle under the wrong address.
        other_key = ("bogus",)
        store._path(other_key).parent.mkdir(parents=True, exist_ok=True)
        store._path(other_key).write_bytes(pickle.dumps(template))
        assert store.load(other_key) is None


class TestTemplateStats:
    def test_cold_lookup_compiles_and_persists(self, tmp_path):
        bench, _, _ = _opamp_bench(1)
        store = TemplateStore(tmp_path)
        template_for(bench, store=store)
        assert TEMPLATE_STATS["compiled"] == 1
        assert TEMPLATE_STATS["store_misses"] == 1
        assert TEMPLATE_STATS["store_hits"] == 0
        assert store.load(bench.topology_key()) is not None

    def test_warm_store_compiles_nothing(self, tmp_path):
        bench, _, _ = _opamp_bench(1)
        store = TemplateStore(tmp_path)
        template_for(bench, store=store)  # cold: compiles + persists
        _TEMPLATE_CACHE.clear()  # simulate a fresh worker process
        reset_template_stats()
        template_for(bench, store=store)
        assert TEMPLATE_STATS["compiled"] == 0
        assert TEMPLATE_STATS["store_hits"] == 1

    def test_in_process_cache_short_circuits_the_store(self, tmp_path):
        bench, _, _ = _opamp_bench(1)
        store = TemplateStore(tmp_path)
        template_for(bench, store=store)
        reset_template_stats()
        template_for(bench, store=store)  # in-process hit: store untouched
        assert TEMPLATE_STATS == {
            "compiled": 0,
            "store_hits": 0,
            "store_misses": 0,
        }


class TestEvaluatorIntegration:
    def test_evaluator_accepts_store_path_and_stays_bit_identical(self, tmp_path):
        bench, mdac, space = _opamp_bench(3)
        rng = np.random.default_rng(5)
        sizings = [space.decode(rng.random(space.dimension)) for _ in range(3)]
        plain = HybridEvaluator(mdac, CMOS025)
        references = [plain.evaluate(s) for s in sizings]

        _TEMPLATE_CACHE.clear()
        reset_template_stats()
        stored = HybridEvaluator(
            mdac, CMOS025, template_store=str(tmp_path)
        )
        assert isinstance(stored.template_store, TemplateStore)
        for ref, sizing in zip(references, sizings):
            result = stored.evaluate(sizing)
            assert result.cost() == ref.cost()
            assert result.power == ref.power
            assert result.dc_gain == ref.dc_gain
        assert TEMPLATE_STATS["compiled"] >= 1  # cold run pays the compiles

        _TEMPLATE_CACHE.clear()
        reset_template_stats()
        warm = HybridEvaluator(
            mdac, CMOS025, template_store=str(tmp_path)
        )
        for ref, sizing in zip(references, sizings):
            assert warm.evaluate(sizing).cost() == ref.cost()
        assert TEMPLATE_STATS["compiled"] == 0  # warm rerun: zero recompiles
        assert TEMPLATE_STATS["store_hits"] >= 1
