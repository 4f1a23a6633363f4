"""Compiled stamp programs must replay the per-element walks byte for byte.

This is the contract that lets the compiled kernel be the only evaluation
path while campaign records stay byte-identical to the walks: every
jacobian, residual, small-signal matrix and DC solution the template
produces equals the walk's result exactly — compared as bytes, so a
``-0.0`` where the walk has ``0.0`` fails too.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.dc import solve_dc
from repro.analysis.mna import MnaLayout, layout_cache_disabled, layout_for
from repro.analysis.smallsignal import linearize
from repro.analysis.template import (
    TEMPLATE_STATS,
    MnaTemplate,
    bind_template,
    template_for,
)
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import AnalysisError, ConvergenceError
from repro.specs import AdcSpec, plan_stages
from repro.synth import HybridEvaluator, two_stage_space
from repro.tech import CMOS025
from tests.oracles.dc import DcWalk, assemble_walk

_PLAN = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))

#: Seeds whose cold solve (no initial guess) needs gmin stepping.
_GMIN_SEEDS = (5, 8)


def _opamp_bench(seed: int = 0, mdac_index: int = 2):
    """AC bench of a seeded sizing of one 13-bit 4-3-2 MDAC."""
    mdac = _PLAN.mdacs[mdac_index]
    space = two_stage_space(mdac, CMOS025)
    evaluator = HybridEvaluator(mdac, CMOS025)
    rng = np.random.default_rng(seed)
    sizing = space.decode(rng.random(space.dimension))
    return evaluator._ac_bench(sizing), evaluator


def _mixed_circuit() -> Circuit:
    """Every element type the DC/AC templates support, in one netlist."""
    c = Circuit("mixed")
    c.add(VoltageSource("vin", positive="a", negative="gnd", dc=1.0, ac=1.0))
    c.add(Resistor("r1", "a", "b", 1e3))
    c.add(Inductor("l1", "b", "c", 1e-6))
    c.add(Capacitor("c1", "c", "gnd", 1e-12))
    c.add(
        Vccs("g1", out_positive="d", out_negative="gnd",
             ctrl_positive="c", ctrl_negative="gnd", gm=1e-3)
    )
    c.add(Resistor("r2", "d", "gnd", 5e3))
    c.add(
        Vcvs("e1", out_positive="e", out_negative="gnd",
             ctrl_positive="d", ctrl_negative="gnd", gain=2.5)
    )
    c.add(Switch("sw1", "e", "f", phase=lambda t: True, r_on=50.0))
    c.add(Resistor("r3", "f", "gnd", 2e3))
    c.add(CurrentSource("i1", positive="f", negative="gnd", dc=1e-4, ac=0.5))
    return c


def _assert_same_system(layout, bound, x, gmin, scale):
    jac_ref, res_ref = assemble_walk(layout, x, gmin, scale)
    jac, res = bound.dc.assemble(x, gmin, scale)
    assert jac.tobytes() == jac_ref.tobytes()
    assert res.tobytes() == res_ref.tobytes()


def _assert_same_solution(ref, got):
    assert got.x.tobytes() == ref.x.tobytes()
    assert got.iterations == ref.iterations
    assert got.strategy == ref.strategy
    assert got.voltages == ref.voltages
    assert got.branch_currents == ref.branch_currents


class _SourceSteppingOnly:
    """A ``solve_dc`` assembly whose Newton runs fail until the source ramp.

    Plain Newton and every gmin step raise :class:`ConvergenceError`, so
    :func:`solve_dc` falls through to source stepping on ``inner``.
    """

    def __init__(self, inner):
        self.inner = inner
        self.layout = inner.layout
        self._ramping = False

    def assemble(self, x, gmin, source_scale):
        self._ramping = self._ramping or source_scale < 1.0
        if not self._ramping:
            raise ConvergenceError("forced")
        return self.inner.assemble(x, gmin, source_scale)


def _switched_divider(phase) -> Circuit:
    """1 V across a switch (100 ohm on, 8.1 kohm off) over 900 ohm."""
    c = Circuit("divider")
    c.add(VoltageSource("vin", positive="a", negative="gnd", dc=1.0))
    c.add(Switch("sw", "a", "b", phase=phase, r_on=100.0, r_off=8.1e3))
    c.add(Resistor("rbot", "b", "gnd", 900.0))
    return c


class TestAssembleBitIdentity:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_opamp_bench_assemble(self, seed):
        bench, _ = _opamp_bench(seed)
        layout = layout_for(bench)
        bound = bind_template(bench)
        rng = np.random.default_rng(seed + 100)
        for _ in range(3):
            x = rng.standard_normal(layout.size)
            for gmin, scale in ((0.0, 1.0), (1e-3, 1.0), (1e-9, 0.35), (0.0, 1.0)):
                _assert_same_system(layout, bound, x, gmin, scale)

    def test_mixed_elements_assemble(self):
        circuit = _mixed_circuit()
        layout = layout_for(circuit)
        bound = bind_template(circuit)
        rng = np.random.default_rng(2)
        for _ in range(4):
            x = rng.standard_normal(layout.size)
            for gmin, scale in ((0.0, 1.0), (1e-4, 0.7), (1e-9, 0.05)):
                _assert_same_system(layout, bound, x, gmin, scale)

    def test_solve_dc_identical(self):
        bench, evaluator = _opamp_bench(5)
        guess = evaluator._dc_guess()
        ref = solve_dc(bench, initial_guess=guess, assembly=DcWalk(bench))
        _assert_same_solution(ref, solve_dc(bench, initial_guess=guess))
        _assert_same_solution(
            ref,
            solve_dc(bench, initial_guess=guess, assembly=bind_template(bench).dc),
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_cold_solve_dc_identical(self, seed):
        """Cold solves (no initial guess) of the 4-3-2 MDACs' AC benches."""
        bench, _ = _opamp_bench(seed, mdac_index=seed % len(_PLAN.mdacs))
        ref = solve_dc(bench, assembly=DcWalk(bench))
        got = solve_dc(bench)
        _assert_same_solution(ref, got)
        assert got.strategy == ("gmin" if seed in _GMIN_SEEDS else "newton")

    def test_linearize_identical(self):
        for circuit in (_opamp_bench(7)[0], _mixed_circuit()):
            op = solve_dc(circuit)
            bound = bind_template(circuit)
            ref = linearize(circuit, op, include_noise=False)
            lin = bound.linearize(op)
            assert lin.g_matrix.tobytes() == ref.g_matrix.tobytes()
            assert lin.c_matrix.tobytes() == ref.c_matrix.tobytes()
            assert lin.b_ac.tobytes() == ref.b_ac.tobytes()


class TestDcProgram:
    @pytest.mark.parametrize("which", ["mixed", "opamp"])
    def test_gmin_entries_are_added_last(self, which):
        """gmin adds onto the walk's node diagonals and node residuals only."""
        circuit = _mixed_circuit() if which == "mixed" else _opamp_bench(4)[0]
        layout = layout_for(circuit)
        n_nodes = len(layout.nets)
        program = bind_template(circuit).dc
        x = np.random.default_rng(9).standard_normal(layout.size)
        gmin = 1e-3
        jac0, res0 = program.assemble(x, 0.0, 1.0)
        jac0, res0 = jac0.copy(), res0.copy()
        jac, res = program.assemble(x, gmin, 1.0)
        nodes = np.arange(n_nodes)
        jac0[nodes, nodes] += gmin
        res0[:n_nodes] += gmin * x[:n_nodes] + 0.0
        assert jac.tobytes() == jac0.tobytes()
        assert res.tobytes() == res0.tobytes()

    def test_source_scale_sequence_matches_walk(self):
        """Scaled source offsets refresh whenever the scale changes."""
        circuit = _mixed_circuit()
        layout = layout_for(circuit)
        program = bind_template(circuit).dc
        x = np.random.default_rng(4).standard_normal(layout.size)
        for scale in (0.05, 1.0, 0.05, 0.5, 0.5, 1.0, 0.0):
            jac_ref, res_ref = assemble_walk(layout, x, 1e-9, scale)
            jac, res = program.assemble(x, 1e-9, scale)
            assert jac.tobytes() == jac_ref.tobytes()
            assert res.tobytes() == res_ref.tobytes()

    def test_capacitors_open_and_inductors_shorted(self):
        c = Circuit("rlc")
        c.add(VoltageSource("vin", positive="a", negative="gnd", dc=2.0))
        c.add(Resistor("r1", "a", "b", 1e3))
        c.add(Inductor("l1", "b", "c", 1e-6))
        c.add(Capacitor("c1", "c", "gnd", 1e-12))
        c.add(Capacitor("c2", "a", "c", 1e-12))
        c.add(Resistor("r2", "c", "gnd", 3e3))
        got = solve_dc(c)
        _assert_same_solution(solve_dc(c, assembly=DcWalk(c)), got)
        assert got.voltage("b") == pytest.approx(1.5, rel=1e-12)
        assert got.voltage("c") == pytest.approx(1.5, rel=1e-12)
        assert got.branch_currents["l1"] == pytest.approx(0.5e-3, rel=1e-12)

    @pytest.mark.parametrize(
        "closed_at_zero, expected", [(True, 0.9), (False, 0.1)]
    )
    def test_switch_takes_its_t0_state(self, closed_at_zero, expected):
        if closed_at_zero:
            phase = lambda t: t < 1e-9  # noqa: E731
        else:
            phase = lambda t: t > 1e-9  # noqa: E731
        c = _switched_divider(phase)
        got = solve_dc(c)
        _assert_same_solution(solve_dc(c, assembly=DcWalk(c)), got)
        assert got.voltage("b") == pytest.approx(expected, rel=1e-12)


class TestSolveStrategies:
    @pytest.mark.parametrize("seed", [2, 6, 11])
    def test_source_stepping_identical(self, seed):
        """A solve forced onto source stepping replays the walk exactly."""
        bench, _ = _opamp_bench(seed, mdac_index=seed % len(_PLAN.mdacs))
        ref = solve_dc(bench, assembly=_SourceSteppingOnly(DcWalk(bench)))
        got = solve_dc(bench, assembly=_SourceSteppingOnly(bind_template(bench).dc))
        assert ref.strategy == "source"
        _assert_same_solution(ref, got)

    def test_failed_solve_raises_identically(self):
        """When every strategy fails, both paths fail with the same error."""
        bench, _ = _opamp_bench(0, mdac_index=0)
        with pytest.raises(ConvergenceError) as ref:
            solve_dc(bench, assembly=_SourceSteppingOnly(DcWalk(bench)))
        with pytest.raises(ConvergenceError) as got:
            solve_dc(bench, assembly=_SourceSteppingOnly(bind_template(bench).dc))
        assert str(got.value) == str(ref.value)
        assert "source stepping" in str(got.value)


class TestTemplateCacheAndBinding:
    def test_template_cached_per_topology(self):
        bench_a, _ = _opamp_bench(1)
        bench_b, _ = _opamp_bench(2)  # same topology, different sizing
        assert template_for(bench_a) is template_for(bench_b)

    def test_bind_rejects_other_topology(self):
        bench, _ = _opamp_bench(1)
        template = template_for(bench)
        with pytest.raises(AnalysisError):
            template.bind(_mixed_circuit())

    def test_rebind_refreshes_values(self):
        bench_a, _ = _opamp_bench(1)
        bench_b, _ = _opamp_bench(2)
        bound = bind_template(bench_a)
        bound.rebind(bench_b)
        reference = bind_template(bench_b)
        layout = layout_for(bench_b)
        x = np.random.default_rng(0).standard_normal(layout.size)
        jac_a, res_a = bound.dc.assemble(x, 0.0, 1.0)
        jac_b, res_b = reference.dc.assemble(x, 0.0, 1.0)
        assert jac_a.tobytes() == jac_b.tobytes()
        assert res_a.tobytes() == res_b.tobytes()

    def test_bound_programs_keep_separate_buffers(self):
        """Two binds of one topology's DC program never see each other's values."""
        bench_a, _ = _opamp_bench(1)
        bench_b, _ = _opamp_bench(2)
        program = template_for(bench_a).dc
        bound_a = program.bind(bench_a)
        bound_b = program.bind(bench_b)
        layout_a, layout_b = layout_for(bench_a), layout_for(bench_b)
        rng = np.random.default_rng(3)
        for gmin, scale in ((0.0, 1.0), (1e-4, 0.5), (0.0, 0.2), (0.0, 1.0)):
            x = rng.standard_normal(layout_a.size)
            for bound, layout in ((bound_a, layout_a), (bound_b, layout_b)):
                jac_ref, res_ref = assemble_walk(layout, x, gmin, scale)
                jac, res = bound.assemble(x, gmin, scale)
                assert jac.tobytes() == jac_ref.tobytes()
                assert res.tobytes() == res_ref.tobytes()

    def test_threaded_solves_match_serial_walk(self):
        """Concurrent solves of one cached topology stay bit-identical."""
        seeds = range(1, 9)
        benches = {seed: _opamp_bench(seed)[0] for seed in seeds}
        refs = {
            seed: solve_dc(bench, assembly=DcWalk(bench))
            for seed, bench in benches.items()
        }

        def solve(seed):
            bench = benches[seed]
            return seed, solve_dc(bench, assembly=bind_template(bench).dc)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(solve, list(seeds) * 2))
        for seed, got in results:
            _assert_same_solution(refs[seed], got)

    def test_template_compiled_once_per_topology(self):
        """Lookups, binds and solves of one topology share a single compile."""
        def probe(r: float) -> Circuit:
            # Element names no other test uses: a topology of its own.
            c = Circuit("cache_probe")
            c.add(VoltageSource("cache_probe_v", positive="p", negative="gnd", dc=1.0))
            c.add(Resistor("cache_probe_r", "p", "gnd", r))
            return c

        template = template_for(probe(1e3))
        assert TEMPLATE_STATS["compiled"] == 1
        second = probe(2e3)
        assert template_for(second) is template
        bind_template(second)
        assert abs(solve_dc(second).branch_currents["cache_probe_v"]) == (
            pytest.approx(0.5e-3, rel=1e-12)
        )
        assert TEMPLATE_STATS["compiled"] == 1

    def test_layout_cache_shares_structure_not_values(self):
        bench_a, _ = _opamp_bench(1)
        bench_b, _ = _opamp_bench(2)
        layout_a = layout_for(bench_a)
        layout_b = layout_for(bench_b)
        assert layout_a.node_of is layout_b.node_of  # shared index maps
        assert layout_b.circuit is bench_b  # values from the live circuit

    def test_layout_cache_disabled_context(self):
        bench, _ = _opamp_bench(1)
        with layout_cache_disabled():
            fresh = layout_for(bench)
        assert isinstance(fresh, MnaLayout)
        assert fresh.node_of == layout_for(bench).node_of

    def test_topology_key_invalidates_on_mutation(self):
        circuit = _mixed_circuit()
        key = circuit.topology_key()
        circuit.add(Resistor("extra", "f", "gnd", 1e4))
        assert circuit.topology_key() != key
        circuit.remove("extra")
        assert circuit.topology_key() == key

    def test_unsupported_element_raises(self):
        c = Circuit("bad")
        c.add(VoltageSource("v1", positive="a", negative="gnd", dc=1.0))

        class Weird(Resistor):
            pass

        # A subclass is fine (isinstance dispatch); a genuinely unknown
        # element type is rejected at compile time.
        c.add(Weird("w1", "a", "gnd", 1.0))
        MnaTemplate(c)  # subclass compiles

        from repro.circuit.elements import Element
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Alien(Element):
            n1: str = "a"
            n2: str = "gnd"

            @property
            def nodes(self):
                return (self.n1, self.n2)

        c2 = Circuit("bad2")
        c2.add(VoltageSource("v1", positive="a", negative="gnd", dc=1.0))
        c2.add(Alien("alien"))
        with pytest.raises(AnalysisError):
            MnaTemplate(c2)
