"""Batched AC solves: one stacked solve, bit-identical to the per-frequency oracle."""

import numpy as np
import pytest

from repro.analysis.ac import ac_response, ac_system_stack, solve_ac_stack
from repro.analysis.dc import solve_dc
from repro.analysis.smallsignal import LinearizedCircuit, linearize
from repro.analysis.mna import layout_for
from repro.circuit.builder import CircuitBuilder
from repro.errors import AnalysisError
from repro.tech import CMOS025
from tests.oracles import ac_response_loop


def _rc_circuit():
    b = CircuitBuilder("rc", tech=CMOS025)
    b.v("in", "gnd", dc=0.0, ac=1.0, name="vin")
    b.r("in", "out", 1e3, name="r1")
    b.c("out", "gnd", 1e-9, name="c1")
    return b.circuit


def _linear():
    circuit = _rc_circuit()
    return linearize(circuit, solve_dc(circuit))


class TestBatchedAc:
    def test_batched_equals_loop_bitwise(self):
        lin = _linear()
        freqs = np.logspace(2, 9, 181)
        loop = ac_response_loop(lin, freqs)
        batched = ac_response(lin, freqs)
        assert np.array_equal(loop, batched)

    def test_system_stack_matches_system_at(self):
        lin = _linear()
        freqs = np.array([1e3, 1e6, 1e9])
        stack = ac_system_stack(lin, freqs)
        for k, f in enumerate(freqs):
            assert np.array_equal(stack[k], lin.system_at(2j * np.pi * f))

    def test_system_stack_out_buffer(self):
        lin = _linear()
        freqs = np.logspace(3, 6, 11)
        buf = np.empty((len(freqs), lin.size, lin.size), dtype=complex)
        returned = ac_system_stack(lin, freqs, out=buf)
        assert returned is buf
        assert np.array_equal(buf, ac_system_stack(lin, freqs))

    def test_empty_sweep(self):
        lin = _linear()
        out = ac_response(lin, np.array([]))
        assert out.shape == (0, lin.size)

    def test_singular_system_names_first_bad_frequency(self):
        # A row of zeros makes every frequency singular; the error must
        # name the first one in sweep order, exactly like the oracle loop.
        lin = _linear()
        g = lin.g_matrix.copy()
        c = lin.c_matrix.copy()
        g[0, :] = 0.0
        c[0, :] = 0.0
        broken = LinearizedCircuit(
            layout=lin.layout,
            g_matrix=g,
            c_matrix=c,
            b_ac=lin.b_ac,
            op=lin.op,
            noise_sources=[],
        )
        freqs = np.array([7.5e3, 1e6])
        with pytest.raises(AnalysisError) as batched_err:
            ac_response(broken, freqs)
        with pytest.raises(AnalysisError) as loop_err:
            ac_response_loop(broken, freqs)
        assert "7.500e+03" in str(batched_err.value)
        assert str(batched_err.value) == str(loop_err.value)

    def test_solve_ac_stack_partial_batch(self):
        lin = _linear()
        freqs = np.logspace(3, 6, 9)
        stack = ac_system_stack(lin, freqs)
        solutions = solve_ac_stack(stack, lin.b_ac, freqs)
        reference = ac_response_loop(lin, freqs)
        assert np.array_equal(solutions, reference)
