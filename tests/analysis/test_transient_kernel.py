"""The compiled transient program must replay the per-element walk bit for bit.

Every circuit of ``test_transient.py``, VCVS and VCCS benches (stamps no
other transient test covers) and seeded 13-bit 4-3-2 MDAC settling benches
run through :func:`repro.analysis.simulate_transient` and through the walk
in ``tests/oracles/transient.py``; waveforms, time axes and errors must be
identical.
"""

import numpy as np
import pytest

from repro.analysis import simulate_transient
from repro.analysis.dc import DcSolution
from repro.analysis.mna import layout_for
from repro.circuit.builder import CircuitBuilder
from repro.circuit.elements import Element
from repro.errors import AnalysisError, ConvergenceError
from repro.obs import metrics
from repro.tech import CMOS025
from tests.oracles.transient import settling_benches, simulate_transient_walk


def _rc():
    b = CircuitBuilder("rc")
    b.v("in", "gnd", dc=0.0, waveform=lambda t: 1.0 if t > 0 else 0.0)
    b.r("in", "out", 1e3)
    b.c("out", "gnd", 1e-9)
    return b.build()


def _rl():
    b = CircuitBuilder("rl")
    b.v("in", "gnd", dc=0.0, waveform=lambda t: 1.0 if t > 0 else 0.0)
    b.r("in", "mid", 1e3)
    b.l("mid", "gnd", 1e-6)
    return b.build()


def _switched_rc():
    b = CircuitBuilder("swrc")
    b.v("in", "gnd", dc=1.0)
    b.switch("in", "out", phase=lambda t: t < 0.5e-6, r_on=100.0)
    b.c("out", "gnd", 100e-12)
    return b.build()


def _sample_and_hold():
    b = CircuitBuilder("sah")
    b.v("in", "gnd", dc=0.0, waveform=lambda t: 1e6 * t)
    b.switch("in", "out", phase=lambda t: t < 1e-6, r_on=10.0)
    b.c("out", "gnd", 10e-12)
    return b.build()


def _source_follower():
    b = CircuitBuilder("sf", tech=CMOS025)
    b.v("vdd", "gnd", dc=3.3)
    b.v("in", "gnd", dc=1.5, waveform=lambda t: 1.5 + (0.5 if t > 10e-9 else 0.0))
    b.nmos("vdd", "in", "out", w=50e-6, l=0.25e-6)
    b.i("out", "gnd", dc=200e-6)
    b.c("out", "gnd", 1e-12)
    return b.build()


def _gm_stage():
    b = CircuitBuilder("slew", tech=CMOS025)
    b.v("vdd", "gnd", dc=3.3)
    b.v("step", "gnd", dc=0.6, waveform=lambda t: 0.6 if t < 5e-9 else 2.2)
    b.nmos("out", "step", "gnd", w=4e-6, l=1e-6)
    b.r("vdd", "out", 100e3)
    b.c("out", "gnd", 5e-12)
    return b.build()


def _vcvs_bench():
    # A floating-output VCVS buffer driving an RC load, with a waveform
    # current source pulling on its input node.
    b = CircuitBuilder("vcvs")
    b.v("in", "gnd", dc=0.2, waveform=lambda t: 0.2 + (0.3 if t > 20e-9 else 0.0))
    b.r("in", "ctrl", 2e3)
    b.i("ctrl", "gnd", dc=10e-6, waveform=lambda t: 10e-6 if t < 60e-9 else -5e-6)
    b.r("ctrl", "gnd", 10e3)
    b.vcvs("drv", "ref", "ctrl", "gnd", 4.0)
    b.v("ref", "gnd", dc=0.1)
    b.r("drv", "out", 500.0)
    b.c("out", "gnd", 20e-12)
    b.c("out", "ctrl", 1e-12)
    return b.build()


def _vccs_bench():
    # A gm stage into an RC load with a Miller capacitor back to its input.
    b = CircuitBuilder("vccs")
    b.v("in", "gnd", dc=0.0, waveform=lambda t: 0.1 if t > 10e-9 else 0.0)
    b.r("in", "g", 1e3)
    b.vccs("out", "gnd", "g", "gnd", 2e-3)
    b.r("out", "gnd", 20e3)
    b.c("out", "gnd", 2e-12)
    b.c("out", "g", 0.2e-12)
    return b.build()


CASES = {
    "rc_trap": (_rc, dict(t_stop=5e-6, dt=5e-9)),
    "rc_be": (_rc, dict(t_stop=8e-6, dt=2.5e-9, method="be")),
    "rl_trap": (_rl, dict(t_stop=6e-9, dt=5e-12)),
    "rl_be": (_rl, dict(t_stop=6e-9, dt=5e-12, method="be")),
    "switched_rc": (_switched_rc, dict(t_stop=1e-6, dt=1e-9)),
    "sample_and_hold": (_sample_and_hold, dict(t_stop=2e-6, dt=2e-9)),
    "source_follower": (_source_follower, dict(t_stop=100e-9, dt=0.2e-9)),
    "gm_stage": (_gm_stage, dict(t_stop=200e-9, dt=0.2e-9)),
    "vcvs_trap": (_vcvs_bench, dict(t_stop=100e-9, dt=0.1e-9)),
    "vcvs_be": (_vcvs_bench, dict(t_stop=100e-9, dt=0.1e-9, method="be")),
    "vccs_trap": (_vccs_bench, dict(t_stop=60e-9, dt=0.1e-9)),
    "vccs_be": (_vccs_bench, dict(t_stop=60e-9, dt=0.1e-9, method="be")),
}


def _assert_identical(compiled, oracle):
    assert np.array_equal(compiled.time, oracle.time)
    assert compiled.waveforms.keys() == oracle.waveforms.keys()
    for net, wave in oracle.waveforms.items():
        assert compiled.waveforms[net].tobytes() == wave.tobytes(), net


@pytest.mark.parametrize("case", sorted(CASES))
def test_waveforms_match_walk_bitwise(case):
    make, kwargs = CASES[case]
    compiled = simulate_transient(make(), **kwargs)
    oracle = simulate_transient_walk(make(), **kwargs)
    _assert_identical(compiled, oracle)


def test_recorded_subset_and_ground_match_walk():
    kwargs = dict(t_stop=1e-6, dt=1e-8, record=["out", "gnd"])
    _assert_identical(
        simulate_transient(_rc(), **kwargs), simulate_transient_walk(_rc(), **kwargs)
    )


@pytest.mark.parametrize("bench, t_stop, dt", settling_benches(3, seed=2))
def test_settling_benches_match_walk_bitwise(bench, t_stop, dt):
    compiled = simulate_transient(bench, t_stop=t_stop, dt=dt, record=["out"])
    oracle = simulate_transient_walk(bench, t_stop=t_stop, dt=dt, record=["out"])
    _assert_identical(compiled, oracle)


class _Diode(Element):
    """An element type no analysis stamps."""

    def __init__(self, name, n1, n2):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)

    @property
    def nodes(self):
        return (self.n1, self.n2)


def _raised(fn, *args, **kwargs):
    with pytest.raises(AnalysisError) as info:
        fn(*args, **kwargs)
    return info.value


def _zero_state(circuit) -> DcSolution:
    size = layout_for(circuit).size
    return DcSolution({}, {}, {}, np.zeros(size), 0, "newton", 0.0)


class TestErrors:
    def test_unsupported_element_raises_same_error(self):
        circuit = _rc()
        circuit.add(_Diode("d1", "out", "gnd"))
        initial = _zero_state(circuit)
        kwargs = dict(t_stop=1e-6, dt=1e-8, initial=initial)
        compiled = _raised(simulate_transient, circuit, **kwargs)
        oracle = _raised(simulate_transient_walk, circuit, **kwargs)
        assert type(compiled) is type(oracle)
        assert str(compiled) == str(oracle)
        assert "not supported in transient" in str(compiled)

    def test_unsupported_element_without_operating_point(self):
        # The walk's DC homotopies give up with a ConvergenceError; the
        # compiled DC assembler refuses the element up front.  Both are
        # AnalysisErrors, which is what the evaluator catches.
        circuit = _rc()
        circuit.add(_Diode("d1", "out", "gnd"))
        _raised(simulate_transient, circuit, t_stop=1e-6, dt=1e-8)
        _raised(simulate_transient_walk, circuit, t_stop=1e-6, dt=1e-8)

    def test_non_converging_step_raises_at_same_time(self):
        # A 200 V step needs 200 Newton iterations under the 1 V step
        # limit; the 60-iteration budget runs out on the first step after it.
        def make():
            b = CircuitBuilder("jump")
            b.v("in", "gnd", dc=0.0, waveform=lambda t: 200.0 if t > 3.5e-9 else 0.0)
            b.r("in", "out", 1e3)
            b.c("out", "gnd", 1e-12)
            return b.build()

        kwargs = dict(t_stop=10e-9, dt=1e-9)
        compiled = _raised(simulate_transient, make(), **kwargs)
        oracle = _raised(simulate_transient_walk, make(), **kwargs)
        assert type(compiled) is type(oracle) is ConvergenceError
        assert str(compiled) == str(oracle)
        assert "did not converge at t=4.000e-09s" in str(compiled)

    def test_singular_step_raises_same_error(self):
        # Two ideal sources in parallel: every Newton system is singular.
        b = CircuitBuilder("loop")
        b.v("a", "gnd", dc=1.0)
        b.v("a", "gnd", dc=1.0)
        b.c("a", "gnd", 1e-12)
        circuit = b.build(validate=False)
        kwargs = dict(t_stop=1e-9, dt=1e-10, initial=_zero_state(circuit))
        compiled = _raised(simulate_transient, circuit, **kwargs)
        oracle = _raised(simulate_transient_walk, circuit, **kwargs)
        assert type(compiled) is type(oracle) is ConvergenceError
        assert str(compiled) == str(oracle)
        assert "singular" in str(compiled)


class TestCounters:
    def test_per_call_counters(self):
        simulate_transient(_rc(), t_stop=1e-6, dt=1e-8)
        simulate_transient(_switched_rc(), t_stop=1e-7, dt=1e-9)
        counters = metrics.snapshot()["counters"]
        assert counters["transient.calls"] == 2
        assert counters["transient.steps"] == 100 + 100
        assert counters["transient.newton_iterations"] >= 200

    def test_failed_call_still_counts(self):
        b = CircuitBuilder("jump")
        b.v("in", "gnd", dc=0.0, waveform=lambda t: 200.0 if t > 3.5e-9 else 0.0)
        b.r("in", "out", 1e3)
        b.c("out", "gnd", 1e-12)
        with pytest.raises(ConvergenceError):
            simulate_transient(b.build(), t_stop=10e-9, dt=1e-9)
        counters = metrics.snapshot()["counters"]
        assert counters["transient.calls"] == 1
        assert counters["transient.steps"] == 3
        assert counters["transient.newton_iterations"] >= 60

    def test_telemetry_off_counts_nothing(self):
        metrics.set_mode("off")
        simulate_transient(_rc(), t_stop=1e-6, dt=1e-8)
        assert "transient.calls" not in metrics.snapshot()["counters"]
