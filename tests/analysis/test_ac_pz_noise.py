"""AC, pole/zero and noise analyses validated against closed forms."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import (
    ac_transfer,
    integrated_output_noise,
    linearize,
    poles,
    solve_dc,
    zeros,
)
from repro.analysis.ac import dc_gain, phase_margin_deg, unity_gain_frequency
from repro.analysis.pz import dominant_pole_hz
from repro.circuit.builder import CircuitBuilder
from repro.constants import KT_ROOM
from repro.tech import CMOS025


def rc_lowpass(r=1e3, c=1e-9):
    b = CircuitBuilder("rc")
    b.v("in", "gnd", dc=0.0, ac=1.0)
    b.r("in", "out", r)
    b.c("out", "gnd", c)
    return b.build()


class TestAc:
    def test_rc_lowpass_pole_magnitude(self):
        r, c = 1e3, 1e-9
        lin = linearize(rc_lowpass(r, c))
        fp = 1.0 / (2 * math.pi * r * c)
        h = ac_transfer(lin, "out", np.array([fp]))
        assert abs(h[0]) == pytest.approx(1 / math.sqrt(2), rel=1e-6)
        assert math.degrees(math.atan2(h[0].imag, h[0].real)) == pytest.approx(
            -45.0, abs=0.01
        )

    def test_rc_lowpass_dc_gain_unity(self):
        lin = linearize(rc_lowpass())
        assert dc_gain(lin, "out") == pytest.approx(1.0, rel=1e-9)

    def test_rc_highpass(self):
        b = CircuitBuilder("hp")
        b.v("in", "gnd", ac=1.0)
        b.c("in", "out", 1e-9)
        b.r("out", "gnd", 1e3)
        lin = linearize(b.build())
        fp = 1.0 / (2 * math.pi * 1e3 * 1e-9)
        h_low = ac_transfer(lin, "out", np.array([fp / 100]))
        h_high = ac_transfer(lin, "out", np.array([fp * 100]))
        assert abs(h_low[0]) < 0.02
        assert abs(h_high[0]) == pytest.approx(1.0, rel=1e-3)

    def test_common_source_gain_matches_gm_ro(self):
        b = CircuitBuilder("cs", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("bias", "gnd", dc=0.9, ac=1.0)
        b.nmos("out", "bias", "gnd", w=20e-6, l=0.5e-6)
        b.r("vdd", "out", 20e3)
        ckt = b.build()
        op = solve_dc(ckt)
        m = op.device_ops["m1"]
        lin = linearize(ckt, op)
        gain = dc_gain(lin, "out")
        expected = -m.gm * (1.0 / (m.gds + 1.0 / 20e3))
        assert gain == pytest.approx(expected, rel=1e-6)

    def test_unity_gain_frequency_of_integrator_stage(self):
        # gm stage into a cap: fu = gm/(2 pi C).
        b = CircuitBuilder("gmC")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "gnd", 1e6)
        b.vccs("gnd", "out", "in", "gnd", gm=1e-3)
        b.r("out", "gnd", 1e9)  # large finite DC gain
        b.c("out", "gnd", 1e-12)
        lin = linearize(b.build())
        fu = unity_gain_frequency(lin, "out")
        assert fu == pytest.approx(1e-3 / (2 * math.pi * 1e-12), rel=1e-3)

    def test_phase_margin_of_single_pole_stage_near_90(self):
        b = CircuitBuilder("gmC")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "gnd", 1e6)
        b.vccs("gnd", "out", "in", "gnd", gm=1e-3)
        b.r("out", "gnd", 1e9)
        b.c("out", "gnd", 1e-12)
        lin = linearize(b.build())
        pm = phase_margin_deg(lin, "out")
        assert pm == pytest.approx(90.0, abs=1.0)

    def test_differential_output(self):
        b = CircuitBuilder("diff")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "p", 1e3)
        b.r("p", "gnd", 1e3)
        b.r("in", "n", 2e3)
        b.r("n", "gnd", 2e3)
        lin = linearize(b.build())
        h = ac_transfer(lin, "p", np.array([1.0]), negative_net="n")
        assert abs(h[0]) == pytest.approx(0.0, abs=1e-12)


class TestPz:
    def test_rc_pole_location(self):
        r, c = 1e3, 1e-9
        lin = linearize(rc_lowpass(r, c))
        p = poles(lin)
        assert len(p) == 1
        assert p[0].real == pytest.approx(-1.0 / (r * c), rel=1e-9)

    def test_dominant_pole_hz(self):
        r, c = 1e3, 1e-9
        lin = linearize(rc_lowpass(r, c))
        assert dominant_pole_hz(lin) == pytest.approx(
            1.0 / (2 * math.pi * r * c), rel=1e-9
        )

    def test_rlc_resonance(self):
        b = CircuitBuilder("rlc")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "mid", 10.0)
        b.l("mid", "out", 1e-6)
        b.c("out", "gnd", 1e-9)
        lin = linearize(b.build())
        p = poles(lin)
        w0 = 1.0 / math.sqrt(1e-6 * 1e-9)
        assert len(p) == 2
        assert np.abs(p[0]) == pytest.approx(w0, rel=1e-6)

    def test_lead_network_zero(self):
        # R1 parallel C feeding R2: zero at 1/(R1 C).
        r1, r2, c = 10e3, 1e3, 1e-9
        b = CircuitBuilder("lead")
        b.v("in", "gnd", ac=1.0)
        b.r("in", "out", r1)
        b.c("in", "out", c)
        b.r("out", "gnd", r2)
        lin = linearize(b.build())
        z = zeros(lin, "out")
        assert len(z) == 1
        assert z[0].real == pytest.approx(-1.0 / (r1 * c), rel=1e-6)

    def test_cli_import_does_not_load_scipy(self):
        # The campaign flow never extracts poles or zeros; importing the
        # CLI must not pay scipy.linalg's import time.
        code = (
            "import sys, repro.cli; "
            "print('scipy.linalg' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.strip() == "False"

    def test_zeros_requires_excitation(self):
        b = CircuitBuilder("noac")
        b.v("in", "gnd", dc=1.0)
        b.r("in", "out", 1e3)
        b.r("out", "gnd", 1e3)
        lin = linearize(b.build())
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="AC excitation"):
            zeros(lin, "out")


class TestNoise:
    def test_rc_integrated_noise_is_kt_over_c(self):
        # The classic: total noise of an RC lowpass = sqrt(kT/C), independent of R.
        for r in (1e2, 1e4):
            c = 1e-12
            lin = linearize(rc_lowpass(r, c))
            vn = integrated_output_noise(lin, "out", f_min=1.0, f_max=1e14)
            assert vn == pytest.approx(math.sqrt(KT_ROOM / c), rel=0.02)

    def test_resistor_divider_noise_psd(self):
        # Two equal resistors: output sees R/2 thermal noise.
        b = CircuitBuilder("div")
        b.v("in", "gnd", dc=0.0)
        b.r("in", "out", 1e3)
        b.r("out", "gnd", 1e3)
        lin = linearize(b.build())
        from repro.analysis import output_noise_psd

        psd = output_noise_psd(lin, "out", np.array([1e3]))
        assert psd[0] == pytest.approx(4 * KT_ROOM * 500.0, rel=1e-6)

    def test_mosfet_noise_matches_analytic(self):
        b = CircuitBuilder("cs", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3)
        b.v("bias", "gnd", dc=0.9)
        b.nmos("out", "bias", "gnd", w=20e-6, l=0.5e-6)
        b.r("vdd", "out", 20e3)
        ckt = b.build()
        op = solve_dc(ckt)
        m = op.device_ops["m1"]
        lin = linearize(ckt, op)
        from repro.analysis import output_noise_psd
        from repro.tech.mosfet import flicker_noise_psd, thermal_noise_psd

        f = 10e6  # far above the 1/f corner, below output pole
        psd = output_noise_psd(lin, "out", np.array([f]))[0]
        zout = 1.0 / (m.gds + 1.0 / 20e3)
        i_psd = (
            thermal_noise_psd(CMOS025.nmos, m.gm)
            + flicker_noise_psd(CMOS025.nmos, 20e-6, 0.5e-6, m.gm, f)
            + 4 * KT_ROOM / 20e3
        )
        assert psd == pytest.approx(i_psd * zout**2, rel=0.02)
