"""The per-element DC stamp walk: one ``isinstance`` dispatch per stamp.

Every Newton iteration rebuilds the Jacobian and residual element by
element with scalar ``+=`` stamps.  :class:`repro.analysis.template.DcProgram`
replays the same emission order as a compiled stamp program and must match
this walk byte for byte.  A test solves on the walk by passing
:class:`DcWalk` through :func:`repro.analysis.dc.solve_dc`'s ``assembly=``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.mna import (
    GROUND,
    MnaLayout,
    layout_for,
    stamp_conductance,
    stamp_transconductance,
    stamp_vcvs,
    stamp_voltage_source,
)
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Mosfet,
    Resistor,
    Switch,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.errors import SingularCircuitError
from repro.tech.mosfet import dc_current


class DcWalk:
    """The walk as a ``solve_dc`` assembly: ``solve_dc(c, assembly=DcWalk(c))``."""

    def __init__(self, circuit: Circuit):
        self.layout = layout_for(circuit)

    def assemble(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> tuple[np.ndarray, np.ndarray]:
        return assemble_walk(self.layout, x, gmin, source_scale)


def assemble_walk(
    layout: MnaLayout, x: np.ndarray, gmin: float, source_scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Build the DC Newton system element by element: (jacobian, residual)."""
    n = layout.size
    jac = np.zeros((n, n))
    resid = np.zeros(n)

    def v(idx: int) -> float:
        return 0.0 if idx == GROUND else x[idx]

    for element in layout.circuit:
        if isinstance(element, Resistor):
            i, j = layout.index(element.n1), layout.index(element.n2)
            g = 1.0 / element.resistance
            stamp_conductance(jac, i, j, g)
            current = g * (v(i) - v(j))
            if i != GROUND:
                resid[i] += current
            if j != GROUND:
                resid[j] -= current
        elif isinstance(element, Switch):
            i, j = layout.index(element.n1), layout.index(element.n2)
            g = 1.0 / element.resistance_at(0.0)
            stamp_conductance(jac, i, j, g)
            current = g * (v(i) - v(j))
            if i != GROUND:
                resid[i] += current
            if j != GROUND:
                resid[j] -= current
        elif isinstance(element, Capacitor):
            continue  # open in DC
        elif isinstance(element, CurrentSource):
            p, ncur = layout.index(element.positive), layout.index(element.negative)
            value = element.dc * source_scale
            if p != GROUND:
                resid[p] += value
            if ncur != GROUND:
                resid[ncur] -= value
        elif isinstance(element, VoltageSource):
            p, nn = layout.index(element.positive), layout.index(element.negative)
            k = layout.branch(element.name)
            stamp_voltage_source(jac, np.zeros(n), p, nn, k, 0.0)
            ik = x[k]
            if p != GROUND:
                resid[p] += ik
            if nn != GROUND:
                resid[nn] -= ik
            resid[k] += v(p) - v(nn) - element.dc * source_scale
        elif isinstance(element, Vcvs):
            op_, on_ = layout.index(element.out_positive), layout.index(element.out_negative)
            cp, cn = layout.index(element.ctrl_positive), layout.index(element.ctrl_negative)
            k = layout.branch(element.name)
            stamp_vcvs(jac, op_, on_, cp, cn, k, element.gain)
            ik = x[k]
            if op_ != GROUND:
                resid[op_] += ik
            if on_ != GROUND:
                resid[on_] -= ik
            resid[k] += v(op_) - v(on_) - element.gain * (v(cp) - v(cn))
        elif isinstance(element, Vccs):
            op_, on_ = layout.index(element.out_positive), layout.index(element.out_negative)
            cp, cn = layout.index(element.ctrl_positive), layout.index(element.ctrl_negative)
            stamp_transconductance(jac, op_, on_, cp, cn, element.gm)
            current = element.gm * (v(cp) - v(cn))
            if op_ != GROUND:
                resid[op_] += current
            if on_ != GROUND:
                resid[on_] -= current
        elif isinstance(element, Inductor):
            p, nn = layout.index(element.n1), layout.index(element.n2)
            k = layout.branch(element.name)
            # DC: behaves as a 0 V source (short).
            stamp_voltage_source(jac, np.zeros(n), p, nn, k, 0.0)
            ik = x[k]
            if p != GROUND:
                resid[p] += ik
            if nn != GROUND:
                resid[nn] -= ik
            resid[k] += v(p) - v(nn)
        elif isinstance(element, Mosfet):
            d = layout.index(element.drain)
            g_ = layout.index(element.gate)
            s = layout.index(element.source)
            b = layout.index(element.bulk)
            vgs = v(g_) - v(s)
            vds = v(d) - v(s)
            vbs = v(b) - v(s)
            ids, gm, gds, gmb = dc_current(
                element.params, element.w, element.l, vgs, vds, vbs
            )
            ids *= element.mult
            gm *= element.mult
            gds *= element.mult
            gmb *= element.mult
            if d != GROUND:
                resid[d] += ids
            if s != GROUND:
                resid[s] -= ids
            # Jacobian: dIds/d(vg, vd, vb, vs).
            for row, sign in ((d, +1.0), (s, -1.0)):
                if row == GROUND:
                    continue
                if g_ != GROUND:
                    jac[row, g_] += sign * gm
                if d != GROUND:
                    jac[row, d] += sign * gds
                if b != GROUND:
                    jac[row, b] += sign * gmb
                if s != GROUND:
                    jac[row, s] -= sign * (gm + gds + gmb)
        else:
            raise SingularCircuitError(
                f"element type {type(element).__name__} not supported in DC"
            )

    if gmin > 0.0:
        for i in range(len(layout.nets)):
            jac[i, i] += gmin
            resid[i] += gmin * x[i]
    return jac, resid
