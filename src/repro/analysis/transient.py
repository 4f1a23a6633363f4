"""Transient analysis: fixed-step trapezoidal / backward-Euler integration.

Each timestep solves the nonlinear circuit by Newton iteration with
companion models for the reactive elements.  Clocked switches and source
waveforms are evaluated at every step, which is what the switched-capacitor
MDAC settling simulations need.

MOSFET capacitances are frozen at their t=0 operating-point values
(quasi-static approximation); the nonlinear drain current is evaluated
exactly at every Newton iteration, so slewing — the large-swing effect the
paper singles out for simulation — is captured.

Each call compiles the circuit into a
:class:`~repro.analysis.template.TransientProgram`, the simulator's one
Newton-stamp walk with per-step slots and capacitor companions: the walk is
recorded once, and every Newton iteration is one scalar model call per
MOSFET, one vectorized residual program, two order-preserving scatters
and one solve.  The results equal the per-element walk kept in
``tests/oracles/transient.py`` bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.analysis.dc import DcSolution, newton_solve, solve_dc
from repro.analysis.mna import GROUND, layout_for
from repro.analysis.template import TransientProgram
from repro.circuit.elements import CurrentSource, VoltageSource
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError

_MAX_NEWTON = 60
_ABS_TOL = 1e-9
_VSTEP_LIMIT = 1.0


@dataclass
class TransientResult:
    """Waveforms from a transient simulation."""

    #: Time points [s].
    time: np.ndarray
    #: Node voltage waveforms by net name.
    waveforms: dict[str, np.ndarray]

    def voltage(self, net: str) -> np.ndarray:
        """Waveform of a net."""
        if net in ("0", "gnd", "GND"):
            return np.zeros_like(self.time)
        try:
            return self.waveforms[net]
        except KeyError:
            raise AnalysisError(f"net {net!r} was not recorded") from None

    def final_value(self, net: str) -> float:
        """Last sample of a net's waveform."""
        return float(self.voltage(net)[-1])

    def settling_time(
        self, net: str, target: float, tolerance: float, t_start: float = 0.0
    ) -> float | None:
        """First time after which the net stays within ``tolerance`` of target.

        Returns None if the waveform never settles within the simulated window.
        """
        v = self.voltage(net)
        inside = np.abs(v - target) <= tolerance
        valid = self.time >= t_start
        candidate = None
        for k in range(len(self.time)):
            if not valid[k]:
                continue
            if inside[k] and candidate is None:
                candidate = self.time[k]
            elif not inside[k]:
                candidate = None
        return None if candidate is None else float(candidate)


def _initial_dc(circuit: Circuit) -> DcSolution:
    """DC solution at t=0 with waveform sources frozen at their t=0 values.

    Switches conduct at ``resistance_at(0.0)``, their t=0 state.
    """
    frozen = Circuit(circuit.name + "_t0")
    for element in circuit:
        if isinstance(element, (VoltageSource, CurrentSource)) and element.waveform:
            frozen.add(dataclasses.replace(element, dc=element.value_at(0.0), waveform=None))
        else:
            frozen.add(element)
    return solve_dc(frozen)


def simulate_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    record: list[str] | None = None,
    method: str = "trap",
    initial: DcSolution | None = None,
) -> TransientResult:
    """Integrate the circuit from its DC state at t=0 to ``t_stop``.

    ``record`` limits which nets are stored (default: all non-ground nets).
    ``method`` is ``"trap"`` (trapezoidal, default) or ``"be"``
    (backward Euler, more damped but L-stable).
    """
    if t_stop <= 0 or dt <= 0 or dt > t_stop:
        raise AnalysisError("need 0 < dt <= t_stop")
    if method not in ("trap", "be"):
        raise AnalysisError(f"unknown method {method!r}")

    layout = layout_for(circuit)
    if initial is None:
        initial = _initial_dc(circuit)
    x = initial.x.copy()
    if len(x) != layout.size:
        raise AnalysisError("initial DC solution does not match circuit")
    program = TransientProgram(circuit, layout, initial.device_ops, dt, method)

    n_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    nets = record if record is not None else layout.nets
    indices = {net: layout.index(net) for net in nets}
    history = np.empty((n_steps + 1, layout.size))
    history[0] = x
    steps = 0
    try:
        for step in range(1, n_steps + 1):
            t = times[step]
            program.begin_step(t, x)
            x = _solve_step(program, x, t)
            program.end_step(x)
            history[step] = x
            steps = step
    finally:
        # Once per call, never per iteration: the telemetry budget.
        obs.counter("transient.calls")
        obs.counter("transient.steps", steps)
        obs.counter("transient.newton_iterations", program.assemblies)

    traces = {
        net: np.zeros(n_steps + 1) if idx == GROUND else history[:, idx].copy()
        for net, idx in indices.items()
    }
    return TransientResult(time=times, waveforms=traces)


def _solve_step(program: TransientProgram, x_prev: np.ndarray, t: float) -> np.ndarray:
    """Newton-solve one timestep; returns the new unknown vector."""
    x = x_prev.copy()
    n_nodes = program.n_nodes
    for _ in range(_MAX_NEWTON):
        jac, resid = program.assemble(x)
        residual_norm = float(np.abs(resid).max())
        if residual_norm < _ABS_TOL * max(1.0, float(np.abs(x).max())):
            return x
        try:
            dx = newton_solve(jac, -resid)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"transient Newton singular at t={t:.3e}s") from exc
        step = np.abs(dx[:n_nodes]).max() if n_nodes else 0.0
        if step > _VSTEP_LIMIT:
            dx *= _VSTEP_LIMIT / step
        x = x + dx

    raise ConvergenceError(f"transient Newton did not converge at t={t:.3e}s")
