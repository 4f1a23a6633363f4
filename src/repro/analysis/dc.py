"""DC operating-point solver: damped Newton with gmin and source stepping.

The solver assembles the nonlinear KCL residual ``f(x)`` and Jacobian
``J(x)`` through the circuit's compiled stamp program
(:class:`repro.analysis.template.DcProgram`) and iterates Newton with a
per-step voltage limit.  If plain Newton fails it falls back to gmin
stepping (a conductance to ground on every node, relaxed geometrically)
and then source stepping (ramping all independent sources from zero), the
standard SPICE homotopies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.mna import GROUND, MnaLayout
from repro.circuit.elements import Mosfet
from repro.circuit.netlist import Circuit
from repro.errors import ConvergenceError, SingularCircuitError
from repro.tech.mosfet import MosfetOperatingPoint, operating_point

try:  # the gufunc behind np.linalg.solve for 1-D right-hand sides
    from numpy.linalg import _umath_linalg as _ul

    _GUFUNC_SOLVE1 = _ul.solve1
except (ImportError, AttributeError):  # pragma: no cover - numpy variant
    _GUFUNC_SOLVE1 = None

#: Maximum Newton iterations per attempt.
_MAX_ITER = 120
#: Per-iteration node-voltage step limit [V].
_VSTEP_LIMIT = 0.4
#: Convergence tolerance on the KCL residual [A].
_ABS_TOL = 1e-10


@dataclass
class DcSolution:
    """Result of a DC operating-point analysis."""

    #: Node voltages by net name (ground included, 0 V).
    voltages: dict[str, float]
    #: Branch currents by element name (V sources, VCVS, inductors).
    branch_currents: dict[str, float]
    #: Small-signal operating points of every MOSFET, by element name.
    device_ops: dict[str, MosfetOperatingPoint]
    #: Raw unknown vector (for warm starts).
    x: np.ndarray
    #: Newton iterations used (total across homotopy steps).
    iterations: int
    #: Which strategy converged: 'newton', 'gmin', or 'source'.
    strategy: str
    #: Final residual infinity-norm [A].
    residual: float

    def voltage(self, net: str) -> float:
        """Node voltage of ``net``."""
        return self.voltages[net] if net not in ("0", "GND") else 0.0

    def supply_current(self, source_name: str) -> float:
        """Current delivered by a voltage source (positive out of + terminal)."""
        return -self.branch_currents[source_name]


def newton_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` minus its per-call wrapper overhead.

    The Newton loops solve thousands of small dense systems; numpy's
    public wrapper spends more time validating/coercing than LAPACK
    spends solving.  This calls the same underlying gufunc directly and
    falls back to ``np.linalg.solve`` whenever the fast result is not
    finite — which covers exact singularity (LAPACK info > 0 fills the
    result with NaNs instead of raising) by re-raising through the
    public path, and near-singular overflow by returning the public
    path's bit-identical inf/NaN result.  Either way the caller sees
    exactly what ``np.linalg.solve`` would have produced.
    """
    if _GUFUNC_SOLVE1 is None:
        return np.linalg.solve(jac, rhs)
    try:
        with np.errstate(all="ignore"):
            dx = _GUFUNC_SOLVE1(jac, rhs)
    except np.linalg.LinAlgError:
        dx = None
    if dx is None or not np.isfinite(dx).all():
        return np.linalg.solve(jac, rhs)
    return dx


def _newton(
    assembly,
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
    max_iter: int = _MAX_ITER,
) -> tuple[np.ndarray, int, float]:
    """Run damped Newton; returns (x, iterations, residual_norm)."""
    layout = assembly.layout
    x = x0.copy()
    n_nodes = len(layout.nets)
    residual_norm = np.inf
    for iteration in range(1, max_iter + 1):
        jac, resid = assembly.assemble(x, gmin, source_scale)
        residual_norm = float(np.max(np.abs(resid))) if len(resid) else 0.0
        if residual_norm < _ABS_TOL:
            return x, iteration, residual_norm
        try:
            dx = newton_solve(jac, -resid)
        except np.linalg.LinAlgError:
            jac = jac + np.eye(layout.size) * 1e-12
            try:
                dx = newton_solve(jac, -resid)
            except np.linalg.LinAlgError as exc:
                raise SingularCircuitError(
                    f"singular MNA matrix in circuit {layout.circuit.name!r} "
                    "(floating node or voltage-source loop?)"
                ) from exc
        # Limit node-voltage steps to keep the model in a sane region.
        step = np.max(np.abs(dx[:n_nodes])) if n_nodes else 0.0
        if step > _VSTEP_LIMIT:
            dx *= _VSTEP_LIMIT / step
        x = x + dx
    raise ConvergenceError(
        f"DC Newton did not converge (residual {residual_norm:.3e} A)"
    )


def solve_dc(
    circuit: Circuit,
    initial_guess: dict[str, float] | None = None,
    x0: np.ndarray | None = None,
    assembly=None,
) -> DcSolution:
    """Solve the DC operating point of ``circuit``.

    ``initial_guess`` optionally seeds node voltages by net name;
    ``x0`` (from a previous :class:`DcSolution`) wins over both and enables
    warm starts during optimization loops.  ``assembly`` is the Newton
    system builder — anything with a ``layout`` and an
    ``assemble(x, gmin, source_scale)`` method.  It defaults to the
    circuit's compiled :class:`~repro.analysis.template.DcProgram`; sizing
    loops pass the one their reused
    :class:`~repro.analysis.template.BoundMna` holds.
    """
    if assembly is None:
        # Imported here: the template module imports smallsignal, which
        # imports this one.
        from repro.analysis.template import template_for

        assembly = template_for(circuit).dc.bind(circuit)
    layout = assembly.layout
    start = np.zeros(layout.size)
    if x0 is not None:
        if len(x0) != layout.size:
            raise ConvergenceError("x0 has wrong size for this circuit")
        start = np.asarray(x0, dtype=float).copy()
    elif initial_guess:
        for net, value in initial_guess.items():
            idx = layout.index(net)
            if idx != GROUND:
                start[idx] = value

    iterations_total = 0
    # Strategy 1: plain Newton.
    try:
        x, iters, residual = _newton(assembly, start, gmin=0.0, source_scale=1.0)
        return _package(layout, x, iterations_total + iters, "newton", residual)
    except (ConvergenceError, SingularCircuitError):
        pass

    # Strategy 2: gmin stepping, finishing with a gmin-free polish.
    x = start.copy()
    try:
        for gmin in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12):
            x, iters, residual = _newton(assembly, x, gmin=gmin, source_scale=1.0)
            iterations_total += iters
        x, iters, residual = _newton(assembly, x, gmin=0.0, source_scale=1.0)
        iterations_total += iters
        return _package(layout, x, iterations_total, "gmin", residual)
    except (ConvergenceError, SingularCircuitError):
        pass

    # Strategy 3: source stepping (with mild gmin held during the ramp).
    x = np.zeros(layout.size)
    iterations_total = 0
    try:
        for alpha in (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0):
            x, iters, residual = _newton(assembly, x, gmin=1e-9, source_scale=alpha)
            iterations_total += iters
        x, iters, residual = _newton(assembly, x, gmin=0.0, source_scale=1.0)
        iterations_total += iters
        return _package(layout, x, iterations_total, "source", residual)
    except (ConvergenceError, SingularCircuitError) as exc:
        raise ConvergenceError(
            f"DC analysis of {circuit.name!r} failed after Newton, gmin and "
            f"source stepping: {exc}"
        ) from exc


def _package(
    layout: MnaLayout, x: np.ndarray, iterations: int, strategy: str, residual: float
) -> DcSolution:
    voltages = layout.voltages(x)
    voltages.setdefault("0", 0.0)
    branch_currents = {
        e.name: float(x[layout.branch(e.name)]) for e in layout.branch_elements
    }

    def v(net: str) -> float:
        return 0.0 if net in ("0", "gnd", "GND") else voltages[net]

    device_ops: dict[str, MosfetOperatingPoint] = {}
    for element in layout.circuit.elements_of(Mosfet):
        op = operating_point(
            element.params,
            element.w * element.mult,
            element.l,
            v(element.gate) - v(element.source),
            v(element.drain) - v(element.source),
            v(element.bulk) - v(element.source),
        )
        device_ops[element.name] = op
    return DcSolution(
        voltages=voltages,
        branch_currents=branch_currents,
        device_ops=device_ops,
        x=x,
        iterations=iterations,
        strategy=strategy,
        residual=residual,
    )
