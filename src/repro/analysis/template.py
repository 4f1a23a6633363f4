"""Compiled MNA evaluation kernels: stamp walks recorded once as programs.

The simulator's Newton solves (the DC operating point and every transient
timestep) and its small-signal linearization would otherwise walk the
netlist element by element inside every iteration, dispatching on
``isinstance`` and issuing one scalar ``+=`` per matrix stamp.  This module
records each walk once as a flat program:

* :class:`NewtonProgram` is the one Newton-stamp walk.  Every Jacobian
  ``+=`` becomes a COO entry ``(row, col, slot)`` and every residual ``+=``
  an entry ``coef*(xe[a] - xe[b]) + offset`` whose coefficient and offset
  are slots of one flat value buffer; ``xe`` is the unknown vector extended
  by a ground slot of 0.0.  Two order-preserving ``np.bincount`` scatters
  rebuild the system.  :class:`DcProgram` records the walk with capacitors
  open, inductors shorted, switches at ``resistance_at(0.0)``, source
  offsets scaled by the homotopy's ``source_scale`` and gmin entries
  appended last.  :class:`TransientProgram` records it with per-timestep
  slots and the capacitor companions appended.
* :class:`MnaTemplate` (cached per :meth:`repro.circuit.netlist.Circuit.topology_key`)
  holds a topology's :class:`DcProgram` and its small-signal program, the
  recorded :func:`~repro.analysis.smallsignal.linearize` walk.
  :meth:`MnaTemplate.bind` fills the value slots from a concrete circuit,
  producing a :class:`BoundMna` with buffers of its own, so concurrently
  bound instances (thread backend) never share mutable state.

**Bit-identity contract.**  The programs reproduce the per-element walks'
floating-point results *bit for bit*: entries are listed in the walks'
emission order, ``np.bincount`` and ``np.add.at`` add in input order, a
negated stamp reads a slot holding the negated value (``-= v`` and
``+= -v`` agree exactly), and the MOSFET compact model is evaluated by the
very same :func:`repro.tech.mosfet.dc_current` calls.  The walks are test
oracles (``tests/oracles/dc.py``, ``tests/oracles/transient.py``); the
small-signal walk stays in :mod:`repro.analysis.smallsignal` because it is
the only path that carries noise sources.

Limitations: :meth:`BoundMna.linearize` does not carry noise sources, and
binding requires an exact topology-key match.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.analysis.mna import GROUND, MnaLayout, layout_for
from repro.analysis.smallsignal import LinearizedCircuit
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
from repro.errors import AnalysisError
from repro.obs.metrics import REGISTRY, CounterView
from repro.tech.mosfet import dc_current

#: MOSFET small-signal conductance slot kinds (rows of ``kindvals``).
_KIND_GM, _KIND_GDS, _KIND_GMB = 0, 1, 2

#: MOSFET small-signal capacitance slot kinds, in compact-model order.
_CAP_KINDS = ("cgs", "cgd", "cgb", "cdb", "csb")

# ---------------------------------------------------------------------------
# Element-value opcodes.
#
# A slot that holds an element value reduces to "extract one element
# attribute, optionally negated".  Recording it as (opcode, name, negate)
# data lets one recorded program serve every same-topology circuit: binding
# re-reads the values.  Negation (not a sign multiply) reproduces the walks'
# ``-value`` expressions bit for bit.
# ---------------------------------------------------------------------------

_OP_ONE = 0  # 1.0 (branch-row unit stamps)
_OP_RES_INV = 1  # 1 / resistance
_OP_SW_INV = 2  # 1 / resistance_at(0.0)
_OP_CAP = 3  # capacitance
_OP_IND = 4  # inductance
_OP_GAIN = 5  # VCVS gain
_OP_GM = 6  # VCCS transconductance
_OP_DC = 7  # independent-source DC value


def _slot_value(circuit: Circuit, op: int, name: str | None) -> float:
    """Evaluate one element-value opcode against a concrete circuit."""
    if op == _OP_ONE:
        return 1.0
    if op == _OP_RES_INV:
        return 1.0 / circuit[name].resistance
    if op == _OP_SW_INV:
        return 1.0 / circuit[name].resistance_at(0.0)
    if op == _OP_CAP:
        return circuit[name].capacitance
    if op == _OP_IND:
        return circuit[name].inductance
    if op == _OP_GAIN:
        return circuit[name].gain
    if op == _OP_GM:
        return circuit[name].gm
    if op == _OP_DC:
        return circuit[name].dc
    raise AnalysisError(f"unknown template slot opcode {op}")  # pragma: no cover


def _eval_slots(
    circuit: Circuit, slots: tuple[tuple[int, str | None, bool], ...]
) -> list[float]:
    """Evaluate a slot table; ``negate`` replays the walks' ``-value``."""
    out = []
    for op, name, negate in slots:
        value = _slot_value(circuit, op, name)
        out.append(-value if negate else value)
    return out


class _Coo:
    """Ordered COO recorder: one entry per scalar ``+=`` of a walk.

    ``pos`` of an appended entry is its index in the final value buffer;
    callers remember positions of non-constant slots so they can be
    refreshed each iteration.
    """

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        #: Constant-slot positions and their (opcode, name, negate) slots.
        self.const_pos: list[int] = []
        self.const_slots: list[tuple[int, str | None, bool]] = []

    def append(self, row: int, col: int) -> int:
        self.rows.append(row)
        self.cols.append(col)
        return len(self.rows) - 1

    def append_const(
        self, row: int, col: int, op: int, name: str | None = None,
        negate: bool = False,
    ) -> None:
        pos = self.append(row, col)
        self.const_pos.append(pos)
        self.const_slots.append((op, name, negate))


# ---------------------------------------------------------------------------
# The Newton program.
# ---------------------------------------------------------------------------

#: Per-device MOSFET value block of a :class:`NewtonProgram`: every signed
#: quantity the walk stamps, so the scatters only gather.
_MOS_IDS, _MOS_NIDS, _MOS_GM, _MOS_GDS, _MOS_GMB, _MOS_NGSUM = range(6)
_MOS_NGM, _MOS_NGDS, _MOS_NGMB, _MOS_GSUM = range(6, 10)
_MOS_BLOCK = 10


class _Recorder:
    """Ordered recorder of one Newton-stamp walk (see :class:`NewtonProgram`).

    Row and column arguments are layout indices; :data:`GROUND` operands
    of a residual entry read the extended vector's ground slot.
    """

    def __init__(self, layout: MnaLayout, mosfets: list[Mosfet]):
        self.gnd = layout.size
        self.mosfets = mosfets
        self.values: list[float] = [0.0] * (_MOS_BLOCK * len(mosfets))
        #: (slot, opcode, element name, negate): element values read at bind.
        self.consts: list[tuple[int, int, str | None, bool]] = []
        #: Per-solve refreshes by element name: (name, +value slot,
        #: -value slot) for sources and switches, and inductor histories.
        self.sources: list[tuple[str, int, int]] = []
        self.switches: list[tuple[str, int, int]] = []
        self.inductors: list[tuple[int, int, int, float, int]] = []
        #: Transient capacitor companions (i, j, c), in walk order.
        self.caps: list[tuple[int, int, float]] = []
        self.j_rows: list[int] = []
        self.j_cols: list[int] = []
        self.j_src: list[int] = []
        self.r_rows: list[int] = []
        self.r_coef: list[int] = []
        self.r_a: list[int] = []
        self.r_b: list[int] = []
        self.r_off: list[int] = []
        self.zero, self.one, self.neg_one = self.slot(0.0), self.slot(1.0), self.slot(-1.0)

    def xi(self, idx: int) -> int:
        return self.gnd if idx == GROUND else idx

    def slot(self, value: float = 0.0) -> int:
        self.values.append(value)
        return len(self.values) - 1

    def signed(self, value: float = 0.0) -> tuple[int, int]:
        return self.slot(value), self.slot(-value)

    def element_value(self, op: int, name: str) -> tuple[int, int]:
        """Slots of ``+v`` and ``-v`` for one element value, filled at bind."""
        pos, neg = self.signed()
        self.consts += ((pos, op, name, False), (neg, op, name, True))
        return pos, neg

    def jac(self, row: int, col: int, src: int) -> None:
        self.j_rows.append(row)
        self.j_cols.append(col)
        self.j_src.append(src)

    def res(self, row: int, coef: int, a: int, b: int, off: int) -> None:
        self.r_rows.append(row)
        self.r_coef.append(coef)
        self.r_a.append(self.xi(a))
        self.r_b.append(self.xi(b))
        self.r_off.append(off)

    def conductance(self, i: int, j: int, pos: int, neg: int) -> None:
        """Replay :func:`repro.analysis.mna.stamp_conductance`."""
        if i != GROUND:
            self.jac(i, i, pos)
        if j != GROUND:
            self.jac(j, j, pos)
        if i != GROUND and j != GROUND:
            self.jac(i, j, neg)
            self.jac(j, i, neg)

    def pair_current(
        self, i: int, j: int, a: int, b: int, pos: int, neg: int,
        off_pos: int | None = None, off_neg: int | None = None,
    ) -> None:
        """cur = g*(x[a]-x[b]) + off; resid[i] += cur; resid[j] -= cur."""
        if i != GROUND:
            self.res(i, pos, a, b, self.zero if off_pos is None else off_pos)
        if j != GROUND:
            self.res(j, neg, a, b, self.zero if off_neg is None else off_neg)

    def branch(self, p: int, nn: int, k: int) -> None:
        """Unit cross terms and branch-current residuals of a branch."""
        if p != GROUND:
            self.jac(p, k, self.one)
            self.jac(k, p, self.one)
            self.res(p, self.one, k, GROUND, self.zero)
        if nn != GROUND:
            self.jac(nn, k, self.neg_one)
            self.jac(k, nn, self.neg_one)
            self.res(nn, self.neg_one, k, GROUND, self.zero)


def _record_walk(
    circuit: Circuit,
    layout: MnaLayout,
    dt: float | None = None,
    method: str = "trap",
    device_ops: dict | None = None,
) -> _Recorder:
    """Record the Newton-stamp walk: DC rules when ``dt`` is None.

    In DC, capacitors are open, inductors are shorts, switches conduct at
    ``resistance_at(0.0)`` and every source value is refreshed per
    ``source_scale``.  In a transient step, switches and waveform sources
    refresh per timestep, inductors stamp their companion branch, and the
    explicit capacitors and nonzero ``device_ops`` capacitances are
    collected in ``rec.caps`` for the companions that follow the walk.
    """
    dc = dt is None
    rec = _Recorder(layout, [e for e in circuit if isinstance(e, Mosfet)])
    dev_of = {e.name: dev for dev, e in enumerate(rec.mosfets)}
    index, zero, one = layout.index, rec.zero, rec.one

    def source_slots(element) -> tuple[int, int]:
        if not dc and element.waveform is None:
            return rec.element_value(_OP_DC, element.name)
        slots = rec.signed()
        rec.sources.append((element.name,) + slots)
        return slots

    for element in circuit:
        name = element.name
        if isinstance(element, (Resistor, Switch)):
            i, j = index(element.n1), index(element.n2)
            if isinstance(element, Resistor):
                pos, neg = rec.element_value(_OP_RES_INV, name)
            elif dc:
                pos, neg = rec.element_value(_OP_SW_INV, name)
            else:
                pos, neg = rec.signed()
                rec.switches.append((name, pos, neg))
            rec.conductance(i, j, pos, neg)
            rec.pair_current(i, j, i, j, pos, neg)
        elif isinstance(element, Capacitor):
            if not dc:
                n1, n2 = index(element.n1), index(element.n2)
                rec.caps.append((n1, n2, element.capacitance))
        elif isinstance(element, CurrentSource):
            p, nn = index(element.positive), index(element.negative)
            pos, neg = source_slots(element)
            if p != GROUND:
                rec.res(p, zero, GROUND, GROUND, pos)
            if nn != GROUND:
                rec.res(nn, zero, GROUND, GROUND, neg)
        elif isinstance(element, VoltageSource):
            p, nn = index(element.positive), index(element.negative)
            k = layout.branch(name)
            rec.branch(p, nn, k)
            # resid[k] += (v_p - v_n) - value, read as 1*(v_p-v_n) + -value.
            rec.res(k, one, p, nn, source_slots(element)[1])
        elif isinstance(element, Vcvs):
            op_ = index(element.out_positive)
            on_ = index(element.out_negative)
            cp = index(element.ctrl_positive)
            cn = index(element.ctrl_negative)
            k = layout.branch(name)
            gain, neg_gain = rec.element_value(_OP_GAIN, name)
            if op_ != GROUND:
                rec.jac(op_, k, one)
                rec.jac(k, op_, one)
            if on_ != GROUND:
                rec.jac(on_, k, rec.neg_one)
                rec.jac(k, on_, rec.neg_one)
            if cp != GROUND:
                rec.jac(k, cp, neg_gain)
            if cn != GROUND:
                rec.jac(k, cn, gain)
            if op_ != GROUND:
                rec.res(op_, one, k, GROUND, zero)
            if on_ != GROUND:
                rec.res(on_, rec.neg_one, k, GROUND, zero)
            # Branch row k holds nothing else, so the walk's single
            # (v_op - v_on) - gain*(v_cp - v_cn) splits exactly in two.
            rec.res(k, one, op_, on_, zero)
            rec.res(k, neg_gain, cp, cn, zero)
        elif isinstance(element, Vccs):
            op_ = index(element.out_positive)
            on_ = index(element.out_negative)
            cp = index(element.ctrl_positive)
            cn = index(element.ctrl_negative)
            gm, neg_gm = rec.element_value(_OP_GM, name)
            for row, pos, neg in ((op_, gm, neg_gm), (on_, neg_gm, gm)):
                if row == GROUND:
                    continue
                if cp != GROUND:
                    rec.jac(row, cp, pos)
                if cn != GROUND:
                    rec.jac(row, cn, neg)
            rec.pair_current(op_, on_, cp, cn, gm, neg_gm)
        elif isinstance(element, Inductor):
            p, nn = index(element.n1), index(element.n2)
            k = layout.branch(name)
            rec.branch(p, nn, k)
            if dc:  # a 0 V source: resid[k] += v_p - v_n
                rec.res(k, one, p, nn, zero)
                continue
            if method == "trap":
                r_eq = 2.0 * element.inductance / dt
            else:
                r_eq = element.inductance / dt
            neg_r_eq = rec.slot(-r_eq)
            rec.jac(k, k, neg_r_eq)
            # resid[k] += (v_p - v_n) - r_eq*i + rhs, term by term.
            rhs = rec.slot()
            rec.res(k, one, p, nn, zero)
            rec.res(k, neg_r_eq, k, GROUND, zero)
            rec.res(k, zero, GROUND, GROUND, rhs)
            rec.inductors.append((rec.xi(p), rec.xi(nn), k, r_eq, rhs))
        elif isinstance(element, Mosfet):
            base = _MOS_BLOCK * dev_of[name]
            d, g_ = index(element.drain), index(element.gate)
            s, b = index(element.source), index(element.bulk)
            if d != GROUND:
                rec.res(d, zero, GROUND, GROUND, base + _MOS_IDS)
            if s != GROUND:
                rec.res(s, zero, GROUND, GROUND, base + _MOS_NIDS)
            for row, kinds in (
                (d, (_MOS_GM, _MOS_GDS, _MOS_GMB, _MOS_NGSUM)),
                (s, (_MOS_NGM, _MOS_NGDS, _MOS_NGMB, _MOS_GSUM)),
            ):
                if row == GROUND:
                    continue
                for col, kind in zip((g_, d, b, s), kinds):
                    if col != GROUND:
                        rec.jac(row, col, base + kind)
            if not dc:  # device capacitances at the t=0 operating point
                op = device_ops[name]
                for i, j, c in (
                    (g_, s, op.cgs),
                    (g_, d, op.cgd),
                    (g_, b, op.cgb),
                    (d, b, op.cdb),
                    (s, b, op.csb),
                ):
                    if c > 0.0:
                        rec.caps.append((i, j, c))
        else:
            raise AnalysisError(
                f"element type {type(element).__name__} not supported in "
                + ("DC" if dc else "transient")
            )
    return rec


class NewtonProgram:
    """A recorded Newton-stamp walk: one slot buffer, two scatters.

    The Jacobian is ``np.bincount`` over COO entries ``(row, col, slot)``
    and the residual ``np.bincount`` over entries
    ``coef*(xe[a] - xe[b]) + offset``, both in the walk's emission order.
    The first :data:`_MOS_BLOCK` slots per MOSFET hold its signed
    ``ids/gm/gds/gmb``, refreshed every Newton iteration by one scalar
    :func:`dc_current` call per device.  Subclasses decide what the walk
    appends and which slots refresh per solve.
    """

    def __init__(self, rec: _Recorder, layout: MnaLayout):
        n = layout.size
        self.size = n
        self.n_nodes = len(layout.nets)
        intp = np.intp
        self._values0 = np.array(rec.values, dtype=float)
        const_pos = [pos for pos, _, _, _ in rec.consts]
        self._const_pos = np.asarray(const_pos, dtype=intp)
        self._const_slots = tuple((op, nm, neg) for _, op, nm, neg in rec.consts)
        self._source_slots = tuple(rec.sources)
        self._switch_slots = tuple(rec.switches)
        self._mos_slots = tuple(
            (e.name, tuple(rec.xi(layout.index(net))
                           for net in (e.drain, e.gate, e.source, e.bulk)))
            for e in rec.mosfets
        )
        self._n_mos_slots = _MOS_BLOCK * len(rec.mosfets)
        self._entries = (
            np.asarray(rec.j_rows, dtype=intp) * n + np.asarray(rec.j_cols, dtype=intp),
            np.asarray(rec.j_src, dtype=intp),
            np.asarray(rec.r_rows, dtype=intp),
            np.asarray(rec.r_coef, dtype=intp),
            np.asarray(rec.r_a, dtype=intp),
            np.asarray(rec.r_b, dtype=intp),
            np.asarray(rec.r_off, dtype=intp),
        )

    def _load(self, circuit: Circuit) -> None:
        """Give this program its own buffers, filled from ``circuit``."""
        values = self._values0.copy()
        if len(self._const_pos):
            values[self._const_pos] = _eval_slots(circuit, self._const_slots)
        self._values = values
        self._xe = np.zeros(self.size + 1)
        self._sources = [(circuit[nm], pos, neg) for nm, pos, neg in self._source_slots]
        self._switches = [(circuit[nm], pos, neg) for nm, pos, neg in self._switch_slots]
        #: (params, w, l, mult, d, g, s, b) per device — flat tuples so the
        #: per-iteration model loop avoids attribute chains.
        self._mos_args = []
        for nm, xe in self._mos_slots:
            e = circuit[nm]
            self._mos_args.append((e.params, e.w, e.l, e.mult) + xe)

    def _system(self, x: np.ndarray, entries) -> tuple[np.ndarray, np.ndarray]:
        """The Newton system at ``x`` over ``entries``: (jacobian, residual)."""
        j_flat, j_src, r_rows, r_coef, r_a, r_b, r_off = entries
        n = self.size
        xe = self._xe
        xe[:n] = x
        values = self._values
        if self._mos_args:
            xl = xe.tolist()
            block: list[float] = []
            for params, w, l, mult, d, g_, s, b in self._mos_args:
                xs = xl[s]
                ids, gm, gds, gmb = dc_current(
                    params, w, l, xl[g_] - xs, xl[d] - xs, xl[b] - xs
                )
                ids *= mult
                gm *= mult
                gds *= mult
                gmb *= mult
                gsum = gm + gds + gmb
                block += (ids, -ids, gm, gds, gmb, -gsum, -gm, -gds, -gmb, gsum)
            values[: self._n_mos_slots] = block
        jac = np.bincount(j_flat, values[j_src], minlength=n * n).reshape(n, n)
        currents = values[r_coef] * (xe[r_a] - xe[r_b]) + values[r_off]
        resid = np.bincount(r_rows, currents, minlength=n)
        return jac, resid


class DcProgram(NewtonProgram):
    """The DC Newton program of one topology (cached on its :class:`MnaTemplate`).

    The walk's entries are followed by the gmin entries — ``gmin`` on every
    node diagonal, then ``gmin*x[i]`` on every node residual — which
    :meth:`assemble` leaves out while ``gmin`` is 0.
    """

    def __init__(self, circuit: Circuit, layout: MnaLayout):
        rec = _record_walk(circuit, layout)
        n_jac, n_res = len(rec.j_rows), len(rec.r_rows)
        gmin = rec.slot()
        nodes = range(len(layout.nets))
        for i in nodes:
            rec.jac(i, i, gmin)
        for i in nodes:
            rec.res(i, gmin, i, GROUND, rec.zero)
        super().__init__(rec, layout)
        self._gmin = gmin
        j_flat, j_src, r_rows, r_coef, r_a, r_b, r_off = self._entries
        #: The entries without the gmin tail.
        self._walk = (j_flat[:n_jac], j_src[:n_jac], r_rows[:n_res],
                      r_coef[:n_res], r_a[:n_res], r_b[:n_res], r_off[:n_res])
        self.layout = layout

    def bind(self, circuit: Circuit) -> "DcProgram":
        """A copy with its own buffers, filled from same-topology ``circuit``.

        The copy is a :func:`~repro.analysis.dc.solve_dc` assembly.
        """
        bound = copy.copy(self)
        bound.layout = self.layout.with_circuit(circuit)
        bound._load(circuit)
        bound._scale = None
        return bound

    def assemble(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The DC Newton system at ``x``: (jacobian, residual)."""
        values = self._values
        if source_scale != self._scale:
            for element, pos, neg in self._sources:
                value = element.dc * source_scale
                values[pos] = value
                values[neg] = -value
            self._scale = source_scale
        if gmin > 0.0:
            values[self._gmin] = gmin
            return self._system(x, self._entries)
        return self._system(x, self._walk)


class TransientProgram(NewtonProgram):
    """The transient Newton step of one circuit, compiled for one call.

    The walk's value slots refresh at three rates:

    * **constant** — resistor conductances, unit branch stamps, VCVS/VCCS
      gains, inductor ``r_eq`` and companion conductances ``2c/dt`` or
      ``c/dt``;
    * **per timestep** (:meth:`begin_step`) — switch conductances,
      waveform source values, companion history currents ``i_eq`` and
      inductor history terms;
    * **per Newton iteration** (:meth:`assemble`) — MOSFET
      ``ids/gm/gds/gmb``.

    The capacitor companions of the explicit capacitors and the nonzero
    t=0 device capacitances follow the walk.  That list depends on which
    device capacitances are positive, so the structure is not a function
    of the topology key alone; a build costs well under a millisecond, and
    the program is built per call rather than cached.  The waveforms equal
    ``tests/oracles/transient.py`` bit for bit.
    """

    def __init__(
        self,
        circuit: Circuit,
        layout: MnaLayout,
        device_ops: dict,
        dt: float,
        method: str,
    ):
        rec = _record_walk(circuit, layout, dt, method, device_ops)
        self.method = method
        caps = rec.caps
        cap_g = [2.0 * c / dt if method == "trap" else c / dt for _, _, c in caps]
        cap_ieq: list[int] = []
        cap_neg_ieq: list[int] = []
        for (i, j, _), g_eq in zip(caps, cap_g):
            pos, neg = rec.signed(g_eq)
            ieq, neg_ieq = rec.signed()
            cap_ieq.append(ieq)
            cap_neg_ieq.append(neg_ieq)
            rec.conductance(i, j, pos, neg)
            rec.pair_current(i, j, i, j, pos, neg, ieq, neg_ieq)

        super().__init__(rec, layout)
        intp = np.intp
        self._inductors = rec.inductors
        self._cap_a = np.asarray([rec.xi(i) for i, _, _ in caps], dtype=intp)
        self._cap_b = np.asarray([rec.xi(j) for _, j, _ in caps], dtype=intp)
        self._cap_g = np.asarray(cap_g, dtype=float)
        self._cap_neg_g = -self._cap_g
        self._cap_ieq = np.asarray(cap_ieq, dtype=intp)
        self._cap_neg_ieq = np.asarray(cap_neg_ieq, dtype=intp)
        #: Companion history: current through each cap at the last step.
        self._cap_current = np.zeros(len(caps))
        self._dv_old = np.zeros(len(caps))
        #: Previous-step voltage across each inductor (trapezoidal history).
        self._ind_prev_v = [0.0] * len(self._inductors)
        #: Newton systems assembled so far (the per-call iteration count).
        self.assemblies = 0
        self._load(circuit)

    def begin_step(self, t: float, x_prev: np.ndarray) -> None:
        """Refresh the per-timestep slots for the step ending at ``t``."""
        values = self._values
        for element, pos, neg in self._switches:
            g = 1.0 / element.resistance_at(t)
            values[pos] = g
            values[neg] = -g
        for element, pos, neg in self._sources:
            value = element.value_at(t)
            values[pos] = value
            values[neg] = -value
        for k_ind, (_, _, k, r_eq, rhs) in enumerate(self._inductors):
            i_prev = x_prev[k]
            if self.method == "trap":
                values[rhs] = r_eq * i_prev + self._ind_prev_v[k_ind]
            else:
                values[rhs] = r_eq * i_prev
        xe = self._xe
        xe[: self.size] = x_prev
        dv_old = xe[self._cap_a] - xe[self._cap_b]
        i_eq = self._cap_neg_g * dv_old
        if self.method == "trap":
            i_eq = i_eq - self._cap_current
        values[self._cap_ieq] = i_eq
        values[self._cap_neg_ieq] = -i_eq
        self._dv_old = dv_old

    def end_step(self, x: np.ndarray) -> None:
        """Advance the companion histories to the accepted solution ``x``."""
        xe = self._xe
        xe[: self.size] = x
        dv_new = xe[self._cap_a] - xe[self._cap_b]
        current = self._cap_g * (dv_new - self._dv_old)
        if self.method == "trap":
            current = current - self._cap_current
        self._cap_current = current
        for k_ind, (p, nn, _, _, _) in enumerate(self._inductors):
            self._ind_prev_v[k_ind] = float(xe[p]) - float(xe[nn])

    def assemble(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Newton system at ``x``: (jacobian, residual)."""
        self.assemblies += 1
        return self._system(x, self._entries)


# ---------------------------------------------------------------------------
# Per-topology templates: the DC and small-signal programs.
# ---------------------------------------------------------------------------


class MnaTemplate:
    """Compiled stamp programs for one circuit topology.

    Build via :func:`template_for` (cached) or directly from a prototype
    circuit; call :meth:`bind` with any same-topology circuit to obtain a
    value-carrying :class:`BoundMna`.
    """

    def __init__(self, circuit: Circuit):
        self.key = circuit.topology_key()
        self.layout = layout_for(circuit)
        self.size = self.layout.size
        self.mos_names = tuple(e.name for e in circuit if isinstance(e, Mosfet))
        self.dc = DcProgram(circuit, self.layout)
        self._compile_linear(circuit)

    # -- small-signal program --------------------------------------------

    def _compile_linear(self, circuit: Circuit) -> None:
        """Record the :func:`~repro.analysis.smallsignal.linearize` walk."""
        layout = self.layout
        g = _Coo()
        c = _Coo()
        g_mos_pos: list[int] = []
        g_mos_dev: list[int] = []
        g_mos_kind: list[int] = []  # _KIND_GM / _KIND_GDS / _KIND_GMB
        g_mos_sign: list[float] = []
        c_mos_pos: list[int] = []
        c_mos_dev: list[int] = []
        c_mos_kind: list[int] = []  # index into _CAP_KINDS
        c_mos_sign: list[float] = []
        #: (branch-or-node index, sign, element name, 'branch'|'node') for b_ac.
        b_ac_slots: list[tuple[int, float, str]] = []

        def emit_sym(coo: _Coo, i: int, j: int, op: int, name: str) -> None:
            """Symmetric two-terminal stamp (conductance / capacitance)."""
            if i != GROUND:
                coo.append_const(i, i, op, name)
            if j != GROUND:
                coo.append_const(j, j, op, name)
            if i != GROUND and j != GROUND:
                coo.append_const(i, j, op, name, negate=True)
                coo.append_const(j, i, op, name, negate=True)

        def emit_mos_g(row: int, col: int, dev: int, kind: int, sign: float):
            g_mos_pos.append(g.append(row, col))
            g_mos_dev.append(dev)
            g_mos_kind.append(kind)
            g_mos_sign.append(sign)

        def emit_mos_vccs(op_: int, on_: int, cp: int, cn: int, dev: int, kind: int):
            """Replay stamp_transconductance with a device-slot value."""
            for row, sign in ((op_, +1.0), (on_, -1.0)):
                if row == GROUND:
                    continue
                if cp != GROUND:
                    emit_mos_g(row, cp, dev, kind, sign)
                if cn != GROUND:
                    emit_mos_g(row, cn, dev, kind, -sign)

        dev_of = {nm: i for i, nm in enumerate(self.mos_names)}

        for element in circuit:
            name = element.name
            if isinstance(element, Resistor):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_sym(g, i, j, _OP_RES_INV, name)
            elif isinstance(element, Switch):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_sym(g, i, j, _OP_SW_INV, name)
            elif isinstance(element, Capacitor):
                i, j = layout.index(element.n1), layout.index(element.n2)
                emit_sym(c, i, j, _OP_CAP, name)
            elif isinstance(element, Inductor):
                p, nn = layout.index(element.n1), layout.index(element.n2)
                k = layout.branch(name)
                if p != GROUND:
                    g.append_const(p, k, _OP_ONE)
                    g.append_const(k, p, _OP_ONE)
                if nn != GROUND:
                    g.append_const(nn, k, _OP_ONE, negate=True)
                    g.append_const(k, nn, _OP_ONE, negate=True)
                c.append_const(k, k, _OP_IND, name, negate=True)
            elif isinstance(element, VoltageSource):
                p = layout.index(element.positive)
                nn = layout.index(element.negative)
                k = layout.branch(name)
                if p != GROUND:
                    g.append_const(p, k, _OP_ONE)
                    g.append_const(k, p, _OP_ONE)
                if nn != GROUND:
                    g.append_const(nn, k, _OP_ONE, negate=True)
                    g.append_const(k, nn, _OP_ONE, negate=True)
                b_ac_slots.append((k, +1.0, name))
            elif isinstance(element, CurrentSource):
                p = layout.index(element.positive)
                nn = layout.index(element.negative)
                if p != GROUND:
                    b_ac_slots.append((p, -1.0, name))
                if nn != GROUND:
                    b_ac_slots.append((nn, +1.0, name))
            elif isinstance(element, Vcvs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                k = layout.branch(name)
                if op_ != GROUND:
                    g.append_const(op_, k, _OP_ONE)
                    g.append_const(k, op_, _OP_ONE)
                if on_ != GROUND:
                    g.append_const(on_, k, _OP_ONE, negate=True)
                    g.append_const(k, on_, _OP_ONE, negate=True)
                if cp != GROUND:
                    g.append_const(k, cp, _OP_GAIN, name, negate=True)
                if cn != GROUND:
                    g.append_const(k, cn, _OP_GAIN, name)
            elif isinstance(element, Vccs):
                op_ = layout.index(element.out_positive)
                on_ = layout.index(element.out_negative)
                cp = layout.index(element.ctrl_positive)
                cn = layout.index(element.ctrl_negative)
                for row, sign in ((op_, +1.0), (on_, -1.0)):
                    if row == GROUND:
                        continue
                    if cp != GROUND:
                        g.append_const(row, cp, _OP_GM, name, negate=sign < 0)
                    if cn != GROUND:
                        g.append_const(row, cn, _OP_GM, name, negate=sign > 0)
            elif isinstance(element, Mosfet):
                dev = dev_of[name]
                d = layout.index(element.drain)
                g_ = layout.index(element.gate)
                s = layout.index(element.source)
                b = layout.index(element.bulk)
                emit_mos_vccs(d, s, g_, s, dev, _KIND_GM)
                # stamp_conductance(d, s, gds)
                for row, col, sign in (
                    (d, d, +1.0),
                    (s, s, +1.0),
                    (d, s, -1.0),
                    (s, d, -1.0),
                ):
                    if row == GROUND or col == GROUND:
                        continue
                    emit_mos_g(row, col, dev, _KIND_GDS, sign)
                emit_mos_vccs(d, s, b, s, dev, _KIND_GMB)
                for kind, (t1, t2) in enumerate(
                    ((g_, s), (g_, d), (g_, b), (d, b), (s, b))
                ):
                    for row, col, sign in (
                        (t1, t1, +1.0),
                        (t2, t2, +1.0),
                        (t1, t2, -1.0),
                        (t2, t1, -1.0),
                    ):
                        if row == GROUND or col == GROUND:
                            continue
                        c_mos_pos.append(c.append(row, col))
                        c_mos_dev.append(dev)
                        c_mos_kind.append(kind)
                        c_mos_sign.append(sign)
            else:
                raise AnalysisError(
                    f"element type {type(element).__name__} not supported "
                    "by the compiled small-signal template"
                )

        asarray = np.asarray
        self._gr = asarray(g.rows, dtype=np.intp)
        self._gc = asarray(g.cols, dtype=np.intp)
        self._g_const_pos = asarray(g.const_pos, dtype=np.intp)
        self._g_const_slots = tuple(g.const_slots)
        self._cr = asarray(c.rows, dtype=np.intp)
        self._cc = asarray(c.cols, dtype=np.intp)
        self._c_const_pos = asarray(c.const_pos, dtype=np.intp)
        self._c_const_slots = tuple(c.const_slots)
        self._g_mos_pos = asarray(g_mos_pos, dtype=np.intp)
        self._g_mos_dev = asarray(g_mos_dev, dtype=np.intp)
        self._g_mos_kind = asarray(g_mos_kind, dtype=np.intp)
        self._g_mos_sign = asarray(g_mos_sign, dtype=float)
        self._c_mos_pos = asarray(c_mos_pos, dtype=np.intp)
        self._c_mos_dev = asarray(c_mos_dev, dtype=np.intp)
        self._c_mos_kind = asarray(c_mos_kind, dtype=np.intp)
        self._c_mos_sign = asarray(c_mos_sign, dtype=float)
        self._b_ac_slots = b_ac_slots

    # -- binding ----------------------------------------------------------

    def bind(self, circuit: Circuit) -> "BoundMna":
        """Fill the value slots from ``circuit`` (same topology required)."""
        if circuit.topology_key() != self.key:
            raise AnalysisError(
                f"circuit {circuit.name!r} does not match the compiled "
                "template's topology"
            )
        return BoundMna(self, circuit)


class BoundMna:
    """A template bound to one circuit's element values.

    Holds its own value buffers, so concurrently bound instances (thread
    backend) never share mutable state; the structure arrays on the parent
    :class:`MnaTemplate` are read-only.
    """

    def __init__(self, template: MnaTemplate, circuit: Circuit):
        self.template = template
        t = template
        self._gv = np.zeros(len(t._gr))
        self._cv = np.zeros(len(t._cr))
        self._b_ac = np.zeros(t.size, dtype=complex)
        self.rebind(circuit)

    def rebind(self, circuit: Circuit) -> "BoundMna":
        """Refresh every value slot from ``circuit`` (same topology).

        Evaluation loops that rebuild the same testbench topology per
        candidate reuse one :class:`BoundMna` and rebind it — the index
        structure carries over, only values are re-read.
        """
        t = self.template
        self.circuit = circuit
        #: The bound DC program: the ``assembly`` of this circuit's DC solve.
        self.dc = t.dc.bind(circuit)
        self.layout: MnaLayout = self.dc.layout
        self._mosfets = [circuit[nm] for nm in t.mos_names]
        if len(t._g_const_pos):
            self._gv[t._g_const_pos] = _eval_slots(circuit, t._g_const_slots)
        if len(t._c_const_pos):
            self._cv[t._c_const_pos] = _eval_slots(circuit, t._c_const_slots)
        b_ac = self._b_ac
        b_ac[:] = 0.0
        for idx, sign, nm in t._b_ac_slots:
            if sign > 0:
                b_ac[idx] += circuit[nm].ac
            else:
                b_ac[idx] -= circuit[nm].ac
        return self

    # -- small-signal ------------------------------------------------------

    def linearize(self, op) -> LinearizedCircuit:
        """Bit-identical, noise-free :func:`~repro.analysis.smallsignal.linearize`.

        ``op`` is the :class:`~repro.analysis.dc.DcSolution` of this bound
        circuit.  Noise sources are not carried (the compiled evaluator path
        never uses them); call :func:`~repro.analysis.smallsignal.linearize` for noise analysis.
        """
        t = self.template
        n = t.size
        n_mos = max(len(self._mosfets), 1)
        kindvals = np.zeros((3, n_mos))
        capvals = np.zeros((len(_CAP_KINDS), n_mos))
        for dev, element in enumerate(self._mosfets):
            device_op = op.device_ops[element.name]
            kindvals[_KIND_GM, dev] = device_op.gm
            kindvals[_KIND_GDS, dev] = device_op.gds
            kindvals[_KIND_GMB, dev] = device_op.gmb
            for kind, attr in enumerate(_CAP_KINDS):
                capvals[kind, dev] = getattr(device_op, attr)

        gv = self._gv
        if len(t._g_mos_pos):
            gv[t._g_mos_pos] = t._g_mos_sign * kindvals[t._g_mos_kind, t._g_mos_dev]
        g_matrix = np.zeros((n, n))
        np.add.at(g_matrix, (t._gr, t._gc), gv)

        cv = self._cv
        if len(t._c_mos_pos):
            cv[t._c_mos_pos] = t._c_mos_sign * capvals[t._c_mos_kind, t._c_mos_dev]
        c_matrix = np.zeros((n, n))
        np.add.at(c_matrix, (t._cr, t._cc), cv)

        return LinearizedCircuit(
            layout=self.layout,
            g_matrix=g_matrix,
            c_matrix=c_matrix,
            b_ac=self._b_ac.copy(),
            op=op,
            noise_sources=[],
        )


# ---------------------------------------------------------------------------
# Template cache.
# ---------------------------------------------------------------------------

#: topology_key -> MnaTemplate, bounded like the layout cache.
_TEMPLATE_CACHE: dict[tuple, MnaTemplate] = {}
_TEMPLATE_CACHE_MAX = 128

#: ``compiled`` counts fresh ``MnaTemplate`` constructions in this process.
#: Stored in the process-global metrics registry (``template.*`` counters,
#: see :mod:`repro.obs`); this view keeps the historical dict API.
TEMPLATE_STATS = CounterView(REGISTRY, "template", ("compiled",))


def reset_template_stats() -> None:
    """Zero :data:`TEMPLATE_STATS` (benchmark/test hook)."""
    for key in TEMPLATE_STATS:
        TEMPLATE_STATS[key] = 0


def template_for(circuit: Circuit) -> MnaTemplate:
    """The compiled stamp template of ``circuit``'s topology (cached)."""
    key = circuit.topology_key()
    cached = _TEMPLATE_CACHE.get(key)
    if cached is None:
        if len(_TEMPLATE_CACHE) >= _TEMPLATE_CACHE_MAX:
            _TEMPLATE_CACHE.clear()
        cached = MnaTemplate(circuit)
        TEMPLATE_STATS["compiled"] += 1
        _TEMPLATE_CACHE[key] = cached
    return cached


def bind_template(circuit: Circuit) -> BoundMna:
    """Compile (cached) and bind the template for ``circuit`` in one step."""
    return template_for(circuit).bind(circuit)


__all__ = [
    "BoundMna",
    "DcProgram",
    "MnaTemplate",
    "NewtonProgram",
    "TEMPLATE_STATS",
    "TransientProgram",
    "bind_template",
    "reset_template_stats",
    "template_for",
]
