"""Pole/zero extraction from the linearized MNA pencil.

Poles are the finite generalized eigenvalues ``s`` of ``(G + sC) x = 0``.
Zeros of a specific input->output transfer come from the Rosenbrock system
matrix: append the input column and output row and solve the same pencil.

``scipy.linalg`` is imported inside the two solvers: the campaign flow
never extracts poles or zeros, so the CLI does not pay scipy's import time.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.mna import GROUND
from repro.analysis.smallsignal import LinearizedCircuit
from repro.errors import AnalysisError

#: Eigenvalues with |s| above this are treated as "at infinity" and dropped.
_INFINITY_CUTOFF = 1e18


def poles(linear: LinearizedCircuit) -> np.ndarray:
    """Finite natural frequencies (poles) of the linearized circuit [rad/s]."""
    import scipy.linalg

    g, c = linear.g_matrix, linear.c_matrix
    # (G + sC)x = 0  ->  G x = -s C x: pencil (G, -C).
    eigvals = scipy.linalg.eigvals(g, -c)
    finite = eigvals[np.isfinite(eigvals)]
    return finite[np.abs(finite) < _INFINITY_CUTOFF]


def zeros(
    linear: LinearizedCircuit,
    output_net: str,
    negative_net: str | None = None,
) -> np.ndarray:
    """Finite transmission zeros of the AC-source -> output transfer [rad/s].

    Builds the Rosenbrock pencil ``[[G + sC, b], [c^T, 0]]`` whose finite
    generalized eigenvalues are the transfer zeros.
    """
    import scipy.linalg

    i = linear.index(output_net)
    if i == GROUND:
        raise AnalysisError("output_net must not be ground")
    n = linear.size
    if not np.any(linear.b_ac):
        raise AnalysisError("circuit has no AC excitation; set ac= on a source")

    c_row = np.zeros(n)
    c_row[i] = 1.0
    if negative_net is not None:
        j = linear.index(negative_net)
        if j == GROUND:
            raise AnalysisError("negative_net must not be ground")
        c_row[j] = -1.0

    a = np.zeros((n + 1, n + 1), dtype=complex)
    a[:n, :n] = linear.g_matrix
    a[:n, n] = linear.b_ac
    a[n, :n] = c_row
    b = np.zeros((n + 1, n + 1), dtype=complex)
    b[:n, :n] = -linear.c_matrix

    eigvals = scipy.linalg.eigvals(a, b)
    finite = eigvals[np.isfinite(eigvals)]
    return finite[np.abs(finite) < _INFINITY_CUTOFF]


def dominant_pole_hz(linear: LinearizedCircuit) -> float:
    """Magnitude in Hz of the slowest stable pole."""
    p = poles(linear)
    stable = p[np.real(p) < 0]
    if len(stable) == 0:
        raise AnalysisError("no stable poles found")
    return float(np.min(np.abs(stable)) / (2 * np.pi))
