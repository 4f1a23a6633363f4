"""The per-frequency AC loop: one ``np.linalg.solve`` per sweep point."""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.smallsignal import LinearizedCircuit
from repro.errors import AnalysisError


def ac_response_loop(
    linear: LinearizedCircuit, frequencies_hz: np.ndarray
) -> np.ndarray:
    """Reference for :func:`repro.analysis.ac.ac_response`, same contract."""
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    out = np.empty((len(frequencies_hz), linear.size), dtype=complex)
    for row, frequency in enumerate(frequencies_hz):
        s = 2j * math.pi * frequency
        try:
            out[row] = np.linalg.solve(linear.system_at(s), linear.b_ac)
        except np.linalg.LinAlgError as exc:
            raise AnalysisError(f"AC solve failed at {frequency:.3e} Hz") from exc
    return out
