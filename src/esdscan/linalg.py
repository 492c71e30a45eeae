"""Pauli matrices, the conjugate transpose and the finiteness check."""

from __future__ import annotations

import numpy as np

# Entrywise hermiticity tolerance used across modules.
HERM_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def require_finite(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m)
    if not np.isfinite(m).all():  # a complex entry needs both parts finite
        raise ValueError(f"{name} contains non-finite entries")
    return m


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, broadcasting over leading axes."""
    return np.asarray(m).conj().swapaxes(-1, -2)
