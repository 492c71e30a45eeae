"""Small fixed-size complex linear algebra: 2x2/4x4 helpers and Pauli matrices."""

from __future__ import annotations

import numpy as np

# Entrywise hermiticity tolerance used across modules.
HERM_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def require_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if not np.all(np.isfinite(m.view(float) if np.iscomplexobj(m) else m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, broadcasting over leading axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of 2x2 blocks in |00>,|01>,|10>,|11> order.

    Accepts stacks with matching leading axes and returns (..., 4, 4).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.einsum("...ab,...cd->...acbd", a, b)
    return out.reshape(*out.shape[:-4], 4, 4)
