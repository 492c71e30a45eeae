"""Two-qubit initial states: maximally entangled mixed states and Werner states."""

from __future__ import annotations

import numpy as np

# Entrywise hermiticity tolerance of validate_density.
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


class DensityMatrixError(ValueError):
    """A candidate state violated a density-matrix invariant."""

    def __init__(self, violation: str, deviation: float):
        super().__init__(f"{violation} violation: deviation {deviation:.3e}")
        self.violation = violation
        self.deviation = deviation


def require_finite(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m)
    if not np.isfinite(m).all():  # a complex entry needs both parts finite
        raise ValueError(f"{name} contains non-finite entries")
    return m


def check_gamma(gamma) -> np.ndarray:
    """``gamma`` as a float array, if every entry lies in [0, 1]."""
    g = np.asarray(gamma, dtype=float)
    if not ((g >= 0) & (g <= 1)).all():  # NaN fails both comparisons
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return g


def check_states(m, name: str = "state") -> np.ndarray:
    """``m`` as a complex array, if it is a non-empty stack of 4x4 matrices.

    NaN/inf entries are looked for only once the shape test fails; their
    message, naming ``name``, wins.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        require_finite(m, name)
        raise ValueError(f"expected (..., 4, 4), got shape {m.shape}")
    if not m.size:
        raise ValueError(f"expected at least one density matrix, got shape {m.shape}")
    return m


def mems(gamma) -> np.ndarray:
    """Maximally entangled mixed state for mixing parameter ``gamma``.

    diag(d, 1-2d, 0, d) with corner coherences gamma/2, where d is 1/3 below the
    branch point and gamma/2 above; concurrence is exactly ``gamma``.
    Broadcasts: an array ``gamma`` yields (..., 4, 4).
    """
    half = check_gamma(gamma) / 2.0
    d = np.maximum(half, 1.0 / 3.0)  # gamma/2 passes 1/3 at the branch point 2/3
    out = np.zeros(half.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 3, 3] = d
    out[..., 1, 1] = 1.0 - 2.0 * d
    out[..., 0, 3] = out[..., 3, 0] = half
    return out


def werner(gamma) -> np.ndarray:
    """Werner state: gamma |psi-><psi-| + (1-gamma) I/4; entangled for gamma > 1/3."""
    g = check_gamma(gamma)
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
    singlet = np.outer(psi, psi.conj())
    eye = np.eye(4, dtype=complex) / 4.0
    return g[..., None, None] * singlet + (1.0 - g)[..., None, None] * eye


def validate_density(m: np.ndarray) -> np.ndarray:
    """Return ``m`` if it is a valid two-qubit density matrix.

    Raises
    ------
    DensityMatrixError
        Carrying which invariant failed (hermiticity, trace, positivity)
        and the measured deviation. For stacks, the worst element decides.
    """
    # NaN/inf entries are looked for only once a test fails; their message wins.
    m = check_states(m, "density matrix")
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
        herm = float(abs(m - m.conj().swapaxes(-1, -2)).max())
    if not herm <= HERM_TOL:
        require_finite(m, "density matrix")
        raise DensityMatrixError("hermiticity", herm)
    trace_dev = float(abs(m.trace(0, -2, -1) - 1.0).max())
    if not trace_dev <= TRACE_TOL:
        raise DensityMatrixError("trace", trace_dev)
    min_eig = float(np.linalg.eigvalsh(m).min())
    if not min_eig >= -PSD_TOL:
        raise DensityMatrixError("positivity", -min_eig)
    return m
