"""Two-qubit initial states: maximally entangled mixed states and Werner states."""

from __future__ import annotations

import numpy as np

from .linalg import HERM_TOL, dag, require_finite

TRACE_TOL = 1e-12
PSD_TOL = 1e-10

MEMS_BRANCH_POINT = 2.0 / 3.0


class DensityMatrixError(ValueError):
    """A candidate state violated a density-matrix invariant."""

    def __init__(self, violation: str, deviation: float):
        super().__init__(f"{violation} violation: deviation {deviation:.3e}")
        self.violation = violation
        self.deviation = deviation


def check_gamma(gamma) -> np.ndarray:
    """``gamma`` as a float array, if every entry lies in [0, 1]."""
    g = np.asarray(gamma, dtype=float)
    if not np.all((g >= 0) & (g <= 1)):  # NaN fails both comparisons
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return g


def mems(gamma) -> np.ndarray:
    """Maximally entangled mixed state for mixing parameter ``gamma``.

    diag(d, 1-2d, 0, d) with corner coherences gamma/2, where d is 1/3 below the
    branch point and gamma/2 above; concurrence is exactly ``gamma``.
    Broadcasts: an array ``gamma`` yields (..., 4, 4).
    """
    g = check_gamma(gamma)
    d = np.where(g < MEMS_BRANCH_POINT, 1.0 / 3.0, g / 2.0)
    out = np.zeros(g.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = d
    out[..., 1, 1] = 1.0 - 2.0 * d
    out[..., 3, 3] = d
    out[..., 0, 3] = g / 2.0
    out[..., 3, 0] = g / 2.0
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
    m = np.asarray(m, dtype=complex)
    # NaN/inf entries are looked for only once a test fails; their message wins.
    if m.shape[-2:] != (4, 4):
        require_finite(m, "density matrix")
        raise ValueError(f"expected (..., 4, 4), got shape {m.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
        herm = float(np.max(np.abs(m - dag(m))))
    if not herm <= HERM_TOL:
        require_finite(m, "density matrix")
        raise DensityMatrixError("hermiticity", herm)
    trace_dev = float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)))
    if not trace_dev <= TRACE_TOL:
        raise DensityMatrixError("trace", trace_dev)
    min_eig = float(np.min(np.linalg.eigvalsh(m)))
    if not min_eig >= -PSD_TOL:
        raise DensityMatrixError("positivity", -min_eig)
    return m


def werner_concurrence_raw(gamma):
    """Unclamped Werner expression (3*gamma - 1)/2, negative below gamma = 1/3."""
    g = check_gamma(gamma)
    return (3.0 * g - 1.0) / 2.0


def reference_concurrence(kind: str, gamma):
    """Closed-form concurrence of the initial states.

    ``kind`` is "mems" (-> gamma) or "werner" (-> max(0, (3*gamma - 1)/2)).
    """
    g = check_gamma(gamma)
    if kind == "mems":
        return g if g.shape else float(g)
    if kind == "werner":
        c = np.maximum(0.0, werner_concurrence_raw(g))
        return c if c.shape else float(c)
    raise ValueError(f"unknown state kind {kind!r} (expected 'mems' or 'werner')")
