"""Wootters concurrence for two qubits, plus an independent X-state closed form."""

from __future__ import annotations

import numpy as np

from .linalg import PAULI_Y, dag, eig4, kron2, require_finite

# Integrity guards on the direct eigenvalue route; looser than solver accuracy
# to absorb accumulation across channel application.
IM_TOL = 1e-8
NEG_TOL = 1e-8
# Entries outside the diagonal/anti-diagonal must stay below this for X-states.
X_TOL = 1e-12

SPIN_FLIP_YY = kron2(PAULI_Y, PAULI_Y).real.astype(complex)
# Entries off the diagonal and the anti-diagonal: zero in an X-state.
OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


class IntegrityError(RuntimeError):
    """The spectrum of rho * spin_flip(rho) was not real nonnegative."""


class XStructureError(ValueError):
    """Input is not an X-state: reports the largest offending entry."""

    def __init__(self, magnitude: float, index: tuple[int, int]):
        super().__init__(
            f"entry {index} has magnitude {magnitude:.3e}, above X tolerance {X_TOL}"
        )
        self.magnitude = magnitude
        self.index = index


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """Time-reversed state (sy x sy) rho* (sy x sy); Hermitian whenever rho is."""
    rho = np.asarray(rho, dtype=complex)
    return SPIN_FLIP_YY @ rho.conj() @ SPIN_FLIP_YY


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    if np.min(w) < -NEG_TOL:
        raise IntegrityError(
            f"state has eigenvalue {np.min(w):.3e}, below -{NEG_TOL}"
        )
    w = np.clip(w, 0.0, None)
    # rank-truncate: an exactly-zero population rounded to ~1e-17 would turn
    # into sqrt(ulp) noise in the root and cost half the digits downstream
    cutoff = 64 * np.finfo(float).eps * np.max(w, axis=-1, keepdims=True)
    w = np.where(w < cutoff, 0.0, w)
    return np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(w), v.conj())


def wootters_sigmas(rho: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho * spin_flip(rho).

    Computed as singular values of sqrt(rho) (sy x sy) sqrt(rho)*, which keeps
    full absolute accuracy where the direct eigenvalue route loses half its
    digits on the (frequent) zero eigenvalues.
    """
    rho = require_finite(np.asarray(rho, dtype=complex), "state")
    root = _sqrtm_psd(rho)
    b = root @ SPIN_FLIP_YY @ root.conj()
    return np.linalg.svd(b, compute_uv=False)


def wootters_spectrum(rho: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of rho * spin_flip(rho), shape (..., 4)."""
    return wootters_sigmas(rho) ** 2


def concurrence(rho: np.ndarray):
    """Concurrence max{0, s1 - s2 - s3 - s4} over the descending Wootters roots.

    Returns a float for a single state, an array for a stack.
    """
    s = wootters_sigmas(rho)
    c = np.clip(s[..., 0] - s[..., 1:].sum(axis=-1), 0.0, 1.0)
    return c if c.shape else float(c)


def concurrence_eig_route(rho: np.ndarray) -> float:
    """Concurrence via the eigenvalues of the non-Hermitian product rho * rho^f.

    Kept as an independent cross-check of :func:`concurrence`; accuracy is
    limited to ~sqrt(ulp) when the product has degenerate zero eigenvalues.
    """
    rho = np.asarray(rho, dtype=complex)
    lam = eig4(rho @ spin_flip(rho))
    worst_im = float(np.max(np.abs(lam.imag)))
    if worst_im > IM_TOL:
        raise IntegrityError(f"eigenvalue imaginary part {worst_im:.3e} above {IM_TOL}")
    real = lam.real
    if float(np.min(real)) < -NEG_TOL:
        raise IntegrityError(f"eigenvalue {np.min(real):.3e} below -{NEG_TOL}")
    roots = np.sort(np.sqrt(np.clip(real, 0.0, None)))[::-1]
    return float(min(1.0, max(0.0, roots[0] - roots[1] - roots[2] - roots[3])))


def xstate_concurrence(rho: np.ndarray):
    """Closed-form concurrence for X-structured states.

    2 max{0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44)}.
    Raises :class:`XStructureError` when any entry off the diagonal and
    anti-diagonal exceeds ``X_TOL``, and :class:`IntegrityError` when the
    smallest eigenvalue, taken in closed form from the two 2x2 blocks, is
    below ``-NEG_TOL`` (the guard the Wootters route applies).
    """
    rho = require_finite(np.asarray(rho, dtype=complex), "state")
    off = np.abs(rho[..., OFF_X])
    worst = float(np.max(off))
    if worst > X_TOL:
        flat = int(np.argmax(np.max(off, axis=tuple(range(rho.ndim - 2)))))
        idx = tuple(np.argwhere(OFF_X)[flat])
        raise XStructureError(worst, (int(idx[0]) + 1, int(idx[1]) + 1))

    d = np.real(np.einsum("...ii->...i", rho))
    z = np.abs(rho[..., 0, 3])
    w = np.abs(rho[..., 1, 2])
    # block eigenvalues: mean -/+ hypot(half the population gap, coherence)
    lowest = np.minimum(
        0.5 * (d[..., 0] + d[..., 3]) - np.hypot(0.5 * (d[..., 0] - d[..., 3]), z),
        0.5 * (d[..., 1] + d[..., 2]) - np.hypot(0.5 * (d[..., 1] - d[..., 2]), w),
    )
    if np.min(lowest) < -NEG_TOL:
        raise IntegrityError(
            f"state has eigenvalue {np.min(lowest):.3e}, below -{NEG_TOL}"
        )
    inner = np.sqrt(np.maximum(d[..., 1] * d[..., 2], 0.0))
    outer = np.sqrt(np.maximum(d[..., 0] * d[..., 3], 0.0))
    c = 2.0 * np.maximum(0.0, np.maximum(z - inner, w - outer))
    return c if c.shape else float(c)
