"""Single-qubit Kraus channels applied independently to both qubits."""

from __future__ import annotations

import enum

import numpy as np

from .linalg import I2, PAULI_X, PAULI_Y, PAULI_Z, require_finite
from .states import validate_density

COMPLETENESS_TOL = 1e-12
_LARGEST = np.finfo(float).max  # the damping exponent's upper end: NaN and inf fail it


class ChannelKind(enum.Enum):
    BIT_FLIP = "bitflip"
    PHASE_FLIP = "phaseflip"
    BIT_PHASE_FLIP = "bitphaseflip"
    AMPLITUDE_DAMPING = "amplitudedamping"
    PHASE_DAMPING = "phasedamping"
    DEPOLARIZING = "depolarizing"

    @property
    def is_flip(self) -> bool:
        """Flip channels take a probability p in [0, 1]; damping ones take lt >= 0."""
        return self in (
            ChannelKind.BIT_FLIP,
            ChannelKind.PHASE_FLIP,
            ChannelKind.BIT_PHASE_FLIP,
        )


def check_strength(kind: ChannelKind, strength) -> np.ndarray:
    """``strength`` as a float array, if finite and inside ``kind``'s domain."""
    s = np.asarray(strength, dtype=float)
    if not np.all((s >= 0) & (s <= (1.0 if kind.is_flip else _LARGEST))):
        rule = ("strength must be finite" if not np.all(np.isfinite(s))
                else "p must lie in [0, 1]" if kind.is_flip
                else "damping exponent must be >= 0")
        raise ValueError(f"{kind.value}: {rule}, got {strength}")
    return s


def kraus_operators(kind: ChannelKind, strength) -> np.ndarray:
    """Kraus operators for one qubit, shape (..., n_ops, 2, 2).

    Flip channels use {sqrt(p) I, sqrt(1-p) P} with P the matching Pauli;
    damping channels use the exponent lt through eta = exp(-lt).
    """
    s = check_strength(kind, strength)
    shape = s.shape

    def stack(mats):
        out = np.zeros(shape + (len(mats), 2, 2), dtype=complex)
        for i, m in enumerate(mats):
            out[..., i, :, :] = m
        return out

    if kind.is_flip:
        pauli = {
            ChannelKind.BIT_FLIP: PAULI_X,
            ChannelKind.PHASE_FLIP: PAULI_Z,
            ChannelKind.BIT_PHASE_FLIP: PAULI_Y,
        }[kind]
        keep = np.sqrt(s)[..., None, None] * I2
        flip = np.sqrt(1.0 - s)[..., None, None] * pauli
        return stack([keep, flip])

    eta = np.exp(-s)
    root_eta = np.sqrt(eta)
    root_loss = np.sqrt(1.0 - eta)
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        e1 = np.zeros(shape + (2, 2), dtype=complex)
        e1[..., 0, 0] = 1.0
        e1[..., 1, 1] = root_eta
        e2 = np.zeros(shape + (2, 2), dtype=complex)
        e2[..., 0, 1] = root_loss
        return stack([e1, e2])
    if kind is ChannelKind.PHASE_DAMPING:
        e1 = root_eta[..., None, None] * I2
        e2 = np.zeros(shape + (2, 2), dtype=complex)
        e2[..., 0, 0] = root_loss
        e3 = np.zeros(shape + (2, 2), dtype=complex)
        e3[..., 1, 1] = root_loss
        return stack([e1, e2, e3])
    if kind is ChannelKind.DEPOLARIZING:
        r = np.sqrt((1.0 - eta) / 3.0)[..., None, None]
        return stack([
            root_eta[..., None, None] * I2,
            r * PAULI_X,
            r * PAULI_Y,
            r * PAULI_Z,
        ])
    raise ValueError(f"unhandled channel kind {kind}")  # pragma: no cover


def kraus_set(kind: ChannelKind, strength: float) -> np.ndarray:
    """Kraus operators for a scalar strength, shape (n_ops, 2, 2)."""
    return kraus_operators(kind, float(strength))


def check_completeness(operators: np.ndarray) -> float:
    """Max entrywise deviation of sum_i E_i^dag E_i from I; NaN/inf entries raise."""
    ops = np.asarray(operators, dtype=complex)
    total = np.einsum("...kji,...kjl->...il", ops.conj(), ops)
    dev = float(np.max(np.abs(total - I2)))
    if not dev <= COMPLETENESS_TOL:  # NaN/inf entries fail this too
        require_finite(ops, "Kraus operators")
    return dev


def apply_product(rho: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Evolve rho under the two-qubit product channel sum_ij (Ei x Ej) rho (Ei x Ej)^dag.

    Applied qubit by qubit through the single-qubit superoperator
    S = sum_k Ek x conj(Ek): with rho regrouped as R[(a,a'),(b,b')] the map is
    R -> S R S^T, so the work grows with n rather than with the n^2 pairs.
    Broadcasts: rho (..., 4, 4) against operators (..., n, 2, 2).
    """
    rho = np.asarray(rho, dtype=complex)
    ops = np.asarray(operators, dtype=complex)
    sup = np.einsum("...kij,...klm->...iljm", ops, ops.conj())  # sum_k Ek x conj(Ek)
    sup = sup.reshape(*sup.shape[:-4], 4, 4)
    return _regroup(sup @ _regroup(rho) @ np.swapaxes(sup, -1, -2))


def _regroup(m: np.ndarray) -> np.ndarray:
    """Swap the middle indices of m[(a,b),(a',b')] -> m[(a,a'),(b,b')]; its own inverse."""
    return np.swapaxes(m.reshape(*m.shape[:-2], 2, 2, 2, 2), -3, -2).reshape(*m.shape)


def apply_product_channel(rho: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Validated evolution of rho under ``operators`` on both qubits.

    Checks rho, the Kraus completeness of ``operators`` and the evolved state.
    """
    rho = validate_density(rho)
    dev = check_completeness(operators)
    if not dev <= COMPLETENESS_TOL:
        raise ValueError(f"Kraus completeness off by {dev:.3e}")
    return validate_density(apply_product(rho, operators))
