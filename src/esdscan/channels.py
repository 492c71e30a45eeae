"""Single-qubit Kraus channels applied independently to both qubits."""

from __future__ import annotations

import enum

import numpy as np

from .states import check_states, require_finite, validate_density

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
    if not isinstance(kind, ChannelKind):
        raise TypeError(f"kind must be a ChannelKind, got {kind!r}")
    s = np.asarray(strength, dtype=float)
    if not ((s >= 0) & (s <= (1.0 if kind.is_flip else _LARGEST))).all():
        rule = ("strength must be finite" if not np.isfinite(s).all()
                else "p must lie in [0, 1]" if kind.is_flip
                else "damping exponent must be >= 0")
        raise ValueError(f"{kind.value}: {rule}, got {strength}")
    return s


I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Each operator is the square root of a weight times a fixed matrix
# (Nielsen & Chuang, sec. 8.3); amplitude damping's first operator also holds |0><0|.
_KET0_BRA0 = np.array([[1, 0], [0, 0]], dtype=complex)
_KET1_BRA1 = np.array([[0, 0], [0, 1]], dtype=complex)
_DAMPING_CONSTANT = np.stack([_KET0_BRA0, np.zeros((2, 2), dtype=complex)])
_KRAUS_MATRICES = {
    ChannelKind.BIT_FLIP: np.stack([I2, PAULI_X]),
    ChannelKind.PHASE_FLIP: np.stack([I2, PAULI_Z]),
    ChannelKind.BIT_PHASE_FLIP: np.stack([I2, PAULI_Y]),
    ChannelKind.AMPLITUDE_DAMPING: np.stack([_KET1_BRA1, [[0, 1], [0, 0]]]),
    ChannelKind.PHASE_DAMPING: np.stack([I2, _KET0_BRA0, _KET1_BRA1]),
    ChannelKind.DEPOLARIZING: np.stack([I2, PAULI_X, PAULI_Y, PAULI_Z]),
}


def kraus_operators(kind: ChannelKind, strength) -> np.ndarray:
    """Kraus operators for one qubit, shape (..., n_ops, 2, 2).

    Flip channels weigh {I, P} by {p, 1-p}, P the matching Pauli. Damping
    channels take the exponent lt through eta = exp(-lt): the first matrix
    weighs eta, each other one 1-eta, or (1-eta)/3 for depolarizing, which is
    fully depolarizing at lt = ln 4 and overshoots after that.
    """
    s = check_strength(kind, strength)
    mats = _KRAUS_MATRICES[kind]
    if kind.is_flip:
        weights = [s, 1.0 - s]
    else:
        eta = np.exp(-s)
        loss = (1.0 - eta) / 3.0 if kind is ChannelKind.DEPOLARIZING else 1.0 - eta
        weights = [eta] + [loss] * (len(mats) - 1)
    ops = np.sqrt(np.stack(weights, axis=-1))[..., None, None] * mats
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        ops += _DAMPING_CONSTANT
    return ops


def kraus_set(kind: ChannelKind, strength: float) -> np.ndarray:
    """Kraus operators for a scalar strength, shape (n_ops, 2, 2)."""
    if np.ndim(strength):
        raise ValueError(f"strength must be a scalar, got shape {np.shape(strength)} "
                         "(kraus_operators takes a stack of strengths)")
    return kraus_operators(kind, float(strength))


def check_operators(operators) -> np.ndarray:
    """``operators`` as a complex array, if it is a non-empty (..., n, 2, 2) stack.

    NaN/inf entries are looked for only once the shape test fails; their message wins.
    """
    ops = np.asarray(operators, dtype=complex)
    if ops.ndim < 3 or ops.shape[-2:] != (2, 2) or not ops.size:
        require_finite(ops, "Kraus operators")
        raise ValueError("expected a non-empty (..., n, 2, 2) array of Kraus operators, "
                         f"got shape {ops.shape}")
    return ops


def check_completeness(operators: np.ndarray) -> float:
    """Max entrywise deviation of sum_i E_i^dag E_i from I; NaN/inf entries raise."""
    ops = check_operators(operators)
    total = np.einsum("...kji,...kjl->...il", ops.conj(), ops)
    dev = float(abs(total - I2).max())
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
    rho = check_states(rho)
    ops = check_operators(operators)
    stacks = rho.shape[:-2], ops.shape[:-3]
    if any(m != n and 1 not in (m, n) for m, n in zip(stacks[0][::-1], stacks[1][::-1])):
        raise ValueError(f"state stack {stacks[0]} and operator stack {stacks[1]} "
                         "do not broadcast")
    sup = np.einsum("...kij,...klm->...iljm", ops, ops.conj())  # sum_k Ek x conj(Ek)
    sup = sup.reshape(*sup.shape[:-4], 4, 4)
    return _regroup(sup @ _regroup(rho) @ sup.swapaxes(-1, -2))


def _regroup(m: np.ndarray) -> np.ndarray:
    """Swap the middle indices of m[(a,b),(a',b')] -> m[(a,a'),(b,b')]; its own inverse."""
    return m.reshape(*m.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -2).reshape(m.shape)


def apply_product_channel(rho: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Validated evolution of rho under ``operators`` on both qubits.

    Checks rho, the Kraus completeness of ``operators`` and the evolved state.
    """
    rho = validate_density(rho)
    dev = check_completeness(operators)
    if not dev <= COMPLETENESS_TOL:
        raise ValueError(f"Kraus completeness off by {dev:.3e}")
    return validate_density(apply_product(rho, operators))
