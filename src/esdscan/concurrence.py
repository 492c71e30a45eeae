"""Wootters concurrence for two qubits, plus an independent X-state closed form."""

from __future__ import annotations

import numpy as np

from .channels import PAULI_Y
from .states import check_states, require_finite

# Positivity guard on the evolved state; looser than solver accuracy to absorb
# accumulation across channel application.
NEG_TOL = 1e-8
# Entries outside the diagonal/anti-diagonal must stay below this for X-states.
X_TOL = 1e-12
# Square-root eigenvalues below this share of a state's largest one count as zero.
TRUNCATE_REL = 64 * np.finfo(float).eps

SPIN_FLIP_YY = np.kron(PAULI_Y, PAULI_Y).real.astype(complex)
# Entries off the diagonal and the anti-diagonal: zero in an X-state.
OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


class IntegrityError(RuntimeError):
    """The evolved state had an eigenvalue below -NEG_TOL."""


class XStructureError(ValueError):
    """Input is not an X-state: reports the largest offending entry."""

    def __init__(self, magnitude: float, index: tuple[int, int]):
        super().__init__(
            f"entry {index} has magnitude {magnitude:.3e}, above X tolerance {X_TOL}"
        )
        self.magnitude = magnitude
        self.index = index


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    lowest = w.min()
    if lowest < -NEG_TOL:
        raise IntegrityError(f"state has eigenvalue {lowest:.3e}, below -{NEG_TOL}")
    # rank-truncate: an exactly-zero population rounded to ~1e-17 would turn
    # into sqrt(ulp) noise in the root and cost half the digits downstream;
    # every negative eigenvalue lies below the cutoff, so none reaches the sqrt
    w[w < TRUNCATE_REL * w.max(axis=-1, keepdims=True)] = 0.0
    return np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(w), v.conj())


def wootters_sigmas(rho: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho rho~, rho~ = (sy x sy) rho* (sy x sy).

    Computed as singular values of sqrt(rho) (sy x sy) sqrt(rho)*, which keeps
    full absolute accuracy where the direct eigenvalue route loses half its
    digits on the (frequent) zero eigenvalues.
    """
    rho = require_finite(check_states(rho), "state")
    root = _sqrtm_psd(rho)
    b = root @ SPIN_FLIP_YY @ root.conj()
    return np.linalg.svd(b, compute_uv=False)


def concurrence(rho: np.ndarray):
    """Concurrence max{0, s1 - s2 - s3 - s4} over the descending Wootters roots.

    Returns a float for a single state, an array for a stack.
    """
    s = wootters_sigmas(rho)
    c = (s[..., 0] - s[..., 1:].sum(axis=-1)).clip(0.0, 1.0)
    return c if c.shape else float(c)


def xstate_concurrence(rho: np.ndarray):
    """Closed-form concurrence for X-structured states.

    2 max{0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44)}.
    Raises :class:`XStructureError` when any entry off the diagonal and
    anti-diagonal exceeds ``X_TOL``, and :class:`IntegrityError` when the
    smallest eigenvalue, taken in closed form from the two 2x2 blocks, is
    below ``-NEG_TOL`` (the guard the Wootters route applies).
    """
    rho = require_finite(check_states(rho), "state")
    off = abs(rho[..., OFF_X])
    worst = float(off.max())
    if worst > X_TOL:
        flat = int(off.max(axis=tuple(range(rho.ndim - 2))).argmax())
        idx = tuple(np.argwhere(OFF_X)[flat])
        raise XStructureError(worst, (int(idx[0]) + 1, int(idx[1]) + 1))

    # the two 2x2 blocks side by side: populations (rho_11, rho_22) against
    # (rho_44, rho_33), coherences (rho_14, rho_23)
    d = rho.diagonal(0, -2, -1).real
    top, bottom = d[..., :2], d[..., :1:-1]
    coh = abs(rho[..., ::-1].diagonal(0, -2, -1)[..., :2])
    # block eigenvalues: mean -/+ hypot(half the population gap, coherence)
    lowest = (0.5 * (top + bottom) - np.hypot(0.5 * (top - bottom), coh)).min()
    if lowest < -NEG_TOL:
        raise IntegrityError(f"state has eigenvalue {lowest:.3e}, below -{NEG_TOL}")
    # each coherence against the other block's sqrt(rho_11 rho_44) or sqrt(rho_22 rho_33)
    roots = np.sqrt(np.maximum(top * bottom, 0.0))
    gap = coh - roots[..., ::-1]
    c = 2.0 * np.maximum(0.0, np.maximum(gap[..., 0], gap[..., 1]))
    return c if c.shape else float(c)
