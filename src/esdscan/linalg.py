"""Small fixed-size complex linear algebra: 2x2/4x4 helpers and quartic eigensolvers."""

from __future__ import annotations

import numpy as np

# Absolute accuracy demanded of the 4x4 eigensolver for unit-magnitude entries.
EIG_TOL = 1e-11
# Entrywise hermiticity tolerance used across modules.
HERM_TOL = 1e-12

DK_MAX_ITER = 500
# Durand-Kerner stopping thresholds, relative to the Cauchy root bound.
DK_MOVE_TOL = 1e-14
DK_STALL_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class SolverError(RuntimeError):
    """Eigenvalue / root iteration failed to converge."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


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


def eig4(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 4x4 complex matrix (multiset semantics, unordered).

    Backed by the LAPACK QR iteration, which is backward stable on the matrix
    itself; degenerate but semisimple eigenvalues keep full absolute accuracy,
    which a characteristic-polynomial route cannot achieve.
    """
    m = require_finite(np.asarray(m, dtype=complex))
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise SolverError(f"eigenvalue iteration failed: {exc}") from exc


def charpoly4(m: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients (degree-descending, length 5).

    Faddeev-LeVerrier recursion; exact for integer-valued inputs.
    """
    m = require_finite(np.asarray(m, dtype=complex))
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    coeffs = [1.0 + 0j]
    n = np.eye(4, dtype=complex)
    for k in range(1, 5):
        mn = m @ n
        a_k = -np.trace(mn) / k
        coeffs.append(a_k)
        n = mn + a_k * np.eye(4, dtype=complex)
    return np.array(coeffs)


def durand_kerner(
    coeffs: np.ndarray,
    max_iter: int = DK_MAX_ITER,
    move_tol: float = DK_MOVE_TOL,
) -> np.ndarray:
    """All roots of a polynomial by simultaneous Weierstrass iteration.

    ``coeffs`` are degree-descending. Exactly-zero trailing coefficients are
    deflated first (each contributes an exact zero root); a double root at the
    origin is otherwise only recoverable to ~sqrt(ulp).

    The iteration stops once every root moves less than ``move_tol`` times
    the Cauchy root bound ``1 + max|c_i|``, or once the largest step, already
    below ``DK_STALL_TOL`` times that bound, stops shrinking: Horner rounding
    then sets the step size, and further iterations only bounce. Steps at a
    root of multiplicity m stay near ulp^(1/m), above that bound for m >= 2.

    Raises
    ------
    SolverError
        If the iteration cap is hit before either stopping rule holds;
        carries the worst polynomial residual.
    """
    c = np.asarray(coeffs, dtype=complex).ravel()
    require_finite(c, "coefficients")
    if c.size == 0 or c[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    c = c / c[0]

    zeros = 0
    while c.size > 1 and c[-1] == 0:
        c = c[:-1]
        zeros += 1
    degree = c.size - 1
    exact = np.zeros(zeros, dtype=complex)
    if degree == 0:
        return exact

    radius = 1.0 + float(np.max(np.abs(c)))
    angles = 2j * np.pi * np.arange(degree) / degree + 0.4j
    roots = radius * np.exp(angles)

    previous = np.inf
    for _ in range(max_iter):
        values = np.polyval(c, roots)
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        denom = np.prod(diffs, axis=1)
        step = values / denom
        roots = roots - step
        moved = float(np.max(np.abs(step)))
        if moved < move_tol * radius or previous <= moved < DK_STALL_TOL * radius:
            return np.concatenate([roots, exact])
        previous = moved
    residual = float(np.max(np.abs(np.polyval(c, roots))))
    raise SolverError(
        f"Durand-Kerner stalled after {max_iter} iterations", residual=residual
    )
