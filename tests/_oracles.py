"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way (explicit kron
loops, X-block pair formulas) so it shares no code path with the package.
The eigen solvers at the end (``eig4``, ``charpoly4``, ``durand_kerner`` and
the direct eigenvalue route to the concurrence) serve only as cross-checks.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def mems_ref(gamma: float) -> np.ndarray:
    g = 1 / 3 if gamma < 2 / 3 else gamma / 2
    m = np.diag([g, 1 - 2 * g, 0, g]).astype(complex)
    m[0, 3] = m[3, 0] = gamma / 2
    return m


def kraus_ref(kind: str, s: float) -> list[np.ndarray]:
    if kind == "bitflip":
        return [np.sqrt(s) * I2, np.sqrt(1 - s) * SX]
    if kind == "phaseflip":
        return [np.sqrt(s) * I2, np.sqrt(1 - s) * SZ]
    if kind == "bitphaseflip":
        return [np.sqrt(s) * I2, np.sqrt(1 - s) * SY]
    eta = np.exp(-s)
    if kind == "amplitudedamping":
        return [
            np.array([[1, 0], [0, np.sqrt(eta)]], dtype=complex),
            np.array([[0, np.sqrt(1 - eta)], [0, 0]], dtype=complex),
        ]
    if kind == "phasedamping":
        return [
            np.sqrt(eta) * I2,
            np.array([[np.sqrt(1 - eta), 0], [0, 0]], dtype=complex),
            np.array([[0, 0], [0, np.sqrt(1 - eta)]], dtype=complex),
        ]
    if kind == "depolarizing":
        r = np.sqrt((1 - eta) / 3)
        return [np.sqrt(eta) * I2, r * SX, r * SY, r * SZ]
    raise ValueError(kind)


def evolve_ref(rho: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for a in ops:
        for b in ops:
            k = np.kron(a, b)
            out += k @ rho @ k.conj().T
    return out


def xblock_spectrum(rho: np.ndarray) -> np.ndarray:
    """Wootters eigenvalues of an X-state from its 2x2 blocks, descending.

    For diag (a, b, c, d) with outer coherence z and inner coherence w the
    spectrum of rho * spin_flip(rho) is {(sqrt(ad) +- |z|)^2, (sqrt(bc) +- |w|)^2}.
    """
    a, b, c, d = np.diag(rho).real
    z, w = abs(rho[0, 3]), abs(rho[1, 2])
    lams = [
        (np.sqrt(a * d) + z) ** 2,
        (np.sqrt(a * d) - z) ** 2,
        (np.sqrt(b * c) + w) ** 2,
        (np.sqrt(b * c) - w) ** 2,
    ]
    return np.sort(np.array(lams))[::-1]


def xblock_concurrence(rho: np.ndarray) -> float:
    roots = np.sqrt(xblock_spectrum(rho))
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def amplitude_damping_death(gamma: float) -> float:
    """Exponent where the damped corner meets the geometric mean of the
    populations it competes with: solves s(1+s) = 9 gamma^2 / 4, s = 1 - e^-lt."""
    s = (-1.0 + np.sqrt(1.0 + 9.0 * gamma * gamma)) / 2.0
    return float(-np.log(1.0 - s))


def zones_ref(evaluate, lo: float, hi: float, points: int, refine_tol: float,
              zero_tol: float, touch_width: float = 5e-3) -> list[tuple]:
    """Grid-plus-bisection zones, one edge at a time: (death, rebirth, touch) each.

    ``evaluate`` maps strengths (the grid, then one scalar per bisection step)
    to concurrences. A zone's death is ``lo`` when the grid starts dead and its
    rebirth is None when the grid ends dead. Each edge is halved until its
    bracket is no wider than ``refine_tol`` or no float lies between its ends.
    """
    xs = np.linspace(lo, hi, points)
    dead = evaluate(xs) <= zero_tol

    def edge(alive, gone):
        a, b = alive, gone
        while abs(b - a) > refine_tol:
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if float(evaluate(mid)) <= zero_tol:
                b = mid
            else:
                a = mid
        return float(0.5 * (a + b))

    zones = []
    i = 0
    while i < points:
        if not dead[i]:
            i += 1
            continue
        j = i
        while j + 1 < points and dead[j + 1]:
            j += 1
        death = float(xs[0]) if i == 0 else edge(xs[i - 1], xs[i])
        rebirth = None if j == points - 1 else edge(xs[j + 1], xs[j])
        zones.append((death, rebirth, rebirth is not None and rebirth - death <= touch_width))
        i = j + 1
    return zones


# ------------------------------------------------ cross-check eigen solvers

# Absolute accuracy demanded of the 4x4 eigensolver for unit-magnitude entries.
EIG_TOL = 1e-11
# Integrity guards on the direct eigenvalue route.
IM_TOL = 1e-8
NEG_TOL = 1e-8

DK_MAX_ITER = 500
# Durand-Kerner stopping thresholds, relative to the Cauchy root bound.
DK_MOVE_TOL = 1e-14
DK_STALL_TOL = 1e-10

SPIN_FLIP_YY = np.kron(SY, SY).real


class SolverError(RuntimeError):
    """Eigenvalue / root iteration failed, or its spectrum failed a guard."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _require_finite(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError("input contains non-finite entries")
    return m


def eig4(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 4x4 complex matrix (multiset semantics, unordered).

    Backed by the LAPACK QR iteration, which is backward stable on the matrix
    itself; degenerate but semisimple eigenvalues keep full absolute accuracy,
    which a characteristic-polynomial route cannot achieve.
    """
    m = _require_finite(np.asarray(m, dtype=complex))
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise SolverError(f"eigenvalue iteration failed: {exc}") from exc


def charpoly4(m: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients (degree-descending, length 5).

    Faddeev-LeVerrier recursion; exact for integer-valued inputs.
    """
    m = _require_finite(np.asarray(m, dtype=complex))
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
    c = _require_finite(np.asarray(coeffs, dtype=complex).ravel())
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


def concurrence_eig_route(rho: np.ndarray) -> float:
    """Concurrence via the eigenvalues of the non-Hermitian product rho * rho^f.

    An independent cross-check of the singular-value route; accuracy is
    limited to ~sqrt(ulp) when the product has degenerate zero eigenvalues.
    Raises :class:`SolverError` when the spectrum is not real nonnegative.
    """
    rho = np.asarray(rho, dtype=complex)
    flipped = SPIN_FLIP_YY @ rho.conj() @ SPIN_FLIP_YY
    lam = eig4(rho @ flipped)
    worst_im = float(np.max(np.abs(lam.imag)))
    if worst_im > IM_TOL:
        raise SolverError(f"eigenvalue imaginary part {worst_im:.3e} above {IM_TOL}")
    real = lam.real
    if float(np.min(real)) < -NEG_TOL:
        raise SolverError(f"eigenvalue {np.min(real):.3e} below -{NEG_TOL}")
    roots = np.sort(np.sqrt(np.clip(real, 0.0, None)))[::-1]
    return float(min(1.0, max(0.0, roots[0] - roots[1] - roots[2] - roots[3])))
