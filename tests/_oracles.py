"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way (explicit kron
loops, X-block pair formulas) so it shares no code path with the package: it
imports nothing from ``esdscan``. The direct eigenvalue route to the
concurrence at the end cross-checks the package's singular-value route.
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
    """The Kraus matrices of Nielsen & Chuang sec. 8.3, written out one by one."""
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


# ------------------------------------------------ direct eigenvalue route

# Integrity guards on the direct eigenvalue route.
IM_TOL = 1e-8
NEG_TOL = 1e-8

SPIN_FLIP_YY = np.kron(SY, SY).real


class SolverError(RuntimeError):
    """The spectrum of rho * rho^f failed a guard."""


def concurrence_eig_route(rho: np.ndarray) -> float:
    """Concurrence via the eigenvalues of the non-Hermitian product rho * rho^f.

    An independent cross-check of the singular-value route; accuracy is
    limited to ~sqrt(ulp) when the product has degenerate zero eigenvalues.
    Raises :class:`SolverError` when the spectrum is not real nonnegative.
    """
    rho = np.asarray(rho, dtype=complex)
    flipped = SPIN_FLIP_YY @ rho.conj() @ SPIN_FLIP_YY
    lam = np.linalg.eigvals(rho @ flipped)
    worst_im = float(np.max(np.abs(lam.imag)))
    if worst_im > IM_TOL:
        raise SolverError(f"eigenvalue imaginary part {worst_im:.3e} above {IM_TOL}")
    real = lam.real
    if float(np.min(real)) < -NEG_TOL:
        raise SolverError(f"eigenvalue {np.min(real):.3e} below -{NEG_TOL}")
    roots = np.sort(np.sqrt(np.clip(real, 0.0, None)))[::-1]
    return float(min(1.0, max(0.0, roots[0] - roots[1] - roots[2] - roots[3])))
