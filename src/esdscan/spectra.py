"""Closed-form eigenvalue spectra of rho_dp * spin_flip(rho_dp) and their verification.

The closed forms are transcribed literally from the reference expressions,
without algebraic simplification, and are treated as claims under test: the
numerical pipeline (product channel -> Wootters spectrum) is the ground truth
and every disagreement is reported, never patched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelKind, apply_product, check_strength, kraus_operators
from .concurrence import wootters_spectrum
from .states import check_gamma, mems

# Square-root arguments driven negative by rounding are clamped at 0 down to
# this guard; anything below it is a genuine formula-domain violation.
SQRT_GUARD = 1e-8
# Default elementwise tolerance when comparing closed-form vs numeric spectra.
COMPARE_TOL = 1e-8


class FormulaDomainError(ValueError):
    """A closed-form sqrt argument or eigenvalue is NaN/inf or below the -1e-8 guard."""

    def __init__(self, kind: ChannelKind, gamma: float, strength: float, arg: float):
        rule = f"< -{SQRT_GUARD}" if np.isfinite(arg) else "is not finite"
        super().__init__(
            f"{kind.value}: sqrt argument or eigenvalue {arg:.3e} {rule} "
            f"at gamma={gamma}, strength={strength}"
        )
        self.kind = kind
        self.gamma = gamma
        self.strength = strength
        self.arg = arg


@dataclass(frozen=True)
class DiscrepancyRecord:
    """One grid cell where closed form and numeric spectra disagree.

    ``closed_form`` is None when the formula could not be evaluated there (a
    negative sqrt argument or a NaN/inf eigenvalue); ``max_abs_error`` is +inf then.
    """

    kind: ChannelKind
    gamma: float
    strength: float
    max_abs_error: float
    closed_form: tuple[float, float, float, float] | None
    numeric: tuple[float, float, float, float]


@np.errstate(over="ignore", invalid="ignore")
def _raw_lambdas(kind: ChannelKind, gamma, strength):
    """Literal formula evaluation.

    Returns (lambdas (..., 4), badness (...)) where badness is the most negative
    sqrt argument or eigenvalue per cell, NaN where an eigenvalue overflowed;
    a cell is evaluable only where badness >= -SQRT_GUARD.
    """
    g = np.asarray(gamma, dtype=float)
    s = np.asarray(strength, dtype=float)
    g, s = np.broadcast_arrays(g, s)
    ok = np.zeros(g.shape)  # most negative sqrt argument encountered, per cell

    def guarded_sqrt(arg):
        nonlocal ok
        ok = np.minimum(ok, arg)
        return np.sqrt(np.clip(arg, 0.0, None))

    if kind is ChannelKind.BIT_FLIP:
        p = s
        l1 = (3 * g + 2 * (3 * g - 1) * (p - 1) * p - 2) ** 2 / 36
        l2 = (3 * g + 2 * (3 * g + 1) * (p - 1) * p + 2) ** 2 / 36
        root = guarded_sqrt(g**2 * (p - 2) * (p - 1) ** 3 * p**3 * (p + 1))
        poly = p * (p * (p**2 + 9 * g**2 * (p - 1) ** 2 - 2 * p - 1) + 2)
        l3 = (poly - 6 * root) / 9
        l4 = (poly + 6 * root) / 9
    elif kind is ChannelKind.PHASE_FLIP:
        p = s
        zero = np.zeros_like(p)
        l1, l2 = zero, zero
        l3 = (2 - 3 * g * (1 - 2 * p) ** 2) ** 2 / 36
        l4 = (3 * g * (1 - 2 * p) ** 2 + 2) ** 2 / 36
    elif kind is ChannelKind.BIT_PHASE_FLIP:
        p = s
        l1 = (3 * g + 6 * (g - 1) * (p - 1) * p - 2) ** 2 / 36
        l2 = (3 * g + 6 * (g + 1) * (p - 1) * p + 2) ** 2 / 36
        root = guarded_sqrt(g**2 * (p - 1) ** 3 * p**3 * (9 * (p - 1) * p + 2))
        poly = (p - 1) * p * (9 * (g**2 + 1) * (p - 1) * p + 2)
        l3 = (poly - 6 * root) / 9
        l4 = (poly + 6 * root) / 9
    elif kind is ChannelKind.AMPLITUDE_DAMPING:
        lt = s
        l1 = np.exp(-4 * lt) * (np.exp(lt) - 1) * (2 * np.exp(lt) - 1) / 9
        l2 = l1
        head = np.exp(8 * lt) * (
            3 * np.exp(lt) * ((3 * g**2 + 4) * np.exp(lt) - 4) + 4
        )
        root = guarded_sqrt(
            g**2 * np.exp(19 * lt) * (2 * np.sinh(lt) + 4 * np.cosh(lt) - 3)
        )
        l3 = np.exp(-12 * lt) * (head - 12 * root) / 36
        l4 = np.exp(-12 * lt) * (head + 12 * root) / 36
    elif kind is ChannelKind.PHASE_DAMPING:
        lt = s
        zero = np.zeros_like(lt)
        l1, l2 = zero, zero
        l3 = np.exp(-4 * lt) * (2 * np.exp(2 * lt) - 3 * g) ** 2 / 36
        l4 = np.exp(-4 * lt) * (3 * g + 2 * np.exp(2 * lt)) ** 2 / 36
    elif kind is ChannelKind.DEPOLARIZING:
        lt = s
        l1 = (
            4 / 81 * g**2 * np.exp(-4 * lt)
            * (-5 * np.exp(lt) + np.exp(2 * lt) + 4) ** 2
        )
        l2 = l1
        l3 = (
            np.exp(-2 * lt)
            * (
                (45 * g - 6) * np.sinh(lt)
                + (10 - 75 * g) * np.cosh(lt)
                + 48 * g + 8
            ) ** 2
            / 2916
        )
        l4 = (
            np.exp(-4 * lt)
            * (np.exp(lt) * ((15 * g + 2) * np.exp(lt) - 48 * g + 8) + 60 * g + 8) ** 2
            / 2916
        )
    else:  # pragma: no cover
        raise ValueError(f"unhandled channel kind {kind}")

    cols = np.broadcast_arrays(l1, l2, l3, l4)  # reduced over axis 0: fast
    worst = np.where(np.max(cols, axis=0) < np.inf, np.min(cols, axis=0), np.nan)
    return np.stack(cols, axis=-1), np.minimum(ok, worst)


def closed_form_spectrum(kind: ChannelKind, gamma, strength) -> np.ndarray:
    """The four closed-form eigenvalues, clamped to >= 0, shape (..., 4).

    Raises
    ------
    ValueError
        When gamma or the strength lies outside its domain.
    FormulaDomainError
        When a square-root argument falls below -1e-8 (as in the bit-phase-flip
        formulas for p(1-p) < 2/9 at any gamma > 0) or an eigenvalue is NaN/inf.
    """
    g, s = check_gamma(gamma), check_strength(kind, strength)
    lam, badness = _raw_lambdas(kind, g, s)
    if not np.all(badness >= -SQRT_GUARD):
        flat = int(np.argmin(badness))  # the first NaN, else the most negative
        gg, ss = np.broadcast_arrays(g, s)
        raise FormulaDomainError(kind, float(gg.ravel()[flat]), float(ss.ravel()[flat]),
                                 float(badness.ravel()[flat]))
    return np.clip(lam, 0.0, None)


def concurrence_from_spectrum(lambdas) -> np.ndarray:
    """max{0, sqrt(l_(1)) - sqrt(l_(2)) - sqrt(l_(3)) - sqrt(l_(4))}, roots descending."""
    lam = np.asarray(lambdas, dtype=float)
    roots = np.sort(np.sqrt(np.clip(lam, 0.0, None)), axis=-1)[..., ::-1]
    c = np.maximum(0.0, roots[..., 0] - roots[..., 1:].sum(axis=-1))
    return c if c.shape else float(c)


def numeric_spectrum(kind: ChannelKind, gamma, strength) -> np.ndarray:
    """Ground-truth spectrum from the product-channel pipeline, descending (..., 4)."""
    g = np.asarray(gamma, dtype=float)
    s = np.asarray(strength, dtype=float)
    g, s = np.broadcast_arrays(g, s)
    rho = apply_product(mems(g), kraus_operators(kind, s))
    return wootters_spectrum(rho)


def compare_spectrum(
    kind: ChannelKind, gamma: float, strength: float, tol: float = COMPARE_TOL
) -> DiscrepancyRecord | None:
    """One cell of :func:`scan_grid`: its record, or None if the spectra agree within tol."""
    records = scan_grid(kind, [gamma], [strength], tol)
    return records[0] if records else None


def scan_grid(
    kind: ChannelKind,
    gammas: np.ndarray,
    strengths: np.ndarray,
    tol: float = COMPARE_TOL,
) -> list[DiscrepancyRecord]:
    """Full-grid comparison as sorted multisets, ordered by (gamma, strength).

    A cell is reported when the spectra differ by more than ``tol``. Cells
    where the closed form cannot be evaluated are reported with
    ``max_abs_error = inf`` so the discrepancy report stays complete instead
    of aborting the scan.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    gam = np.asarray(gammas, dtype=float)[:, None]
    st = np.asarray(strengths, dtype=float)[None, :]
    gg, ss = np.broadcast_arrays(gam, st)

    lam, badness = _raw_lambdas(kind, gg, ss)
    bad = ~(badness >= -SQRT_GUARD)
    closed = np.sort(np.clip(lam, 0.0, None), axis=-1)
    numeric = np.sort(numeric_spectrum(kind, gg, ss), axis=-1)
    dev = np.where(bad, np.inf, np.max(np.abs(closed - numeric), axis=-1))

    return [
        DiscrepancyRecord(
            kind=kind,
            gamma=float(gg[i, j]),
            strength=float(ss[i, j]),
            max_abs_error=float(dev[i, j]),
            closed_form=None if bad[i, j] else tuple(closed[i, j].tolist()),
            numeric=tuple(numeric[i, j].tolist()),
        )
        for i, j in np.argwhere(bad | (dev > tol))
    ]
