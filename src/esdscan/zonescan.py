"""Concurrence sweeps over channel strength and ESD/ESDB zone detection.

The ``numeric`` engine evolves the MEMS through the product Kraus channel and
scores it with the X-state closed form (every evolved MEMS is an X-state);
the ``closed_form`` engine uses the tabulated reference spectra. The general
Wootters route stays the ground truth of ``verify-spectra``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelKind, apply_product, kraus_operators
from .concurrence import xstate_concurrence
from .spectra import closed_form_spectrum, concurrence_from_spectrum
from .states import mems

ENGINES = ("numeric", "closed_form")

# A dead interval no wider than this is a tangential zero, not a real zone:
# a quadratic touch C = a (s - s0)^2 stays below zero_tol = 1e-9 over a band
# of width 2 sqrt(zero_tol / a), well under 1e-3 for any curvature met here,
# while genuine zones are at least ~0.08 wide.
TOUCH_WIDTH = 5e-3

DEFAULT_GRID_POINTS = 2001
DEFAULT_REFINE_TOL = 1e-6
DEFAULT_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class SweepConfig:
    """One concurrence sweep: channel, state parameter, grid and detection knobs."""

    kind: ChannelKind
    gamma: float
    strength_min: float = 0.0
    strength_max: float = 1.0
    grid_points: int = DEFAULT_GRID_POINTS
    refine_tol: float = DEFAULT_REFINE_TOL
    zero_tol: float = DEFAULT_ZERO_TOL
    engine: str = "numeric"

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not self.strength_min < self.strength_max:
            raise ValueError("strength_min must be below strength_max")
        if self.strength_min < 0:
            raise ValueError("strength_min must be >= 0")
        if self.kind.is_flip and self.strength_max > 1.0:
            raise ValueError(f"{self.kind.value}: strength domain is [0, 1]")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if self.refine_tol <= 0 or self.zero_tol <= 0:
            raise ValueError("refine_tol and zero_tol must be positive")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")


@dataclass(frozen=True)
class ConcurrenceCurve:
    """Sampled concurrence against channel strength, strictly increasing in strength."""

    strengths: np.ndarray
    concurrences: np.ndarray

    @property
    def samples(self) -> list[tuple[float, float]]:
        return [(float(s), float(c)) for s, c in zip(self.strengths, self.concurrences)]


@dataclass(frozen=True)
class Zone:
    """A maximal interval of vanished concurrence.

    ``rebirth`` is None when the zone runs to the end of the sweep domain;
    ``touch`` marks an isolated tangential zero rather than a real interval.
    """

    death: float
    rebirth: float | None
    touch: bool = False


@dataclass(frozen=True)
class ZoneReport:
    zones: list[Zone] = field(default_factory=list)


def _concurrence_at(cfg: SweepConfig, strengths) -> np.ndarray:
    s = np.asarray(strengths, dtype=float)
    if cfg.engine == "numeric":
        rho = apply_product(mems(cfg.gamma), kraus_operators(cfg.kind, s))
        c = xstate_concurrence(rho)
    else:
        c = concurrence_from_spectrum(closed_form_spectrum(cfg.kind, cfg.gamma, s))
    return np.asarray(c, dtype=float)


def sample_curve(cfg: SweepConfig) -> ConcurrenceCurve:
    """Uniformly sample the sweep; deterministic for a given config."""
    xs = np.linspace(cfg.strength_min, cfg.strength_max, cfg.grid_points)
    return ConcurrenceCurve(strengths=xs, concurrences=_concurrence_at(cfg, xs))


def _bisect_edge(cfg: SweepConfig, alive: float, dead: float) -> float:
    """Locate the alive/dead boundary between two bracketing strengths.

    Stops at ``refine_tol`` or when no float is left between the brackets,
    whichever comes first.
    """
    lo, hi = alive, dead
    while abs(hi - lo) > cfg.refine_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if float(_concurrence_at(cfg, mid)) <= cfg.zero_tol:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def find_zones(cfg: SweepConfig) -> ZoneReport:
    """Detect maximal intervals with concurrence <= zero_tol, refined by bisection.

    Zones narrower than one grid cell can be missed; the default 2001-point
    grid keeps that risk negligible for the curves considered here.
    """
    curve = sample_curve(cfg)
    dead = curve.concurrences <= cfg.zero_tol
    xs = curve.strengths
    n = len(xs)

    zones: list[Zone] = []
    i = 0
    while i < n:
        if not dead[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and dead[j + 1]:
            j += 1
        death = float(xs[0]) if i == 0 else float(_bisect_edge(cfg, xs[i - 1], xs[i]))
        rebirth = None if j == n - 1 else float(_bisect_edge(cfg, xs[j + 1], xs[j]))
        touch = rebirth is not None and (rebirth - death) <= TOUCH_WIDTH
        zones.append(Zone(death=death, rebirth=rebirth, touch=bool(touch)))
        i = j + 1
    return ZoneReport(zones=zones)
