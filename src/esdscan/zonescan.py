"""Concurrence sweeps over channel strength and ESD/ESDB zone detection.

The MEMS is evolved through the product Kraus channel and scored with the
X-state closed form (every evolved MEMS is an X-state). Zones never come from
the tabulated spectra, which are claims under test (see ``spectra``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .channels import ChannelKind, apply_product, check_strength, kraus_operators
from .concurrence import xstate_concurrence
from .states import check_gamma, mems

ZERO_TOL = 1e-9  # entanglement is dead where the concurrence is at or below this
# A dead interval no wider than this is a tangential zero, not a real zone:
# a quadratic touch C = a (s - s0)^2 stays below ZERO_TOL over a band
# of width 2 sqrt(ZERO_TOL / a), well under 1e-3 for any curvature met here,
# while genuine zones are at least ~0.08 wide.
TOUCH_WIDTH = 5e-3

DEFAULT_GRID_POINTS = 2001


@dataclass(frozen=True)
class SweepConfig:
    """One concurrence sweep: channel, gamma, strength grid and bisection tolerance."""

    kind: ChannelKind
    gamma: float
    strength_min: float = 0.0
    strength_max: float = 1.0
    grid_points: int = DEFAULT_GRID_POINTS
    refine_tol: float = 1e-6

    def __post_init__(self):
        for name in ("gamma", "strength_min", "strength_max"):
            if shape := np.shape(getattr(self, name)):
                raise ValueError(f"{name} must be a scalar, got shape {shape}")
        check_gamma(self.gamma)
        check_strength(self.kind, (self.strength_min, self.strength_max))
        if not self.strength_min < self.strength_max:
            raise ValueError("strength_min must be below strength_max")
        if isinstance(self.grid_points, bool) or not isinstance(self.grid_points, Integral):
            raise ValueError(f"grid_points must be an integer, got {self.grid_points!r}")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if not 0.0 < self.refine_tol < math.inf:
            raise ValueError(
                f"refine_tol must be finite and positive, got {self.refine_tol}")


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


def _concurrence_at(cfg: SweepConfig, strengths: np.ndarray) -> np.ndarray:
    return xstate_concurrence(apply_product(mems(cfg.gamma),
                                            kraus_operators(cfg.kind, strengths)))


def sample_curve(cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """(strengths, concurrences) on a uniform grid, strengths strictly increasing."""
    xs = np.linspace(cfg.strength_min, cfg.strength_max, cfg.grid_points)
    return xs, _concurrence_at(cfg, xs)


def find_zones(cfg: SweepConfig) -> ZoneReport:
    """Detect maximal intervals with concurrence <= ZERO_TOL, refined by bisection.

    All alive/dead edges of the grid are bisected together, one evaluation per
    step; each edge stops at ``refine_tol`` or when no float is left between
    its brackets, whichever comes first. Zones narrower than one grid cell can
    be missed; the default 2001-point grid keeps that risk negligible for the
    curves considered here.
    """
    xs, c = sample_curve(cfg)
    step = np.diff((c <= ZERO_TOL).astype(int), prepend=0, append=0)
    first, last = np.flatnonzero(step == 1), np.flatnonzero(step == -1) - 1  # dead runs
    dies, revives = first[first > 0], last[last < len(xs) - 1]  # runs with a bisected edge
    lo = np.concatenate([xs[dies - 1], xs[revives + 1]])  # alive ends
    hi = np.concatenate([xs[dies], xs[revives]])  # dead ends
    while True:  # one evaluation per step, of the midpoints still open
        mid = 0.5 * (lo + hi)
        todo = (np.abs(hi - lo) > cfg.refine_tol) & (mid != lo) & (mid != hi)
        if not todo.any():
            break
        gone = _concurrence_at(cfg, mid[todo]) <= ZERO_TOL
        hi[todo] = np.where(gone, mid[todo], hi[todo])
        lo[todo] = np.where(gone, lo[todo], mid[todo])

    edges = mid.tolist()
    deaths = [float(xs[0])] * (len(first) - len(dies)) + edges[:len(dies)]
    rebirths = edges[len(dies):] + [None] * (len(last) - len(revives))
    return ZoneReport(zones=[
        Zone(death=d, rebirth=r, touch=r is not None and r - d <= TOUCH_WIDTH)
        for d, r in zip(deaths, rebirths)
    ])
