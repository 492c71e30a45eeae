"""Concurrence sweeps over channel strength and ESD/ESDB zone detection.

Every evolved MEMS is an X-state: only its six X entries are evolved, from one
real table of the Kraus entries, and scored with the X-state closed form. Zones
never come from the tabulated spectra, which are claims under test (see ``spectra``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .channels import ChannelKind, _kraus_entries, check_strength
from .concurrence import xstate_concurrence
from .states import check_gamma, mems

ZERO_TOL = 1e-9  # entanglement is dead where the concurrence is at or below this
# A dead interval no wider than this is a tangential zero, not a real zone:
# a quadratic touch C = a (s - s0)^2 stays below ZERO_TOL over a band
# of width 2 sqrt(ZERO_TOL / a), well under 1e-3 for any curvature met here,
# while genuine zones are at least ~0.08 wide.
TOUCH_WIDTH = 5e-3

DEFAULT_GRID_POINTS = 2001
REFINE_TOL = 1e-6  # bisection stops once an edge's brackets are no farther apart
LOOKAHEAD = 5  # bisection steps per evaluation: 2**LOOKAHEAD - 1 midpoints per open edge


@dataclass(frozen=True)
class SweepConfig:
    """One concurrence sweep: channel, gamma and strength grid."""

    kind: ChannelKind
    gamma: float
    strength_min: float = 0.0
    strength_max: float = 1.0
    grid_points: int = DEFAULT_GRID_POINTS

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
    """Concurrence of the MEMS under ``cfg.kind`` on both qubits, per strength.

    No Kraus set here mixes populations with coherences, so only the six X
    entries are evolved. Per qubit, P[i, j] = sum_k |Ek[i, j]|^2 maps the
    populations and C[i, j] = sum_k Ek[i, j] Ek[1-i, 1-j]* the coherences
    (rho_01, rho_10), so V = [[rho_11, rho_22], [rho_33, rho_44]] -> P V P^T
    and U = [[rho_14, rho_23], [rho_32, rho_41]] -> C U C^T.
    ``xstate_concurrence`` scores, and guards, the X-state they fill.
    """
    rho, shape = mems(cfg.gamma).real, np.shape(strengths)
    # C pairs real entries with real, imaginary with imaginary: Ek[a] Ek[b]* = e[k, a] e[k, b]
    e = _kraus_entries(cfg.kind, strengths)
    x = np.zeros((16, e.shape[-1]))  # the evolved states, entry by entry
    for rev, flat in ((np.s_[:], np.s_[::5]), (np.s_[::-1], np.s_[3:13:3])):
        m = np.einsum("kas,kas->as", e, e[:, rev]).reshape(2, 2, -1)  # P, then C
        mv = rho.reshape(16)[flat].reshape(2, 2).T @ m  # M V: V for P, U for C
        x[flat] = (mv[:, None, 0] * m[None, :, 0] + mv[:, None, 1] * m[None, :, 1]).reshape(4, -1)
    return xstate_concurrence(x.T.reshape(*shape, 4, 4))


def sample_curve(cfg: SweepConfig) -> tuple[np.ndarray, np.ndarray]:
    """(strengths, concurrences) on a uniform grid, strengths strictly increasing."""
    xs = np.linspace(cfg.strength_min, cfg.strength_max, cfg.grid_points)
    return xs, _concurrence_at(cfg, xs)


def find_zones(cfg: SweepConfig) -> ZoneReport:
    """Detect maximal intervals with concurrence <= ZERO_TOL, refined by bisection.

    All alive/dead edges of the grid are bisected together, one evaluation per
    ``LOOKAHEAD`` steps: it scores every midpoint those steps could visit, and
    the steps are then replayed from the scores. Each edge stops at
    ``REFINE_TOL`` or when no float is left between its brackets, whichever
    comes first. Zones narrower than one grid cell can be missed; the default
    2001-point grid keeps that risk negligible for the curves considered here.
    """
    xs, c = sample_curve(cfg)
    step = np.diff((c <= ZERO_TOL).astype(int), prepend=0, append=0)
    first, last = np.flatnonzero(step == 1), np.flatnonzero(step == -1) - 1  # dead runs
    dies, revives = first[first > 0], last[last < len(xs) - 1]  # runs with a bisected edge
    lo = np.concatenate([xs[dies - 1], xs[revives + 1]])  # alive ends
    hi = np.concatenate([xs[dies], xs[revives]])  # dead ends
    while True:  # one round of LOOKAHEAD steps per evaluation, on the edges still open
        mid = 0.5 * (lo + hi)
        todo = (np.abs(hi - lo) > REFINE_TOL) & (mid != lo) & (mid != hi)
        if not todo.any():
            break
        ends, tree = np.stack([lo[todo], hi[todo]], -1)[:, None], []  # (alive, dead) ends
        for _ in range(LOOKAHEAD):  # heap order: node j's children are 2j + 1 (j dead), 2j + 2
            tree.append(m := 0.5 * (ends[..., 0] + ends[..., 1]))
            ends = np.repeat(ends, 2, axis=1)
            ends[:, ::2, 1] = ends[:, 1::2, 0] = m
        gone = (_concurrence_at(cfg, np.hstack(tree)) <= ZERO_TOL).tolist()
        for i, dead in zip(np.flatnonzero(todo).tolist(), gone):  # replay the round's steps
            a, b, j = lo[i].item(), hi[i].item(), 0
            while j < len(dead):  # each edge under its own stop rule
                m = 0.5 * (a + b)
                if not (abs(b - a) > REFINE_TOL and m != a and m != b):
                    break
                a, b, j = (a, m, 2 * j + 1) if dead[j] else (m, b, 2 * j + 2)
            lo[i], hi[i] = a, b

    edges = mid.tolist()
    deaths = [float(xs[0])] * (len(first) - len(dies)) + edges[:len(dies)]
    rebirths = edges[len(dies):] + [None] * (len(last) - len(revives))
    return ZoneReport(zones=[
        Zone(death=d, rebirth=r, touch=r is not None and r - d <= TOUCH_WIDTH)
        for d, r in zip(deaths, rebirths)
    ])
