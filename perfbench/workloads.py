"""Workload inputs, generated from a seed with the standard library only.

Nothing here imports numpy or esdscan: the worker builds its inputs before it
starts the timed ``import esdscan`` that ``setup_s`` measures.

Seed 0 is the paper's case set. Any other seed draws new inputs of the same
size, so every seed does the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

FLIP_CHANNELS = ("bitflip", "phaseflip", "bitphaseflip")
DAMPING_CHANNELS = ("amplitudedamping", "phasedamping", "depolarizing")
CHANNELS = FLIP_CHANNELS + DAMPING_CHANNELS

# The (channel, gamma) cases of scripts/reproduce_figures.py, in its order.
FLIP_GAMMAS = (0.2, 0.4, 0.66, 0.866, 0.9666, 1.0)
DAMPING_GAMMAS = (0.2, 0.4, 0.66, 0.866, 1.0)
PAPER_CASES = tuple(
    (ch, g)
    for ch in CHANNELS
    for g in (FLIP_GAMMAS if ch in FLIP_CHANNELS else DAMPING_GAMMAS)
)

SWEEP_STEPS = 401
COMPARE_STATES_STEPS = 201
POINT_QUERIES = 5000

# Reduced sizes for --smoke: one short pass per workload.
SMOKE_GRID = 12
SMOKE_SWEEP_STEPS = 41
SMOKE_QUERIES = 300

WORKLOADS = ("verify-grid", "figures", "point-eval")


@dataclass(frozen=True)
class CliOp:
    """One ``esdscan.cli.main`` invocation and what its output must satisfy."""

    argv: tuple[str, ...]
    kind: str  # "verify", "compare-states", "sweep" or "zones"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    items: str  # what items_per_s counts, plural
    items_per_pass: int
    ops: tuple = ()  # CliOp for CLI workloads, (channel, gamma, strength) for point-eval


def _verify_grid(seed: int, smoke: bool) -> Workload:
    argv = ["verify-spectra", "--no-manifest"]
    if smoke:
        g_steps = s_steps = SMOKE_GRID
    elif seed == 0:
        g_steps = s_steps = 100
    else:
        # Both axes vary in 97..103 while the cell count stays within 0.1 %
        # of 10^4, so the seed changes the grid but not the amount of work.
        g_steps = random.Random(seed).randint(97, 103)
        s_steps = round(10_000 / g_steps)
    if smoke or seed != 0:
        argv += ["--gamma-steps", str(g_steps), "--steps", str(s_steps)]
    op = CliOp(tuple(argv), "verify", {"gamma_steps": g_steps, "steps": s_steps})
    cells = len(CHANNELS) * g_steps * s_steps
    return Workload("verify-grid", seed, "grid cells", cells, (op,))


def _figures(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    cases = PAPER_CASES
    if seed != 0:
        cases = tuple((ch, rng.random()) for ch, _ in cases)
    steps = SWEEP_STEPS
    if smoke:
        cases = tuple(next(c for c in cases if c[0] == ch) for ch in CHANNELS)
        steps = SMOKE_SWEEP_STEPS
    ops = [CliOp(("compare-states", "--steps", str(COMPARE_STATES_STEPS), "--no-manifest"),
                 "compare-states", {"steps": COMPARE_STATES_STEPS})]
    for ch, g in cases:
        # repr round-trips the float exactly through argparse
        gamma = str(g) if seed == 0 else repr(g)
        sweep = ["sweep", "--channel", ch, "--gamma", gamma, "--steps", str(steps),
                 "--no-manifest"]
        closed_form = ch != "bitphaseflip"  # as in scripts/reproduce_figures.py
        if closed_form:
            sweep += ["--engine", "closedform"]
        ops.append(CliOp(tuple(sweep), "sweep",
                         {"channel": ch, "gamma": g, "steps": steps,
                          "closed_form": closed_form}))
        ops.append(CliOp(("zones", "--channel", ch, "--gamma", gamma, "--no-manifest"),
                         "zones", {"channel": ch, "gamma": g}))
    return Workload("figures", seed, "cases", len(cases), tuple(ops))


def _point_eval(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    n = SMOKE_QUERIES if smoke else POINT_QUERIES
    queries = []
    for i in range(n):
        if seed == 0:
            ch, g = PAPER_CASES[i % len(PAPER_CASES)]
        else:
            ch, g = CHANNELS[i % len(CHANNELS)], rng.random()
        queries.append((ch, g, rng.random()))
    return Workload("point-eval", seed, "queries", n, tuple(queries))


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The inputs of workload ``name`` for ``seed``; ``smoke`` shrinks them."""
    makers = {"verify-grid": _verify_grid, "figures": _figures, "point-eval": _point_eval}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r} (choose from: {', '.join(WORKLOADS)})")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return makers[name](seed, smoke)
