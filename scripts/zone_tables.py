"""Print the sudden-death/rebirth zone tables for all channels and key gammas."""

from __future__ import annotations

import argparse

from esdscan.channels import ChannelKind
from esdscan.cli import _count
from esdscan.zonescan import DEFAULT_GRID_POINTS, SweepConfig, find_zones

CASES = {
    ChannelKind.BIT_FLIP: [0.2, 0.4, 0.66, 0.866, 0.9666, 1.0],
    ChannelKind.BIT_PHASE_FLIP: [0.2, 0.4, 0.66, 0.866, 0.9666, 1.0],
    ChannelKind.PHASE_FLIP: [0.2, 0.66, 1.0],
    ChannelKind.AMPLITUDE_DAMPING: [0.2, 0.4, 0.66, 0.866, 1.0],
    ChannelKind.PHASE_DAMPING: [0.2, 0.66, 1.0],
    ChannelKind.DEPOLARIZING: [0.2, 0.4, 0.66, 1.0],
}


def describe(kind: ChannelKind, gamma: float, grid_points: int) -> str:
    report = find_zones(SweepConfig(kind=kind, gamma=gamma, grid_points=grid_points))
    if not report.zones:
        return "no zone"
    parts = []
    for z in report.zones:
        end = "end of domain" if z.rebirth is None else f"{z.rebirth:.6f}"
        label = "touch" if z.touch else "zone"
        parts.append(f"{label} {z.death:.6f} -> {end}")
    return "; ".join(parts)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid-points", type=lambda t: _count(t, 2),
                        default=DEFAULT_GRID_POINTS)
    args = parser.parse_args()

    width = max(len(k.value) for k in CASES)
    for kind, gammas in CASES.items():
        for gamma in gammas:
            print(f"{kind.value:<{width}}  gamma={gamma:<7g}  "
                  f"{describe(kind, gamma, args.grid_points)}")
        print()


if __name__ == "__main__":
    main()
