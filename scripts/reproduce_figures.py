"""Regenerate every figure data file and zone report into an output directory.

Runs the esdscan CLI for: the MEMS/Werner comparison, concurrence sweeps and
zone reports for all six channels in both parameter regimes, and the full
spectrum-verification grid. Prints the zone table read back from the zone
reports, one line per (channel, gamma) case, and writes it to zone_table.txt.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from esdscan.cli import _count, main as esdscan

# The paper's cases in figure order; the golden and zone tests import them from here.
FLIP_GAMMAS = (0.2, 0.4, 0.66, 0.866, 0.9666, 1.0)
DAMPING_GAMMAS = (0.2, 0.4, 0.66, 0.866, 1.0)
CASES = [(ch, g) for ch in ("bitflip", "phaseflip", "bitphaseflip") for g in FLIP_GAMMAS] + [
    (ch, g) for ch in ("amplitudedamping", "phasedamping", "depolarizing") for g in DAMPING_GAMMAS]


def tag(channel: str, gamma: float) -> str:  # bitflip_g0p2
    return f"{channel}_g{gamma:g}".replace(".", "p")


def sweep_argv(channel: str, gamma: float, steps: int) -> list[str]:
    argv = ["sweep", "--channel", channel, "--gamma", str(gamma), "--steps", str(steps)]
    # the closed-form column needs formulas that evaluate; bitphaseflip's mostly do not
    return argv if channel == "bitphaseflip" else argv + ["--engine", "closedform"]


def zones_argv(channel: str, gamma: float) -> list[str]:
    return ["zones", "--channel", channel, "--gamma", str(gamma)]


def run(argv: list[str], out: Path, plot: bool = False) -> int:
    """Run one esdscan command into ``out`` (and a .gp plot script); count the files."""
    argv = argv + ["--out", str(out)]
    argv += ["--plot-script", str(out.with_suffix(".gp"))] if plot else []
    code = esdscan(argv)
    if code not in (0, 2):
        raise SystemExit(f"esdscan {' '.join(argv)} failed with exit code {code}")
    return 2 if plot else 1


def describe(zones_path: Path) -> str:
    """One zone-table line from a zone report, skipping its '#' manifest lines."""
    lines = zones_path.read_text(encoding="utf-8").splitlines(keepends=True)
    doc = json.loads("".join(line for line in lines if not line.startswith("#")))
    zones = [f"{'touch' if z['touch'] else 'zone'} {z['death']:.6f} -> "
             + ("end of domain" if z["rebirth"] is None else f"{z['rebirth']:.6f}")
             for z in doc["zones"]]
    return f"{doc['channel']:<16}  gamma={doc['gamma']:<7g}  {'; '.join(zones) or 'no zone'}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--steps", type=lambda t: _count(t, 2), default=401,
                        help="sweep resolution")
    args = parser.parse_args()
    out = args.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"argument --out-dir: cannot create {str(out)!r}: {exc.strerror}")

    written = run(["compare-states", "--steps", "201"], out / "state_comparison.csv", plot=True)

    table = []
    for case in CASES:
        name = tag(*case)
        written += run(sweep_argv(*case, args.steps), out / f"sweep_{name}.csv", plot=True)
        written += run(zones_argv(*case), out / f"zones_{name}.json")
        table.append(describe(out / f"zones_{name}.json"))

    written += run(["verify-spectra"], out / "spectrum_verification.csv")
    (out / "zone_table.txt").write_text("\n".join(table) + "\n", encoding="utf-8")
    print(*table, f"wrote {written + 1} files to {out}/", sep="\n")  # + zone_table.txt


if __name__ == "__main__":
    main()
