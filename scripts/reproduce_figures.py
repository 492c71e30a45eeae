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

FLIP_GAMMAS = [0.2, 0.4, 0.66, 0.866, 0.9666, 1.0]
DAMPING_GAMMAS = [0.2, 0.4, 0.66, 0.866, 1.0]
FLIP_CHANNELS = ["bitflip", "phaseflip", "bitphaseflip"]
DAMPING_CHANNELS = ["amplitudedamping", "phasedamping", "depolarizing"]


def run(argv: list[str]) -> list[str]:
    """Run one esdscan command; return the paths it wrote."""
    code = esdscan(argv)
    if code not in (0, 2):
        raise SystemExit(f"esdscan {' '.join(argv)} failed with exit code {code}")
    return [path for flag, path in zip(argv, argv[1:]) if flag in ("--out", "--plot-script")]


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

    written = run(["compare-states", "--steps", "201",
                   "--out", str(out / "state_comparison.csv"),
                   "--plot-script", str(out / "state_comparison.gp")])

    table = []
    for channel in FLIP_CHANNELS + DAMPING_CHANNELS:
        gammas = FLIP_GAMMAS if channel in FLIP_CHANNELS else DAMPING_GAMMAS
        for gamma in gammas:
            tag = f"{channel}_g{gamma:g}".replace(".", "p")
            sweep = ["sweep", "--channel", channel, "--gamma", str(gamma),
                     "--steps", str(args.steps),
                     "--out", str(out / f"sweep_{tag}.csv"),
                     "--plot-script", str(out / f"sweep_{tag}.gp")]
            # the closed-form column is only defined where the formulas
            # evaluate; bitphaseflip's do not over most of [0, 1]
            if channel != "bitphaseflip":
                sweep += ["--engine", "closedform"]
            written += run(sweep)
            zones = out / f"zones_{tag}.json"
            written += run(["zones", "--channel", channel, "--gamma", str(gamma),
                            "--out", str(zones)])
            table.append(describe(zones))

    written += run(["verify-spectra", "--out", str(out / "spectrum_verification.csv")])
    (out / "zone_table.txt").write_text("\n".join(table) + "\n", encoding="utf-8")
    print(*table, f"wrote {len(written) + 1} files to {out}/", sep="\n")  # + zone_table.txt


if __name__ == "__main__":
    main()
