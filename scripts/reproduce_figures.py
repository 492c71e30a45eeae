"""Regenerate every figure data file and zone report into an output directory.

Runs the esdscan CLI for: the MEMS/Werner comparison, concurrence sweeps for
all six channels in both parameter regimes, zone reports for the flip
channels and amplitude damping, and the full spectrum-verification grid.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from esdscan.cli import _count, main as esdscan

FLIP_GAMMAS = [0.2, 0.4, 0.66, 0.866, 0.9666, 1.0]
DAMPING_GAMMAS = [0.2, 0.4, 0.66, 0.866, 1.0]
FLIP_CHANNELS = ["bitflip", "phaseflip", "bitphaseflip"]
DAMPING_CHANNELS = ["amplitudedamping", "phasedamping", "depolarizing"]


def run(argv: list[str]) -> None:
    code = esdscan(argv)
    if code not in (0, 2):
        raise SystemExit(f"esdscan {' '.join(argv)} failed with exit code {code}")


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

    run(["compare-states", "--steps", "201",
         "--out", str(out / "state_comparison.csv"),
         "--plot-script", str(out / "state_comparison.gp")])

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
            run(sweep)
            run(["zones", "--channel", channel, "--gamma", str(gamma),
                 "--out", str(out / f"zones_{tag}.json")])

    run(["verify-spectra", "--out", str(out / "spectrum_verification.csv")])
    print(f"wrote {len(list(out.iterdir()))} files to {out}/")


if __name__ == "__main__":
    main()
