"""Command-line front end: state comparison, sweeps, zone reports, spectrum checks.

``sweep`` and ``zones`` evolve only the six X entries of the MEMS and score
them with the X-state closed form (``sweep --engine closedform`` adds a column
from the tabulated spectra); ``verify-spectra`` scores full ``apply_product``
states with the Wootters construction, the ground truth the tabulated spectra
are checked against.

Exit codes: 0 success, 1 argument/domain error, 2 spectrum discrepancies found,
3 numerical-integrity failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channels import ChannelKind, check_strength
from .concurrence import IntegrityError
from .spectra import (FormulaDomainError, closed_form_spectrum,
                      concurrence_from_spectrum, scan_grid)
from .states import werner_concurrence_raw
from .zonescan import (
    DEFAULT_GRID_POINTS,
    SweepConfig,
    find_zones,
    sample_curve,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISCREPANCIES = 2
EXIT_INTEGRITY = 3
_NUMBER = "%.9g"  # every number the CLI prints carries 9 significant digits


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise ValueError(message)


_NOT_PARAMETERS = {"out", "plot_script", "no_manifest", "func"}
_MAX_CELLS = 10**6  # grid cells evaluated per call; about 1.3 KiB of peak memory each


def _write(args, lines: list[str], columns: list[str] | None = None) -> None:
    """Write the manifest and ``lines`` to --out or stdout, then the plot script."""
    plot_script = getattr(args, "plot_script", None)  # compare-states and sweep only
    if plot_script and args.out is None:
        raise ValueError("--plot-script requires --out (the script references the CSV)")
    if plot_script and Path(plot_script).resolve() == Path(args.out).resolve():
        raise ValueError("--plot-script must not name the --out file")
    if not args.no_manifest:
        params = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                          if k not in _NOT_PARAMETERS and v is not None)
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines = [f"# command: {args.command}", f"# parameters: {params}",
                 f"# tool_version: {__version__}", f"# timestamp: {stamp}", *lines]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    out.write_text(text, encoding="utf-8")
    if plot_script:
        plots = ", \\\n     ".join(
            f"'{out.name}' using 1:{i} with lines" for i in range(2, len(columns) + 1))
        try:
            Path(plot_script).write_text(
                "set datafile separator ','\nset datafile commentschars '#'\n"
                f"set key autotitle columnhead\nset grid\nplot {plots}\n", encoding="utf-8")
        except OSError:
            out.unlink()  # a failed run leaves no output behind
            raise


def _table(args, columns: list[str], series) -> int:
    """Write a CSV whose columns hold the parallel arrays in ``series``."""
    row = ",".join([_NUMBER] * len(columns))
    rows = [",".join(columns)] + [row % values for values in zip(*series)]
    _write(args, rows, columns)
    return EXIT_OK


def _count(text: str, least: int = 1) -> int:
    """argparse type of every grid count: an integer from ``least`` to ``_MAX_CELLS``."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not least <= n <= _MAX_CELLS:
        raise argparse.ArgumentTypeError(
            f"must be an integer from {least} to {_MAX_CELLS}, got {text!r}")
    return n


# ---------------------------------------------------------------- subcommands

def _cmd_compare_states(args) -> int:
    gammas = np.linspace(0.0, 1.0, args.steps)
    raw = werner_concurrence_raw(gammas)  # the MEMS concurrence is gamma itself
    return _table(args, ["gamma", "c_werner_raw", "c_werner", "c_mems"],
                  [gammas, raw, np.maximum(0.0, raw), gammas])


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(kind=ChannelKind(args.channel), gamma=args.gamma,
                       strength_min=args.min, strength_max=args.max,
                       grid_points=args.steps)


def _cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    strengths, concurrences = sample_curve(cfg)
    columns = ["strength", "concurrence_numeric"]
    series = [strengths, concurrences]
    if args.engine == "closedform":
        columns.append("concurrence_closed_form")
        series.append(concurrence_from_spectrum(
            closed_form_spectrum(cfg.kind, cfg.gamma, strengths)))
    return _table(args, columns, series)


def _cmd_zones(args) -> int:
    cfg = _sweep_config(args)
    report = find_zones(cfg)
    doc = {
        "channel": cfg.kind.value,
        "gamma": float(_NUMBER % cfg.gamma),
        "zones": [
            {
                "death": float(_NUMBER % z.death),
                "rebirth": None if z.rebirth is None else float(_NUMBER % z.rebirth),
                "touch": z.touch,
            }
            for z in report.zones
        ],
    }
    _write(args, [json.dumps(doc, indent=2)])
    return EXIT_OK


def _cmd_verify_spectra(args) -> int:
    if args.gamma_steps * args.steps > _MAX_CELLS:
        raise ValueError(f"--gamma-steps x --steps must be at most {_MAX_CELLS} cells, "
                         f"got {args.gamma_steps} x {args.steps}")
    kinds = [ChannelKind(args.channel)] if args.channel else list(ChannelKind)
    for kind in kinds:
        check_strength(kind, (args.min, args.max))
    if not args.min < args.max:  # rows are ordered by increasing strength
        raise ValueError(f"--min must be below --max, got {args.min} and {args.max}")
    gammas = np.linspace(0.0, 1.0, args.gamma_steps)
    strengths = np.linspace(args.min, args.max, args.steps)
    rows = [
        "channel,gamma,strength,max_abs_error,"
        "cf_lambda1,cf_lambda2,cf_lambda3,cf_lambda4,"
        "num_lambda1,num_lambda2,num_lambda3,num_lambda4"
    ]
    total = 0
    for kind in kinds:
        records = scan_grid(kind, gammas, strengths)
        total += len(records)
        row = kind.value + f",{_NUMBER}" * 11
        rows.extend(row % tuple(r) for r in records.tolist())
        print(f"{kind.value}: {len(records)} discrepant cells of "
              f"{len(gammas) * len(strengths)}", file=sys.stderr)
    _write(args, rows)
    return EXIT_DISCREPANCIES if total else EXIT_OK


# -------------------------------------------------------------------- parser

def _add_common(p: _Parser, *, channel_required: bool = True) -> None:
    p.add_argument("--channel", required=channel_required,
                   choices=[k.value for k in ChannelKind])
    p.add_argument("--min", type=float, default=0.0, help="strength domain start")
    p.add_argument("--max", type=float, default=1.0, help="strength domain end")
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--no-manifest", action="store_true",
                   help="omit the '#' header (for byte-identical reruns)")


@functools.cache  # parse_args keeps nothing on the parser: one per process
def build_parser() -> _Parser:
    parser = _Parser(prog="esdscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare-states",
                       help="reference concurrence of MEMS vs Werner states")
    p.add_argument("--steps", type=_count, default=101)
    p.add_argument("--out")
    p.add_argument("--plot-script", help="also emit a gnuplot script")
    p.add_argument("--no-manifest", action="store_true")
    p.set_defaults(func=_cmd_compare_states)

    p = sub.add_parser("sweep", help="concurrence along the channel-strength axis "
                                     "(X-state closed form on the Kraus-evolved state)")
    _add_common(p)
    p.add_argument("--engine", choices=["closedform", "numeric"], default="numeric",
                   help="closedform adds a column from the tabulated spectra")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--steps", type=lambda t: _count(t, 2), default=201)
    p.add_argument("--plot-script", help="also emit a gnuplot script")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("zones", help="detect ESD/ESDB intervals with refined endpoints "
                                     "(X-state closed form on the Kraus-evolved state)")
    _add_common(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--steps", type=lambda t: _count(t, 2), default=DEFAULT_GRID_POINTS)
    p.set_defaults(func=_cmd_zones)

    p = sub.add_parser("verify-spectra",
                       help="closed-form spectra vs the Wootters spectra of the "
                            "Kraus-evolved states on a grid")
    _add_common(p, channel_required=False)
    p.add_argument("--gamma-steps", type=_count, default=100)
    p.add_argument("--steps", type=_count, default=100)
    p.set_defaults(func=_cmd_verify_spectra)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (IntegrityError, FormulaDomainError) as exc:
        print(f"esdscan: numerical failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (ValueError, OSError) as exc:
        print(f"esdscan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
