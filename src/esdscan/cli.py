"""Command-line front end: state comparison, sweeps, zone reports, spectrum checks.

``sweep`` and ``zones`` score the Kraus-evolved MEMS with the X-state closed
form; ``verify-spectra`` scores the same evolved states with the Wootters
construction, the ground truth the tabulated spectra are checked against.

Exit codes: 0 success, 1 argument/domain error, 2 spectrum discrepancies found,
3 numerical-integrity failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channels import ChannelKind
from .concurrence import IntegrityError
from .spectra import COMPARE_TOL, FormulaDomainError, scan_grid
from .states import reference_concurrence, werner_concurrence_raw
from .zonescan import (
    DEFAULT_GRID_POINTS,
    DEFAULT_REFINE_TOL,
    DEFAULT_ZERO_TOL,
    SweepConfig,
    find_zones,
    sample_curve,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISCREPANCIES = 2
EXIT_INTEGRITY = 3

_ENGINE_NAMES = {"numeric": "numeric", "closedform": "closed_form"}


def _fmt(x: float) -> str:
    """All numeric output carries 9 significant digits."""
    return f"{x:.9g}"


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise CliError(message)


@dataclass
class RunManifest:
    command: str
    parameters: dict
    tool_version: str
    timestamp: str

    def header_lines(self) -> list[str]:
        params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        return [
            f"# command: {self.command}",
            f"# parameters: {params}",
            f"# tool_version: {self.tool_version}",
            f"# timestamp: {self.timestamp}",
        ]


def _make_manifest(command: str, args: argparse.Namespace) -> RunManifest:
    skip = {"out", "plot_script", "no_manifest", "func"}
    params = {
        k: v for k, v in vars(args).items() if k not in skip and v is not None
    }
    return RunManifest(
        command=command,
        parameters=params,
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _document(lines: list[str], manifest: RunManifest | None) -> str:
    head = manifest.header_lines() if manifest else []
    return "\n".join(head + lines) + "\n"


def _write_plot_script(path: str, csv_path: str | None, columns: list[str]) -> None:
    if csv_path is None:
        raise CliError("--plot-script requires --out (the script references the CSV)")
    rel = Path(csv_path).name
    lines = [
        "set datafile separator ','",
        "set datafile commentschars '#'",
        "set key autotitle columnhead",
        "set grid",
        "plot "
        + ", \\\n     ".join(
            f"'{rel}' using 1:{i + 2} with lines" for i in range(len(columns) - 1)
        ),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _channel(value: str) -> ChannelKind:
    try:
        return ChannelKind(value)
    except ValueError:
        names = ", ".join(k.value for k in ChannelKind)
        raise CliError(f"unknown channel {value!r} (choose from: {names})")


# ---------------------------------------------------------------- subcommands

def _cmd_compare_states(args) -> int:
    gammas = np.linspace(0.0, 1.0, args.steps)
    rows = ["gamma,c_werner_raw,c_werner,c_mems"]
    for g in gammas:
        rows.append(
            ",".join(
                _fmt(v)
                for v in (
                    g,
                    werner_concurrence_raw(g),
                    reference_concurrence("werner", g),
                    reference_concurrence("mems", g),
                )
            )
        )
    manifest = None if args.no_manifest else _make_manifest("compare-states", args)
    _emit(_document(rows, manifest), args.out)
    if args.plot_script:
        _write_plot_script(
            args.plot_script, args.out, ["gamma", "c_werner_raw", "c_werner", "c_mems"]
        )
    return EXIT_OK


def _sweep_config(args, engine: str, **detection) -> SweepConfig:
    return SweepConfig(
        kind=_channel(args.channel),
        gamma=args.gamma,
        strength_min=args.min,
        strength_max=args.max,
        grid_points=args.steps,
        engine=engine,
        **detection,
    )


def _cmd_sweep(args) -> int:
    engine = _ENGINE_NAMES[args.engine]
    cfg = _sweep_config(args, "numeric")
    numeric = sample_curve(cfg)
    columns = ["strength", "concurrence_numeric"]
    series = [numeric.strengths, numeric.concurrences]
    if engine == "closed_form":
        closed = sample_curve(_sweep_config(args, "closed_form"))
        columns.append("concurrence_closed_form")
        series.append(closed.concurrences)
    rows = [",".join(columns)]
    for values in zip(*series):
        rows.append(",".join(_fmt(v) for v in values))
    manifest = None if args.no_manifest else _make_manifest("sweep", args)
    _emit(_document(rows, manifest), args.out)
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, columns)
    return EXIT_OK


def _cmd_zones(args) -> int:
    cfg = _sweep_config(args, _ENGINE_NAMES[args.engine],
                        refine_tol=args.refine_tol, zero_tol=args.zero_tol)
    report = find_zones(cfg)
    doc = {
        "channel": cfg.kind.value,
        "gamma": float(_fmt(cfg.gamma)),
        "zones": [
            {
                "death": float(_fmt(z.death)),
                "rebirth": None if z.rebirth is None else float(_fmt(z.rebirth)),
                "touch": z.touch,
            }
            for z in report.zones
        ],
    }
    manifest = None if args.no_manifest else _make_manifest("zones", args)
    _emit(_document([json.dumps(doc, indent=2)], manifest), args.out)
    return EXIT_OK


def _cmd_verify_spectra(args) -> int:
    kinds = [_channel(args.channel)] if args.channel else list(ChannelKind)
    gammas = np.linspace(0.0, 1.0, args.gamma_steps)
    strengths = np.linspace(args.min, args.max, args.steps)
    rows = [
        "channel,gamma,strength,max_abs_error,"
        "cf_lambda1,cf_lambda2,cf_lambda3,cf_lambda4,"
        "num_lambda1,num_lambda2,num_lambda3,num_lambda4"
    ]
    total = 0
    for kind in kinds:
        records = scan_grid(kind, gammas, strengths, tol=args.tol)
        total += len(records)
        for r in records:
            cf = ("nan",) * 4 if r.closed_form is None else tuple(map(_fmt, r.closed_form))
            rows.append(
                ",".join(
                    (
                        kind.value,
                        _fmt(r.gamma),
                        _fmt(r.strength),
                        _fmt(r.max_abs_error),
                        *cf,
                        *map(_fmt, r.numeric),
                    )
                )
            )
        summary = (
            f"{kind.value}: {len(records)} discrepant cells of "
            f"{len(gammas) * len(strengths)}"
        )
        print(summary, file=sys.stderr)
    manifest = None if args.no_manifest else _make_manifest("verify-spectra", args)
    _emit(_document(rows, manifest), args.out)
    return EXIT_DISCREPANCIES if total else EXIT_OK


# -------------------------------------------------------------------- parser

def _add_common(p: _Parser, *, channel_required: bool = True) -> None:
    p.add_argument("--channel", required=channel_required,
                   help="one of: " + ", ".join(k.value for k in ChannelKind))
    p.add_argument("--min", type=float, default=0.0, help="strength domain start")
    p.add_argument("--max", type=float, default=1.0, help="strength domain end")
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--no-manifest", action="store_true",
                   help="omit the '#' header (for byte-identical reruns)")


def _add_engine(p: _Parser) -> None:
    p.add_argument("--engine", choices=sorted(_ENGINE_NAMES), default="numeric",
                   help="numeric: Kraus evolution scored by the X-state closed form; "
                        "closedform: the tabulated spectra (sweep adds them as a column)")


def build_parser() -> _Parser:
    parser = _Parser(prog="esdscan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare-states",
                       help="reference concurrence of MEMS vs Werner states")
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out")
    p.add_argument("--plot-script", help="also emit a gnuplot script")
    p.add_argument("--no-manifest", action="store_true")
    p.set_defaults(func=_cmd_compare_states)

    p = sub.add_parser("sweep", help="concurrence along the channel-strength axis "
                                     "(X-state closed form on the Kraus-evolved state)")
    _add_common(p)
    _add_engine(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--steps", type=int, default=201)
    p.add_argument("--plot-script", help="also emit a gnuplot script")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("zones", help="detect ESD/ESDB intervals with refined endpoints "
                                     "(X-state closed form on the Kraus-evolved state)")
    _add_common(p)
    _add_engine(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--steps", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--refine-tol", type=float, default=DEFAULT_REFINE_TOL)
    p.add_argument("--zero-tol", type=float, default=DEFAULT_ZERO_TOL)
    p.set_defaults(func=_cmd_zones)

    p = sub.add_parser("verify-spectra",
                       help="closed-form spectra vs the Wootters spectra of the "
                            "Kraus-evolved states on a grid")
    _add_common(p, channel_required=False)
    p.add_argument("--gamma-steps", type=int, default=100)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--tol", type=float, default=COMPARE_TOL)
    p.set_defaults(func=_cmd_verify_spectra)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"esdscan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegrityError, FormulaDomainError) as exc:
        print(f"esdscan: numerical failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except ValueError as exc:
        print(f"esdscan: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
