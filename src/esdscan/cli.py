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
import os
import sys
from collections import deque
from contextlib import contextmanager, nullcontext, suppress
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from tempfile import mkstemp

import numpy as np

from . import __version__
from .channels import ChannelKind, check_strength
from .concurrence import IntegrityError
from .spectra import (FormulaDomainError, closed_form_spectrum,
                      concurrence_from_spectrum, scan_grid)
from .states import check_gamma
from .zonescan import DEFAULT_GRID_POINTS, SweepConfig, find_zones, sample_curve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISCREPANCIES = 2
EXIT_INTEGRITY = 3
_NUMBER = "%.9g"  # every number the CLI prints carries 9 significant digits


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise ValueError(message)


_NOT_PARAMETERS = {"out", "plot_script", "no_manifest", "func"}
_MAX_CELLS = 10**6  # sweep points (~0.9 KiB each); verify-spectra cells per channel (time only)
_BLOCK_CELLS = 1000  # cells per verify-spectra tile (~1.3 KiB each); 2 tiles per thread in flight


@contextmanager
def _output(args, first: str):
    """Open --out or stdout, write the manifest and ``first`` in one write, and yield the
    stream. A failed run leaves --out as it found it."""
    if not args.no_manifest:
        params = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                          if k not in _NOT_PARAMETERS and v is not None)
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        first = (f"# command: {args.command}\n# parameters: {params}\n"
                 f"# tool_version: {__version__}\n# timestamp: {stamp}\n") + first
    regular = args.out is not None and (os.path.isfile(args.out) or not os.path.exists(args.out))
    real = Path(os.path.realpath(args.out)) if regular else None  # else a device or a FIFO
    fd = tmp = None
    if real and real.exists():  # refused, as by "w", unless the user may write it;
        open(args.out, "a").close()  # then written under a hidden name that fits any NAME_MAX
        try:
            fd, tmp = mkstemp(".tmp", ".", real.parent)
        except OSError as exc:  # name the user's file, not the hidden one
            raise OSError(f"--out {args.out}: cannot write in {real.parent}: {exc.strerror}")
    try:
        with (nullcontext(sys.stdout) if args.out is None else  # closes the file, not stdout
              open(fd if tmp else args.out, "w", encoding="utf-8")) as stream:
            stream.write(first)
            yield stream
        if tmp:  # an existing file is replaced only when the run succeeds
            os.chmod(tmp, real.stat().st_mode & 0o7777)
            os.replace(tmp, real)
    except BaseException:  # KeyboardInterrupt too
        if real:
            with suppress(OSError):
                os.unlink(tmp or real)
        raise


def _table(args, columns: list[str], series) -> int:
    """Write a CSV whose columns hold the parallel arrays in ``series``, then its plot script."""
    if args.plot_script and args.out is None:
        raise ValueError("--plot-script requires --out (the script references the CSV)")
    if args.plot_script and Path(args.plot_script).resolve() == Path(args.out).resolve():
        raise ValueError("--plot-script must not name the --out file")
    csv = ",".join(columns) + "\n" + (",".join([_NUMBER] * len(columns)) + "\n") * len(series[0])
    with _output(args, csv % tuple(np.ravel(series, "F").tolist())) as stream:  # row by row
        if args.plot_script:  # once the CSV is flushed, before --out is replaced
            stream.flush()
            plots = ", \\\n     ".join(f"'{Path(args.out).name}' using 1:{i} with lines"
                                       for i in range(2, len(columns) + 1))
            Path(args.plot_script).write_text(
                "set datafile separator ','\nset datafile commentschars '#'\n"
                f"set key autotitle columnhead\nset grid\nplot {plots}\n", encoding="utf-8")
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
    # the Werner concurrence before its clamp at 0; the MEMS concurrence is gamma itself
    raw = (3.0 * gammas - 1.0) / 2.0
    return _table(args, ["gamma", "c_werner_raw", "c_werner", "c_mems"],
                  [gammas, raw, np.maximum(0.0, raw), gammas])


def _channels(args) -> list[ChannelKind]:
    """--channel's channels (all when unset), once --min and --max fit each one's domain."""
    kinds = [ChannelKind(args.channel)] if args.channel else list(ChannelKind)
    for kind in kinds:
        check_strength(kind, (args.min, args.max))
    if not args.min < args.max:  # rows and grids run by increasing strength
        raise ValueError(f"--min must be below --max, got {args.min} and {args.max}")
    return kinds


def _sweep_config(args) -> SweepConfig:
    check_gamma(args.gamma)  # before the strengths, as in SweepConfig
    return SweepConfig(*_channels(args), args.gamma, args.min, args.max, args.steps)


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
    with _output(args, json.dumps(doc, indent=2) + "\n"):
        return EXIT_OK


def _cmd_verify_spectra(args) -> int:
    if args.gamma_steps * args.steps > _MAX_CELLS:
        raise ValueError(f"--gamma-steps x --steps must be at most {_MAX_CELLS} cells, "
                         f"got {args.gamma_steps} x {args.steps}")
    kinds = _channels(args)
    gammas = np.linspace(0.0, 1.0, args.gamma_steps)
    strengths = np.linspace(args.min, args.max, args.steps)
    # tiles of whole rows or pieces of one row, on one thread per usable CPU: numpy's
    # batched eigh and svd release the GIL. Each thread formats the rows it found.
    n_rows, n_cols = max(1, _BLOCK_CELLS // len(strengths)), min(len(strengths), _BLOCK_CELLS)
    tiles = [(gammas[i:i + n_rows], strengths[j:j + n_cols])
             for i in range(0, len(gammas), n_rows) for j in range(0, len(strengths), n_cols)]
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    from concurrent.futures import ThreadPoolExecutor  # lazy: only this command needs it
    header = ("channel,gamma,strength,max_abs_error,cf_lambda1,cf_lambda2,cf_lambda3,"
              "cf_lambda4,num_lambda1,num_lambda2,num_lambda3,num_lambda4\n")
    calls = ((kind, g, s) for kind in kinds for g, s in tiles)
    found = 0  # discrepant cells so far, over all channels
    def rows(kind, g, s):
        recs = scan_grid(kind, g, s)
        return (kind.value + f",{_NUMBER}" * 11 + "\n") * len(recs) % tuple(recs.ravel().tolist())
    # a failed tile or write ends the run once the pool's exit has finished the tiles in flight
    with _output(args, header) as stream, ThreadPoolExecutor(workers) as pool:
        jobs = deque(pool.submit(rows, *call) for call in islice(calls, 2 * workers))
        for kind in kinds:
            before = found
            for _ in tiles:  # one more tile submitted per tile done: 2 per thread in flight
                tile = jobs.popleft().result()
                jobs.extend(pool.submit(rows, *call) for call in islice(calls, 1))
                if tile:
                    stream.write(tile)
                found += tile.count("\n")
            print(f"{kind.value}: {found - before} discrepant cells of "
                  f"{len(gammas) * len(strengths)}", file=sys.stderr)
    return EXIT_DISCREPANCIES if found else EXIT_OK


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
