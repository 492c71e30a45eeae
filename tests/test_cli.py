import csv
import io
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from esdscan import __version__
from esdscan import cli
from esdscan.cli import build_parser, main
from esdscan.concurrence import IntegrityError
from esdscan.spectra import scan_grid
from esdscan.channels import ChannelKind

from conftest import ROOT, load_script


def run(*argv):
    return main(list(argv))


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


def test_compare_states_schema_and_clamp(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run("compare-states", "--steps", "101", "--out", str(out)) == 0
    rows = parse_csv(out.read_text())
    assert list(rows[0]) == ["gamma", "c_werner_raw", "c_werner", "c_mems"]
    assert len(rows) == 101
    for row in rows:
        # the closed forms exactly: C = gamma for the MEMS, max(0, raw) for Werner
        assert row["c_mems"] == row["gamma"]
        raw = float(row["c_werner_raw"])
        clamped = float(row["c_werner"])
        assert clamped == max(0.0, raw)
        assert float(row["c_mems"]) - clamped >= -1e-12
    # raw expression is negative below the entanglement threshold
    assert float(rows[0]["c_werner_raw"]) == pytest.approx(-0.5)


def test_sweep_zero_gamma_is_flat_zero(tmp_path):
    out = tmp_path / "c.csv"
    assert run("sweep", "--channel", "amplitudedamping", "--gamma", "0",
               "--steps", "41", "--out", str(out)) == 0
    rows = parse_csv(out.read_text())
    assert all(float(r["concurrence_numeric"]) == 0.0 for r in rows)


def test_cached_parser_carries_nothing_between_calls(capsys):
    # main reuses one parser per process; every argv must read the same
    # whatever ran before it
    assert build_parser() is build_parser()
    sweep = ["sweep", "--channel", "bitflip", "--gamma", "0.4", "--steps", "5", "--no-manifest"]
    zones = ["zones", "--channel", "bitflip", "--gamma", "0.4", "--no-manifest"]
    sequence = [
        ["zones", "--channel", "nope", "--gamma", "0.2"],
        [*sweep, "--engine", "closedform"],
        sweep,
        ["verify-spectra", "--gamma-steps", "3", "--steps", "3", "--no-manifest"],
        zones,
        ["compare-states", "--steps", "3", "--no-manifest"],
    ]

    def outputs(argvs):
        seen = {}
        for argv in argvs:
            code = main(list(argv))
            seen[" ".join(argv)] = (code, *capsys.readouterr())
        return seen

    capsys.readouterr()
    forward = outputs(sequence)
    assert forward == outputs(sequence[::-1])
    assert forward["zones --channel nope --gamma 0.2"][0] == 1
    assert forward[" ".join(sweep)][1].splitlines()[0] == "strength,concurrence_numeric"
    assert forward[" ".join(zones)] == outputs([[*zones, "--steps", "2001"]]).popitem()[1]


MANIFEST_CASES = [
    (["compare-states", "--steps", "3"],
     "# command: compare-states\n"
     "# parameters: command=compare-states steps=3"),
    (["sweep", "--channel", "bitflip", "--gamma", "0.2", "--steps", "3"],
     "# command: sweep\n"
     "# parameters: channel=bitflip command=sweep engine=numeric gamma=0.2 "
     "max=1.0 min=0.0 steps=3"),
    (["zones", "--channel", "bitflip", "--gamma", "0.2", "--steps", "101"],
     "# command: zones\n"
     "# parameters: channel=bitflip command=zones gamma=0.2 "
     "max=1.0 min=0.0 steps=101"),
    (["verify-spectra", "--gamma-steps", "3", "--steps", "3"],
     "# command: verify-spectra\n"
     "# parameters: command=verify-spectra gamma_steps=3 max=1.0 min=0.0 steps=3"),
]


@pytest.mark.parametrize("argv,head", MANIFEST_CASES, ids=[argv[0] for argv, _ in MANIFEST_CASES])
def test_manifest_text(tmp_path, capsys, argv, head):
    # neither --out nor an unset option (verify-spectra's --channel) reaches the manifest
    out = tmp_path / "m.txt"
    run(*argv, "--out", str(out))
    lines = out.read_text().splitlines()
    assert "\n".join(lines[:2]) == head
    assert lines[2] == f"# tool_version: {__version__}"
    assert lines[3].startswith("# timestamp: ")
    assert not lines[4].startswith("#")


def test_plot_script_text_compare_states(tmp_path):
    out, script = tmp_path / "fig1.csv", tmp_path / "fig1.gp"
    assert run("compare-states", "--steps", "3", "--out", str(out),
               "--plot-script", str(script)) == 0
    assert script.read_text() == (
        "set datafile separator ','\n"
        "set datafile commentschars '#'\n"
        "set key autotitle columnhead\n"
        "set grid\n"
        "plot 'fig1.csv' using 1:2 with lines, \\\n"
        "     'fig1.csv' using 1:3 with lines, \\\n"
        "     'fig1.csv' using 1:4 with lines\n"
    )


def test_plot_script_text_sweep_closedform(tmp_path):
    out, script = tmp_path / "c.csv", tmp_path / "c.gp"
    assert run("sweep", "--channel", "phasedamping", "--gamma", "0.4", "--steps", "3",
               "--engine", "closedform", "--out", str(out),
               "--plot-script", str(script)) == 0
    assert script.read_text() == (
        "set datafile separator ','\n"
        "set datafile commentschars '#'\n"
        "set key autotitle columnhead\n"
        "set grid\n"
        "plot 'c.csv' using 1:2 with lines, \\\n"
        "     'c.csv' using 1:3 with lines\n"
    )


def test_plot_script_requires_out(tmp_path, capsys):
    # rejected before anything is written
    for argv in (["compare-states", "--steps", "3"],
                 ["sweep", "--channel", "bitflip", "--gamma", "0.2", "--steps", "3"]):
        assert run(*argv, "--plot-script", str(tmp_path / "x.gp")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--plot-script requires --out" in captured.err
        assert not (tmp_path / "x.gp").exists()


def test_plot_script_must_not_overwrite_out(tmp_path, capsys, monkeypatch):
    # the gnuplot script once replaced the CSV and the run exited 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for out, plot in (("same.csv", "same.csv"), ("same.csv", "sub/../same.csv"),
                      (str(tmp_path / "same.csv"), "same.csv")):
        for argv in (["compare-states", "--steps", "3"],
                     ["sweep", "--channel", "bitflip", "--gamma", "0.2", "--steps", "3"]):
            assert run(*argv, "--out", out, "--plot-script", plot) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("esdscan: error: --plot-script must not name "
                                    "the --out file\n")
            assert not (tmp_path / "same.csv").exists()


def test_unwritable_output_exits_1_without_traceback(tmp_path, capsys):
    # whichever file cannot be written, the run leaves no file behind
    missing = tmp_path / "missing"
    for argv, target in (
            (["--out", str(missing / "x.csv")], missing / "x.csv"),
            (["--out", str(missing / "x.csv"), "--plot-script", str(tmp_path / "x.gp")],
             missing / "x.csv"),
            (["--out", str(tmp_path / "x.csv"), "--plot-script", str(missing / "x.gp")],
             missing / "x.gp")):
        assert run("compare-states", "--steps", "3", *argv) == 1
        assert capsys.readouterr() == (
            "", f"esdscan: error: [Errno 2] No such file or directory: '{target}'\n")
        assert list(tmp_path.iterdir()) == []


def test_verify_spectra_reports_and_exit_code(tmp_path, capsys):
    out = tmp_path / "v.csv"
    code = run("verify-spectra", "--channel", "bitphaseflip",
               "--gamma-steps", "12", "--steps", "12", "--out", str(out),
               "--no-manifest")
    assert code == 2
    # every row is the 9-digit text of the matching scan_grid row, unevaluable ones too
    grid = np.linspace(0.0, 1.0, 12)
    recs = scan_grid(ChannelKind.BIT_PHASE_FLIP, grid, grid)
    header, *lines = out.read_text().splitlines()
    assert header.startswith("channel,gamma,strength,max_abs_error,cf_lambda1,")
    assert lines == [("bitphaseflip" + ",%.9g" * 11) % tuple(r) for r in recs.tolist()]
    assert capsys.readouterr().err == f"bitphaseflip: {len(lines)} discrepant cells of 144\n"
    # both kinds of row are present, and each reports a real disagreement
    assert any(",inf,nan,nan,nan,nan," in line for line in lines)
    assert any(",inf," not in line for line in lines)
    assert all(float(line.split(",")[3]) > 1e-8 for line in lines)


VERIFY_SMALL = ["verify-spectra", "--gamma-steps", "7", "--steps", "5", "--no-manifest"]


@pytest.mark.parametrize("layout", ["1-cell tiles", "ragged rows", "ragged row pieces"])
def test_verify_spectra_bytes_do_not_depend_on_tiles_or_workers(layout, monkeypatch,
                                                                capsys):
    assert run(*VERIFY_SMALL) == 2
    default = capsys.readouterr()
    calls = []  # (kind, cells) of every scan, from any thread: list.append is atomic

    def recording(kind, gammas, strengths):
        calls.append((kind, len(gammas) * len(strengths)))
        return scan_grid(kind, gammas, strengths)

    monkeypatch.setattr(cli, "scan_grid", recording)
    if layout == "1-cell tiles":
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)
    elif layout == "ragged rows":  # 3 rows of 5 cells, so tiles of 3, 3 and 1 rows
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 15)
    else:  # each row in pieces of 3 and 2 cells
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 3)
    assert run(*VERIFY_SMALL) == 2
    captured = capsys.readouterr()
    assert captured.out == default.out
    assert captured.err == default.err
    scanned = {kind: sum(n for k, n in calls if k is kind) for kind in ChannelKind}
    assert scanned == dict.fromkeys(ChannelKind, 7 * 5)  # every cell scanned exactly once


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_verify_spectra_bytes_do_not_depend_on_the_cpu_count(capsys):
    # a child pinned to one CPU before it imports esdscan scans with one worker;
    # 30 x 100 cells make 3 tiles per channel, so their order shows
    argv = ["verify-spectra", "--gamma-steps", "30", "--steps", "100", "--no-manifest"]
    assert run(*argv) == 2
    in_process = capsys.readouterr()
    child = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
             "from esdscan.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = _run_cli_subprocess(argv, program=("-c", child))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, *in_process)


@pytest.mark.parametrize("error, outcome, last_line", [
    (IntegrityError("state has eigenvalue -1.000e-06, below -1e-08"), 3,
     "esdscan: numerical failure: state has eigenvalue -1.000e-06, below -1e-08\n"),
    (ValueError("a failing tile"), 1, "esdscan: error: a failing tile\n"),
    (RuntimeError("a failing tile"), RuntimeError, ""),
    (KeyboardInterrupt(), KeyboardInterrupt, ""),
], ids=["IntegrityError", "ValueError", "RuntimeError", "KeyboardInterrupt"])
def test_verify_spectra_failed_tile_ends_the_run(error, outcome, last_line, tmp_path,
                                                 monkeypatch, capsys):
    assert run(*VERIFY_SMALL) == 2
    first_line = capsys.readouterr().err.splitlines(keepends=True)[0]
    later = []

    def failing_on_the_second_channel(kind, gammas, strengths):
        if kind is ChannelKind.PHASE_FLIP:
            raise error
        if kind is not ChannelKind.BIT_FLIP:
            later.append(kind)
            time.sleep(0.02)
        return scan_grid(kind, gammas, strengths)

    monkeypatch.setattr(cli, "scan_grid", failing_on_the_second_channel)
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)  # 35 tiles per channel, 140 after the failure
    out = tmp_path / "v.csv"
    if isinstance(outcome, int):
        assert run(*VERIFY_SMALL, "--out", str(out)) == outcome
    else:
        with pytest.raises(outcome):
            run(*VERIFY_SMALL, "--out", str(out))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == first_line + last_line  # the channel before the failing one only
    assert not out.exists()
    assert len(later) < 20  # the tiles not yet started were cancelled


def test_exit_code_usage_errors(capsys):
    assert run("sweep", "--channel", "nosuch", "--gamma", "0.5") == 1
    assert "esdscan: error: argument --channel: invalid choice: 'nosuch'" in (
        capsys.readouterr().err)
    assert run("sweep", "--channel", "bitflip", "--gamma", "1.5") == 1
    assert run("zones", "--channel", "bitflip", "--gamma", "0.2",
               "--min", "0.9", "--max", "0.1") == 1
    # the tolerances are constants, not options
    capsys.readouterr()
    for argv in (["zones", "--channel", "bitflip", "--gamma", "0.2", "--zero-tol", "1e-9"],
                 ["zones", "--channel", "bitflip", "--gamma", "0.2", "--refine-tol", "1e-6"],
                 ["verify-spectra", "--channel", "depolarizing", "--gamma-steps", "5",
                  "--steps", "5", "--tol", "1e-8"]):
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("esdscan: error: unrecognized arguments: "
                                f"{' '.join(argv[-2:])}\n")
    # non-finite domain ends once gave wrong answers with exit 0
    assert run("zones", "--channel", "amplitudedamping", "--gamma", "0.4",
               "--max", "inf") == 1
    assert capsys.readouterr().err == (
        "esdscan: error: amplitudedamping: strength must be finite, got (0.0, inf)\n")
    # --engine belongs to sweep only: zones has one route, the Kraus evolution
    assert run("verify-spectra", "--engine", "numeric") == 1
    assert run("zones", "--channel", "bitflip", "--gamma", "0.2",
               "--engine", "closedform") == 1
    assert "unrecognized arguments: --engine closedform" in capsys.readouterr().err
    # the strength range is checked against each channel's domain before any grid
    capsys.readouterr()
    assert run("verify-spectra", "--channel", "bitflip", "--max", "2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "esdscan: error: bitflip: p must lie in [0, 1], got (0.0, 2.0)\n"
    # ... and must run upwards, as the rows are ordered by increasing strength
    assert run("verify-spectra", "--channel", "bitflip", "--min", "0.9", "--max", "0.1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "esdscan: error: --min must be below --max, got 0.9 and 0.1\n"
    # grid counts below 1 are rejected up front, naming the flag (the last but one word)
    capsys.readouterr()
    for argv in (["compare-states", "--steps", "0"],
                 ["compare-states", "--steps", "-2"],
                 ["sweep", "--channel", "bitflip", "--gamma", "0.2", "--steps", "-2"],
                 ["zones", "--channel", "bitflip", "--gamma", "0.2", "--steps", "0"],
                 ["sweep", "--channel", "bitflip", "--gamma", "0.2", "--steps", "1"],
                 ["zones", "--channel", "bitflip", "--gamma", "0.2", "--steps", "1"],
                 ["verify-spectra", "--channel", "bitflip", "--steps", "3",
                  "--gamma-steps", "0"],
                 ["verify-spectra", "--channel", "bitflip", "--gamma-steps", "3",
                  "--steps", "0"],
                 ["sweep", "--channel", "bitflip", "--gamma", "0.2", "--steps", "1.5"],
                 ["zones", "--channel", "bitflip", "--gamma", "0.2", "--steps", "ten"]):
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"esdscan: error: argument {argv[-2]}: " in captured.err
    # a count that is not integer text gets the same message as one out of range
    assert run("sweep", "--channel", "bitflip", "--gamma", "0.2", "--steps", "1.5") == 1
    assert capsys.readouterr().err == ("esdscan: error: argument --steps: must be an "
                                       "integer from 2 to 1000000, got '1.5'\n")


def test_exit_code_integrity_failure(capsys):
    code = run("sweep", "--channel", "bitphaseflip", "--gamma", "0.2",
               "--engine", "closedform")
    assert code == 3
    # closed forms that overflow at large lt once gave NaN rows or false rebirths
    capsys.readouterr()
    for argv in (["sweep", "--channel", "depolarizing", "--max", "1000"],
                 ["sweep", "--channel", "amplitudedamping", "--max", "100"],
                 ["sweep", "--channel", "amplitudedamping", "--max", "800", "--steps", "3"]):
        assert run(*argv, "--gamma", "0.5", "--engine", "closedform") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not finite at gamma=0.5, strength=" in captured.err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "esdscan.cli", "compare-states", "--steps", "3",
         "--no-manifest"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("gamma,")


def _run_cli_subprocess(argv, limit_bytes=None, timeout=60, program=("-m", "esdscan.cli")):
    """``python program argv``; with ``limit_bytes``, under that address-space cap."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return subprocess.run(
        [sys.executable, *program, *argv], capture_output=True, text=True,
        env=env, timeout=timeout, preexec_fn=cap if limit_bytes else None,
    )


def test_oversized_grids_rejected_before_allocation():
    # Each grid needs a GiB or more. A 512 MiB address-space cap turns any attempt
    # to build one into a MemoryError instead of exhausting the machine.
    bitflip = ["--channel", "bitflip", "--gamma", "0.2"]
    for argv, flag in (
        (["sweep", *bitflip, "--steps", "100000000"], "argument --steps: "),
        (["zones", *bitflip, "--steps", "1000001"], "argument --steps: "),
        (["compare-states", "--steps", "100000000"], "argument --steps: "),
        (["verify-spectra", "--gamma-steps", "1000001"], "argument --gamma-steps: "),
        (["verify-spectra", "--gamma-steps", "1001", "--steps", "1000"],
         "--gamma-steps x --steps "),
    ):
        proc = _run_cli_subprocess([*argv, "--no-manifest"], limit_bytes=512 << 20)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("esdscan: error: " + flag), proc.stderr


REPRODUCE_FIGURES = (str(ROOT / "scripts" / "reproduce_figures.py"),)


def test_reproduce_figures_steps_share_the_cli_bounds(tmp_path):
    # same cap as above: an oversized count must be refused, not built, and
    # before anything is written
    out = tmp_path / "results"
    for count in ("1", "100000000"):
        proc = _run_cli_subprocess(["--out-dir", str(out), "--steps", count],
                                   limit_bytes=512 << 20,
                                   program=REPRODUCE_FIGURES)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert (f"argument --steps: must be an integer from 2 to 1000000, "
                f"got '{count}'") in proc.stderr
        assert "Traceback" not in proc.stderr
    assert not out.exists()


def reproduce_figures(monkeypatch, *argv):
    """Run scripts/reproduce_figures.py in this process, under pytest's warning filters."""
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", *argv])
    load_script("reproduce_figures").main()


def test_reproduce_figures_writes_the_zone_table(tmp_path, monkeypatch, capsys):
    # the table is read back from the zone reports; a file already in the
    # directory is not counted as written
    (tmp_path / "stray.txt").write_text("")
    reproduce_figures(monkeypatch, "--out-dir", str(tmp_path), "--steps", "2")
    captured = capsys.readouterr()
    table = (tmp_path / "zone_table.txt").read_text().splitlines()
    assert len(table) == 33
    for line in ("bitflip           gamma=0.9666   zone 0.433744 -> 0.566256",
                 "phaseflip         gamma=0.66     touch 0.499981 -> 0.500019",
                 "amplitudedamping  gamma=0.66     zone 0.939300 -> end of domain",
                 "phasedamping      gamma=1        no zone"):
        assert line in table
    written = len(list(tmp_path.iterdir())) - 1
    assert captured.out == "\n".join([*table, f"wrote {written} files to {tmp_path}/", ""])
    # the script ends with verify-spectra on the default 6 x 100 x 100 grid: the
    # repository's verdict on the tabulated spectra, in ChannelKind order
    assert captured.err == (
        "bitflip: 3300 discrepant cells of 10000\n"
        "phaseflip: 3300 discrepant cells of 10000\n"
        "bitphaseflip: 9866 discrepant cells of 10000\n"
        "amplitudedamping: 3300 discrepant cells of 10000\n"
        "phasedamping: 3300 discrepant cells of 10000\n"
        "depolarizing: 9933 discrepant cells of 10000\n")


def test_reproduce_figures_out_dir_must_be_a_directory(tmp_path, monkeypatch, capsys):
    taken = tmp_path / "results"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        with pytest.raises(SystemExit) as exit_:
            reproduce_figures(monkeypatch, "--out-dir", str(out), "--steps", "2")
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --out-dir: cannot create {str(out)!r}: " in captured.err
    assert taken.read_text() == ""
    assert sorted(tmp_path.iterdir()) == [taken]


def test_benchmark_figures_workload_runs_the_scripts_commands():
    # perfbench/workloads.py restates the figure cases and their commands
    workloads = load_script("workloads", "perfbench")
    figures = load_script("reproduce_figures")
    assert workloads.PAPER_CASES == tuple(figures.CASES)
    ops = [op for op in workloads.build("figures", 0).ops if op.kind != "compare-states"]
    want = [argv + ["--no-manifest"] for ch, g in figures.CASES
            for argv in (figures.sweep_argv(ch, g, 401), figures.zones_argv(ch, g))]
    parse = build_parser().parse_args
    assert [parse(list(op.argv)) for op in ops] == [parse(argv) for argv in want]
