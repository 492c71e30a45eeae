import csv
import io
import os
import resource
import stat
import subprocess
import sys
import tracemalloc

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
        return scan_grid(kind, gammas, strengths)

    monkeypatch.setattr(cli, "scan_grid", failing_on_the_second_channel)
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)  # 35 tiles per channel, 140 after the failure
    # two threads keep at most four tiles in flight, all of phase flip's when its first fails
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
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
    assert later == []  # no tile of a later channel started


def test_exit_code_usage_errors(capsys):
    assert run("sweep", "--channel", "nosuch", "--gamma", "0.5") == 1
    assert "esdscan: error: argument --channel: invalid choice: 'nosuch'" in (
        capsys.readouterr().err)
    assert run("sweep", "--channel", "bitflip", "--gamma", "1.5") == 1
    # --min below --max is checked by the CLI for every command, after the domain checks
    capsys.readouterr()
    for command, gamma, low, high, message in (
            ("zones", "0.2", "0.9", "0.1", "--min must be below --max, got 0.9 and 0.1"),
            ("sweep", "0.2", "0.6", "0.5", "--min must be below --max, got 0.6 and 0.5"),
            ("sweep", "0.2", "nan", "0.5", "bitflip: strength must be finite, got (nan, 0.5)"),
            ("zones", "0.2", "0.6", "2", "bitflip: p must lie in [0, 1], got (0.6, 2.0)"),
            ("zones", "1.5", "0.6", "0.5", "gamma must lie in [0, 1], got 1.5")):
        assert run(command, "--channel", "bitflip", "--gamma", gamma,
                   "--min", low, "--max", high) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"esdscan: error: {message}\n"
    # the tolerances are constants, not options
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


def _one_worker(monkeypatch):
    """Size verify-spectra's pool, which has one thread per usable CPU, to one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


class _CountedStdout(io.StringIO):
    """A stdout that keeps the size of each write; write number ``fail_at`` raises OSError."""

    def __init__(self, fail_at=None):
        super().__init__()
        self.sizes, self.fail_at = [], fail_at

    def write(self, text):
        self.sizes.append(len(text))
        if len(self.sizes) == self.fail_at:
            raise OSError(28, "No space left on device")
        return super().write(text)


def test_verify_spectra_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch):
    # rows are written as their tiles finish, and at most two tiles per thread are
    # in flight, so 4x the tiles (one 1000-cell row each) must not raise the peak.
    # One thread, so that concurrent scans do not move the peak, and --out, so that
    # the written text is not kept in memory.
    _one_worker(monkeypatch)
    out = str(tmp_path / "v.csv")

    def peak(gamma_steps):
        tracemalloc.start()
        try:
            assert run("verify-spectra", "--channel", "depolarizing", "--steps", "1000",
                       "--gamma-steps", str(gamma_steps), "--no-manifest", "--out", out) == 2
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    two, eight = peak(2), peak(8)
    assert eight <= 1.2 * two, (two, eight)


def test_one_shot_commands_write_stdout_once(monkeypatch):
    # a single write per run, with or without the manifest: only verify-spectra streams
    for argv in (["compare-states", "--steps", "5"],
                 ["sweep", "--channel", "bitflip", "--gamma", "0.2", "--steps", "5"],
                 ["sweep", "--channel", "depolarizing", "--gamma", "0.2", "--steps", "5",
                  "--engine", "closedform"],
                 ["zones", "--channel", "bitflip", "--gamma", "0.2"]):
        for manifest in ([], ["--no-manifest"]):
            stdout = _CountedStdout()
            monkeypatch.setattr(sys, "stdout", stdout)
            assert run(*argv, *manifest) == 0
            assert len(stdout.sizes) == 1, argv + manifest
            assert stdout.getvalue().endswith("\n")


def test_verify_spectra_stdout_equals_its_out_file(tmp_path, monkeypatch, capsys):
    # 3 tiles per channel and about 1.3 MB of rows, written tile by tile; the header
    # is the first write, and a tile without rows makes none
    argv = ["verify-spectra", "--gamma-steps", "30", "--steps", "100", "--no-manifest"]
    out = tmp_path / "v.csv"
    stdout = _CountedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(*argv) == 2
    printed = capsys.readouterr().err
    assert 6 < len(stdout.sizes) <= 1 + 3 * len(ChannelKind)
    assert 0 not in stdout.sizes
    assert run(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == printed
    assert out.read_bytes() == stdout.getvalue().encode("utf-8")


def test_verify_spectra_default_grid_writes_once_per_tile_with_rows(monkeypatch):
    # perfbench's pass_best_s splits an operation at every write, so the count is pinned:
    # the header, then one write for each of the 36 tiles (of 60) that have rows
    stdout = _CountedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run("verify-spectra", "--no-manifest") == 2
    assert len(stdout.sizes) == 37 and 0 not in stdout.sizes
    assert stdout.sizes[0] == stdout.getvalue().index("\n") + 1  # the header alone


def test_verify_spectra_failed_write_ends_the_run(capsys, monkeypatch):
    # the header goes out; the write of bit flip's first rows fails. With 1-cell
    # tiles those rows are tile 26 of 35, and one thread keeps at most two more
    # tiles submitted, so the run ends without a tile of any later channel.
    _one_worker(monkeypatch)
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)
    scanned = []

    def recording(kind, gammas, strengths):
        scanned.append(kind)
        return scan_grid(kind, gammas, strengths)

    monkeypatch.setattr(cli, "scan_grid", recording)
    stdout = _CountedStdout(fail_at=2)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(*VERIFY_SMALL) == 1
    assert stdout.getvalue().startswith("channel,gamma,strength,")
    assert stdout.getvalue().count("\n") == 1
    assert capsys.readouterr().err == "esdscan: error: [Errno 28] No space left on device\n"
    assert scanned == [ChannelKind.BIT_FLIP] * len(scanned)
    assert 26 <= len(scanned) <= 28


def _failing_scan(error):
    def scan(kind, gammas, strengths):
        raise error
    return scan


def _old_file(path):
    path.write_text("old\n")
    path.chmod(0o640)
    return path


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("error, outcome", [
    (IntegrityError("a failing tile"), 3),
    (KeyboardInterrupt(), KeyboardInterrupt),
], ids=["IntegrityError", "KeyboardInterrupt"])
def test_verify_spectra_failure_leaves_out_as_it_found_it(error, outcome, tmp_path,
                                                           monkeypatch):
    # a new file is removed, an existing one keeps its bytes and its mode, a symlink
    # stays a symlink, and a device or a FIFO is written as it is and never removed;
    # no temporary file is left behind
    old = _old_file(tmp_path / "old.csv")
    (tmp_path / "link.csv").symlink_to(old)
    (tmp_path / "null").symlink_to(os.devnull)
    os.mkfifo(tmp_path / "fifo")
    reader = os.open(tmp_path / "fifo", os.O_RDONLY | os.O_NONBLOCK)  # so a writer can open
    monkeypatch.setattr(cli, "scan_grid", _failing_scan(error))
    try:
        for name in ("new.csv", "old.csv", "link.csv", "null", "fifo"):
            argv = [*VERIFY_SMALL, "--out", str(tmp_path / name)]
            if isinstance(outcome, int):
                assert run(*argv) == outcome
            else:
                with pytest.raises(outcome):
                    run(*argv)
        assert os.read(reader, 1 << 16).startswith(b"channel,gamma,strength,")
    finally:
        os.close(reader)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.csv", "null", "old.csv"]
    assert (old.read_text(), stat.S_IMODE(old.stat().st_mode)) == ("old\n", 0o640)
    assert os.readlink(tmp_path / "link.csv") == str(old)
    assert os.readlink(tmp_path / "null") == os.devnull
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert stat.S_ISFIFO(os.stat(tmp_path / "fifo").st_mode)


def test_verify_spectra_replaces_an_existing_out_file_when_it_succeeds(tmp_path, capsys):
    # through a symlink too: the file it names gets the rows and keeps its mode
    assert run(*VERIFY_SMALL) == 2
    printed = capsys.readouterr().out
    old = tmp_path / "old.csv"
    (tmp_path / "link.csv").symlink_to(old)
    for name in ("old.csv", "link.csv"):
        _old_file(old)
        assert run(*VERIFY_SMALL, "--out", str(tmp_path / name)) == 2
        assert (old.read_text(), stat.S_IMODE(old.stat().st_mode)) == (printed, 0o640)
    assert os.readlink(tmp_path / "link.csv") == str(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "old.csv"]


def test_verify_spectra_failed_cleanup_keeps_the_exit_code(tmp_path, monkeypatch, capsys):
    # the new --out file cannot be removed: the run still exits 3 for the failing tile
    monkeypatch.setattr(cli, "scan_grid", _failing_scan(IntegrityError("a failing tile")))

    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(os, "unlink", refuse)
    assert run(*VERIFY_SMALL, "--out", str(tmp_path / "v.csv")) == 3
    assert capsys.readouterr().err == "esdscan: numerical failure: a failing tile\n"


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="needs a POSIX user other than root, who may write any file")
def test_read_only_out_is_refused_and_kept(tmp_path, capsys):
    # as by shell ">": the directory is writable, but the file itself is not replaced
    old = _old_file(tmp_path / "old.csv")
    old.chmod(0o444)
    assert run("compare-states", "--steps", "3", "--out", str(old)) == 1
    assert capsys.readouterr() == (
        "", f"esdscan: error: [Errno 13] Permission denied: '{old}'\n")
    assert (old.read_text(), stat.S_IMODE(old.stat().st_mode)) == ("old\n", 0o444)
    assert list(tmp_path.iterdir()) == [old]


def test_out_in_a_read_only_directory_names_out_and_its_directory(tmp_path, monkeypatch,
                                                                  capsys):
    # the file is writable but no file can be made beside it: the message names --out
    # and its directory, not the hidden temporary name (raised here, so root sees it too)
    old = _old_file(tmp_path / "old.csv")

    def refuse(suffix, prefix, dir):
        raise PermissionError(13, "Permission denied", os.path.join(dir, prefix + "x" + suffix))

    monkeypatch.setattr(cli, "mkstemp", refuse)
    assert run("compare-states", "--steps", "3", "--out", str(old)) == 1
    assert capsys.readouterr() == ("", f"esdscan: error: --out {old}: cannot write in "
                                       f"{os.path.realpath(tmp_path)}: Permission denied\n")
    assert (old.read_text(), stat.S_IMODE(old.stat().st_mode)) == ("old\n", 0o640)
    assert list(tmp_path.iterdir()) == [old]


def test_existing_out_with_a_long_name_is_replaced_or_kept(tmp_path, monkeypatch, capsys):
    # a 250-byte name: the temporary file beside it once took 6 to 12 more bytes than
    # NAME_MAX allows, so a run that would replace the file exited 1
    old = _old_file(tmp_path / ("a" * 246 + ".csv"))
    assert run("compare-states", "--steps", "3", "--no-manifest") == 0
    printed = capsys.readouterr().out
    assert run("compare-states", "--steps", "3", "--no-manifest", "--out", str(old)) == 0
    assert (old.read_text(), stat.S_IMODE(old.stat().st_mode)) == (printed, 0o640)
    monkeypatch.setattr(cli, "scan_grid", _failing_scan(IntegrityError("a failing tile")))
    assert run(*VERIFY_SMALL, "--out", str(old)) == 3
    assert capsys.readouterr().err == "esdscan: numerical failure: a failing tile\n"
    assert old.read_text() == printed
    assert list(tmp_path.iterdir()) == [old]
