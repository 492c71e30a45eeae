import csv
import io
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from esdscan import __version__
from esdscan.cli import main
from esdscan.spectra import COMPARE_TOL, compare_spectrum
from esdscan.channels import ChannelKind


def run(*argv):
    return main(list(argv))


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


def parse_zones(text):
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    return json.loads(body)


def test_compare_states_schema_and_clamp(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run("compare-states", "--steps", "101", "--out", str(out)) == 0
    rows = parse_csv(out.read_text())
    assert list(rows[0]) == ["gamma", "c_werner_raw", "c_werner", "c_mems"]
    assert len(rows) == 101
    for row in rows:
        raw = float(row["c_werner_raw"])
        clamped = float(row["c_werner"])
        assert clamped == pytest.approx(max(0.0, raw), abs=1e-9)
        assert float(row["c_mems"]) - clamped >= -1e-12
    # raw expression is negative below the entanglement threshold
    assert float(rows[0]["c_werner_raw"]) == pytest.approx(-0.5)


def test_sweep_zero_gamma_is_flat_zero(tmp_path):
    out = tmp_path / "c.csv"
    assert run("sweep", "--channel", "amplitudedamping", "--gamma", "0",
               "--steps", "41", "--out", str(out)) == 0
    rows = parse_csv(out.read_text())
    assert all(float(r["concurrence_numeric"]) == 0.0 for r in rows)


def test_sweep_closedform_adds_column(tmp_path):
    out = tmp_path / "c.csv"
    assert run("sweep", "--channel", "phasedamping", "--gamma", "0.4",
               "--steps", "21", "--engine", "closedform", "--out", str(out)) == 0
    rows = parse_csv(out.read_text())
    assert list(rows[0]) == ["strength", "concurrence_numeric", "concurrence_closed_form"]
    for r in rows:
        assert float(r["concurrence_numeric"]) == pytest.approx(
            float(r["concurrence_closed_form"]), abs=1e-8
        )


def test_zones_json_document(tmp_path):
    out = tmp_path / "z.json"
    assert run("zones", "--channel", "bitflip", "--gamma", "0.2",
               "--out", str(out)) == 0
    doc = parse_zones(out.read_text())
    assert set(doc) == {"channel", "gamma", "zones"}
    assert doc["channel"] == "bitflip"
    [zone] = doc["zones"]
    assert zone["death"] == pytest.approx(0.049, abs=0.03)
    assert zone["rebirth"] == pytest.approx(0.952, abs=0.03)
    assert zone["touch"] is False


def test_zones_touch_flag(tmp_path):
    out = tmp_path / "z.json"
    assert run("zones", "--channel", "phaseflip", "--gamma", "0.2",
               "--out", str(out)) == 0
    [zone] = parse_zones(out.read_text())["zones"]
    assert zone["touch"] is True


def test_manifest_header_present_and_absent(tmp_path):
    out = tmp_path / "a.csv"
    run("compare-states", "--steps", "3", "--out", str(out))
    text = out.read_text()
    assert text.startswith("# command: compare-states")
    assert "# tool_version:" in text and "# timestamp:" in text
    run("compare-states", "--steps", "3", "--out", str(out), "--no-manifest")
    assert not out.read_text().startswith("#")


def test_repeat_runs_byte_identical(tmp_path):
    pairs = []
    for name in ("r1", "r2"):
        out = tmp_path / f"{name}.csv"
        run("sweep", "--channel", "depolarizing", "--gamma", "0.3",
            "--steps", "51", "--out", str(out), "--no-manifest")
        pairs.append(out.read_bytes())
    assert pairs[0] == pairs[1]


def test_plot_script_references_csv(tmp_path):
    out = tmp_path / "fig1.csv"
    script = tmp_path / "fig1.gp"
    run("compare-states", "--out", str(out), "--plot-script", str(script))
    text = script.read_text()
    assert "'fig1.csv'" in text
    assert "plot" in text


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
     "# parameters: channel=bitflip command=zones engine=numeric gamma=0.2 "
     "max=1.0 min=0.0 refine_tol=1e-06 steps=101 zero_tol=1e-09"),
    (["verify-spectra", "--gamma-steps", "3", "--steps", "3"],
     "# command: verify-spectra\n"
     "# parameters: command=verify-spectra gamma_steps=3 max=1.0 min=0.0 "
     "steps=3 tol=1e-08"),
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


def test_verify_spectra_reports_and_exit_code(tmp_path, capsys):
    out = tmp_path / "v.csv"
    code = run("verify-spectra", "--channel", "bitphaseflip",
               "--gamma-steps", "12", "--steps", "12", "--out", str(out),
               "--no-manifest")
    assert code == 2
    rows = parse_csv(out.read_text())
    assert rows, "expected discrepancy rows"
    # every reported cell must actually disagree when recomputed
    for row in rows[:20]:
        if row["cf_lambda1"] == "nan":
            assert float(row["max_abs_error"]) == float("inf")
            continue
        rec = compare_spectrum(
            ChannelKind(row["channel"]), float(row["gamma"]),
            float(row["strength"]), COMPARE_TOL,
        )
        assert rec is not None
        assert rec.max_abs_error == pytest.approx(
            float(row["max_abs_error"]), rel=1e-6
        )


def test_verify_spectra_clean_channel_region(tmp_path):
    # a consistent channel restricted to its validity region: full agreement
    out = tmp_path / "v.csv"
    code = run("verify-spectra", "--channel", "phasedamping",
               "--gamma-steps", "10", "--steps", "10", "--out", str(out),
               "--no-manifest")
    rows = parse_csv(out.read_text())
    assert all(float(r["gamma"]) > 2 / 3 for r in rows)


def test_exit_code_usage_errors(capsys):
    assert run("sweep", "--channel", "nosuch", "--gamma", "0.5") == 1
    assert run("sweep", "--channel", "bitflip", "--gamma", "1.5") == 1
    assert run("zones", "--channel", "bitflip", "--gamma", "0.2",
               "--min", "0.9", "--max", "0.1") == 1
    # non-finite tolerances and domain ends once gave wrong answers with exit 0
    assert run("zones", "--channel", "bitflip", "--gamma", "0.2",
               "--zero-tol", "nan") == 1
    assert run("zones", "--channel", "bitflip", "--gamma", "0.2",
               "--refine-tol", "nan") == 1
    assert run("verify-spectra", "--channel", "depolarizing", "--gamma-steps", "5",
               "--steps", "5", "--tol", "nan") == 1
    assert run("zones", "--channel", "amplitudedamping", "--gamma", "0.4",
               "--engine", "closedform", "--max", "inf") == 1
    # --engine belongs to sweep and zones only
    assert run("verify-spectra", "--engine", "numeric") == 1
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
                  "--steps", "0"]):
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"esdscan: error: argument {argv[-2]}: " in captured.err


def test_exit_code_integrity_failure(capsys):
    code = run("sweep", "--channel", "bitphaseflip", "--gamma", "0.2",
               "--engine", "closedform")
    assert code == 3
    # closed forms that overflow at large lt once gave NaN rows or false rebirths
    capsys.readouterr()
    for argv in (["zones", "--channel", "depolarizing", "--max", "1000"],
                 ["zones", "--channel", "amplitudedamping", "--max", "100"],
                 ["sweep", "--channel", "amplitudedamping", "--max", "800", "--steps", "3"]):
        assert run(*argv, "--gamma", "0.5", "--engine", "closedform") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not finite at gamma=0.5, strength=" in captured.err


def test_stdout_default(capsys):
    assert run("zones", "--channel", "phasedamping", "--gamma", "0.5",
               "--no-manifest") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["zones"] == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "esdscan.cli", "compare-states", "--steps", "3",
         "--no-manifest"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("gamma,")


def _run_cli_subprocess(argv, limit_bytes=None, timeout=60):
    """``python -m esdscan.cli argv``; with ``limit_bytes``, under that address-space cap."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return subprocess.run(
        [sys.executable, "-m", "esdscan.cli", *argv], capture_output=True, text=True,
        env=env, timeout=timeout, preexec_fn=cap if limit_bytes else None,
    )


def test_zones_refine_tol_below_float_spacing_terminates():
    # bisection cannot narrow a bracket below one ulp; it must stop there
    proc = _run_cli_subprocess(["zones", "--channel", "bitflip", "--gamma", "0.2",
                                "--refine-tol", "1e-300", "--no-manifest"])
    assert proc.returncode == 0, proc.stderr
    (zone,) = json.loads(proc.stdout)["zones"]
    assert zone["death"] == pytest.approx(0.039293457, abs=1e-6)
    assert zone["rebirth"] == pytest.approx(0.960706543, abs=1e-6)


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
