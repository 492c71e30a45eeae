import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

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


def test_plot_script_requires_out(tmp_path, capsys):
    code = run("compare-states", "--plot-script", str(tmp_path / "x.gp"))
    assert code == 1


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


def test_exit_code_integrity_failure(capsys):
    code = run("sweep", "--channel", "bitphaseflip", "--gamma", "0.2",
               "--engine", "closedform")
    assert code == 3


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


def test_zones_refine_tol_below_float_spacing_terminates():
    # bisection cannot narrow a bracket below one ulp; it must stop there
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "esdscan.cli", "zones", "--channel", "bitflip",
         "--gamma", "0.2", "--refine-tol", "1e-300", "--no-manifest"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    (zone,) = json.loads(proc.stdout)["zones"]
    assert zone["death"] == pytest.approx(0.039293457, abs=1e-6)
    assert zone["rebirth"] == pytest.approx(0.960706543, abs=1e-6)
