"""Tests of the benchmark itself.

    python3 -m pytest perfbench -p no:cacheprovider

The smoke test runs one reduced pass of every workload with output checks on.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _cli(*argv):
    from esdscan.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_smoke_pass_of_every_workload_is_correct():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = {r["workload"]: r for r in map(json.loads, proc.stdout.splitlines())}
    assert list(reports) == list(workloads.WORKLOADS)
    for report in reports.values():
        assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
    layers = {name: r["layers"] for name, r in reports.items()}
    # verify-spectra is the ground-truth route: no X-state shortcut, no validation
    assert layers["verify-grid"]["concurrence.xstate_concurrence.calls"] == 0
    assert layers["verify-grid"]["states.validate_density.calls"] == 0
    assert layers["verify-grid"]["spectra.scan_grid.records"] > 0
    assert layers["figures"]["states.validate_density.calls"] == 0
    assert layers["figures"]["zonescan.bisect_evals"] > 0
    assert layers["point-eval"]["states.validate_density.calls"] == 2 * workloads.SMOKE_QUERIES
    assert layers["point-eval"]["concurrence.xstate_concurrence.calls"] == workloads.SMOKE_QUERIES


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)
    figures = workloads.build("figures", 0)
    cases = [(op.params["channel"], op.params["gamma"]) for op in figures.ops if op.kind == "zones"]
    assert cases == list(workloads.PAPER_CASES) and len(cases) == 33
    assert workloads.build("verify-grid", 0).ops[0].argv == ("verify-spectra", "--no-manifest")
    for seed in range(1, 60):
        grid = workloads.build("verify-grid", seed).ops[0].params
        assert 97 <= grid["gamma_steps"] <= 103 and 97 <= grid["steps"] <= 103
        assert abs(grid["gamma_steps"] * grid["steps"] - 10_000) <= 10


def test_tracer_wraps_every_namespace_and_restores_them():
    import esdscan
    import esdscan.channels
    import esdscan.spectra

    modules = spans.package_modules(esdscan)
    original = esdscan.channels.apply_product
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        wrapper = esdscan.channels.apply_product
        assert wrapper is not original
        assert esdscan.spectra.apply_product is wrapper and esdscan.apply_product is wrapper
        esdscan.spectra.numeric_spectrum(esdscan.ChannelKind.DEPOLARIZING, 0.5, [0.1, 0.2, 0.3])
    finally:
        tracer.uninstall()
    assert esdscan.channels.apply_product is original
    assert esdscan.spectra.apply_product is original
    assert spans.traced_attributes(modules) == []
    layers = tracer.take()
    assert layers["channels.apply_product.states"] == 3
    assert layers["channels.apply_product.pairs"] == 3 * 16
    assert layers["concurrence.wootters_sigmas.calls"] == 1
    assert layers["concurrence.wootters_sigmas.states"] == 3


def test_self_time_excludes_wrapped_children():
    mod = types.ModuleType("fake")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.05)\n"
        "def outer():\n    time.sleep(0.02)\n    inner()\n",
        mod.__dict__,
    )
    tracer = spans.Tracer([mod])
    tracer.install()
    try:
        mod.outer()
    finally:
        tracer.uninstall()
    t = tracer.totals()
    assert t["total_s"]["fake.outer"] >= 0.07
    assert 0.02 <= t["self_s"]["fake.outer"] < 0.04
    assert t["self_s"]["fake.inner"] >= 0.05


def test_pass_tail_has_ten_passes_beyond_it():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    value, pct = run.tail([float(x) for x in range(11, 0, -1)])
    assert value == 1.0 and pct == pytest.approx(100 / 11)


def test_best_case_pass_takes_each_segments_fastest_time():
    best = worker.BestTimes(2)
    best.add([[3.0, 1.0], [2.0]])
    best.add([[1.0, 2.0], [2.5]])
    assert best.pass_s() == 4.0
    best.add([[0.5], [2.5]])  # fewer writes: whole operations are compared
    assert best.pass_s() == 2.5


def test_verify_spectra_splits_into_a_segment_per_channel():
    import esdscan.cli

    runner = worker.Runner(workloads.build("verify-grid", 0, smoke=True), None, esdscan.cli)
    _, segments, results = runner.run_pass()
    assert results[0][0] == 2
    # a summary line per channel is two writes, then the CSV: 14 segments
    assert len(segments[0]) == 2 * len(workloads.CHANNELS) + 2


def test_checks_accept_the_program_and_reject_wrong_outputs():
    params = {"channel": "bitflip", "gamma": 0.2}
    code, out, err = _cli("zones", "--channel", "bitflip", "--gamma", "0.2", "--no-manifest")
    assert oracle.check_zones(params, code, out, err) == []
    doc = json.loads(out)
    doc["zones"][0]["death"] += 1e-4
    assert oracle.check_zones(params, code, json.dumps(doc), err)
    doc["zones"][0]["death"] -= 1e-4
    doc["zones"][0]["touch"] = True
    assert oracle.check_zones(params, code, json.dumps(doc), err)

    params = {"channel": "phaseflip", "gamma": 0.66}
    code, out, err = _cli("zones", "--channel", "phaseflip", "--gamma", "0.66", "--no-manifest")
    assert json.loads(out)["zones"][0]["touch"]
    assert oracle.check_zones(params, code, out, err) == []
    # the touch at p = 1/2 falls between grid points with 2000 steps
    code, out, err = _cli("zones", "--channel", "phaseflip", "--gamma", "0.66",
                          "--steps", "2000", "--no-manifest")
    assert oracle.check_zones(params, code, out, err)

    params = {"channel": "amplitudedamping", "gamma": 0.4, "steps": 41, "closed_form": True}
    code, out, err = _cli("sweep", "--channel", "amplitudedamping", "--gamma", "0.4",
                          "--steps", "41", "--engine", "closedform", "--no-manifest")
    assert oracle.check_sweep(params, code, out, err) == []
    row = out.splitlines()[20].split(",")
    row[1] = repr(float(row[1]) + 1e-8)
    lines = out.splitlines()
    lines[20] = ",".join(row)
    assert oracle.check_sweep(params, code, "\n".join(lines), err)

    params = {"gamma_steps": 9, "steps": 9}
    code, out, err = _cli("verify-spectra", "--gamma-steps", "9", "--steps", "9", "--no-manifest")
    assert code == 2 and oracle.check_verify(params, code, out, err) == []
    lines = out.splitlines()
    assert oracle.check_verify(params, code, "\n".join(lines[:5] + lines[6:]), err)

    queries = [("depolarizing", 0.7, 0.3), ("bitflip", 0.4, 0.9)]
    good = [(float(c), float(c)) for c in (
        oracle.x_concurrence(oracle.evolved(ch, g, s)) for ch, g, s in queries)]
    assert oracle.check_points(queries, good) == []
    bad = [good[0], (good[1][0], good[1][1] + 1e-11)]
    assert oracle.check_points(queries, bad) == [1]
    assert oracle.check_points(queries, [None, good[1]]) == [0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert time.monotonic() - start < 180
