"""esdscan benchmark: three seeded workloads through the documented entry points.

    python3 perfbench/run.py --workload verify-grid --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Every workload runs in fresh worker
processes (perfbench/worker.py) that import esdscan from the checkout's
``src``. With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. The lines before it name the machine, the code and each metric
with its unit. ``--smoke`` runs one reduced pass of every workload with
output checks on and exits 0 only if all of them are correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import COUNT_METRICS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup_s times fresh processes before and after the measuring one, which
# adds its own sample: the machine's speed drifts over seconds. Each side
# starts at least SETUP_PROBES of them, and more until SETUP_PROBE_S passed.
SETUP_PROBES = 2
SETUP_PROBE_S = 2.0
TIME_LIMIT_S = 170.0
# (name, unit) of the end-to-end metrics in the result, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_best_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# Printed beside them but left out of the result: other tenants of a shared
# machine move these by up to a fifth between runs (see README.md).
REPORTED = (
    ("pass_s", "s"),
    ("pass_tail_s", "s"),
    ("items_per_s", "items/s"),
)


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten passes beyond it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


def code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _line(name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<40} {shown:>14} {unit:<10} {note}".rstrip()


def _worker_args(opts, mode: str) -> list[str]:
    return ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--mode", mode]


def _problems(report: dict) -> list[str]:
    """Failed checks, plus any tracing wrapper seen outside a traced pass."""
    leftovers = set(report["untraced_wrappers"]) | set(report.get("wrappers_seen_untraced", ()))
    return report["problems"] + [f"tracing wrapper seen in an untraced pass: {name}"
                                 for name in sorted(leftovers)]


def _header(opts, report: dict) -> None:
    print(f"esdscan benchmark: workload={opts.workload} seed={opts.seed} "
          f"seconds={opts.seconds} trace={opts.trace}")
    print("machine: " + json.dumps(report["machine"]))
    print("code: " + json.dumps(code_identity()))


def end_to_end(opts, deadline: float) -> tuple[dict, dict]:
    def setup_probes():
        found, start = [], time.monotonic()
        while len(found) < SETUP_PROBES or time.monotonic() - start < SETUP_PROBE_S:
            found.append(run_worker(_worker_args(opts, "setup"), deadline))
        return found

    before = setup_probes()
    report = run_worker(_worker_args(opts, "measure"), deadline)
    probes = before + setup_probes()
    setups = [p["setup_s"] for p in probes] + [report["setup_s"]]
    report["attempted"] += len(probes)
    report["failed"] += sum(p["raised"] for p in probes)

    times = report["pass_s"]
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_best_s": report["pass_best_s"],
        "peak_rss_mb": report["peak_rss_mib"],
    }
    shown = {
        **metrics,
        "pass_s": statistics.median(times),
        "pass_tail_s": tail_s,
        "items_per_s": report["items_per_pass"] * len(times) / sum(times),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes (import + first call)",
        "pass_best_s": f"sum of fastest times between writes, over {len(times)} passes",
        "peak_rss_mb": "max resident set of the measuring process",
        "pass_s": f"median of {len(times)} passes",
        "pass_tail_s": f"p{pct:.0f} of {len(times)} passes (ten slower beyond it)",
        "items_per_s": f"{report['items']} per second over all passes, "
                       f"{report['items_per_pass']} per pass",
    }
    _header(opts, report)
    for name, unit in END_TO_END + REPORTED:
        print(_line(name, shown[name], unit, notes[name]))
    frac = report["failed"] / report["attempted"]
    print(_line("fail_frac", frac, "ratio",
                f"{report['failed']} of {report['attempted']} operations failed"))
    return metrics, report


def traced(opts, deadline: float) -> tuple[dict, dict]:
    report = run_worker(_worker_args(opts, "trace"), deadline)
    layers = report["layers"]
    metrics = {name: statistics.median(p[name] for p in layers)
               for name, _ in LAYER_METRICS if name != "trace.overhead_s"}
    for name in COUNT_METRICS:
        metrics[name] = layers[0][name]
    metrics["trace.overhead_s"] = report["traced_pass_best_s"] - report["pass_best_s"]
    repeat = [name for name in COUNT_METRICS if any(p[name] != layers[0][name] for p in layers)]
    _header(opts, report)
    print(f"traced passes: {len(layers)}, each after an untraced one; "
          f"counts repeat across passes: {not repeat}; "
          f"meter errors: {report['meter_errors']}")
    for name, unit in LAYER_METRICS:
        print(_line(name, metrics[name], unit))
    if repeat:
        report["problems"].append(f"counts differ between traced passes: {repeat}")
    return metrics, report


def smoke(deadline: float) -> int:
    ok = True
    for name in workloads.WORKLOADS:
        report = run_worker(["--workload", name, "--seed", "0", "--seconds", "0",
                             "--mode", "smoke"], deadline)
        problems = _problems(report)
        good = report["failed"] == 0 and not problems
        ok &= good
        print(json.dumps({"workload": name, "correct": good, "attempted": report["attempted"],
                          "failed": report["failed"], "problems": problems,
                          "layers": report["layers"][0]}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one reduced pass of every workload")
    opts = p.parse_args(argv)
    if not opts.smoke and opts.workload is None:
        p.error("--workload is required unless --smoke is given")
    if opts.seed < 0 or opts.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "esdscan" / "__init__.py").is_file():
        print(f"no esdscan sources under {ROOT / 'src'}: run from an esdscan checkout",
              file=sys.stderr)
        return 1

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if opts.smoke:
            return smoke(deadline)
        metrics, report = (traced if opts.trace else end_to_end)(opts, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    units = dict(LAYER_METRICS if opts.trace else END_TO_END)
    problems = _problems(report)
    for text in problems:
        print(f"problem: {text}")
    print(json.dumps({
        "correct": report["failed"] == 0 and not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
