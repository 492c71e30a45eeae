"""Paired benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --workload figures --seed 0 --pairs 10
    python3 scripts/bench_pairs.py --parent HEAD --workload figures --pairs 3 --trace 1 \\
        --layer channels.apply_product.self_s --layer cli.main.self_s

Run from the root of a checkout. The parent is taken from ``git archive
<rev>`` and the change from the working tree's tracked and unignored files,
each once, into a scratch directory. A reading can depend on which copy of
a tree runs, not only on its code, so neither side runs from the checkout
or from those snapshots: every pair gets two fresh copies, made together
the same way, and a copy's luck varies from pair to pair instead of
favouring one side. Each pair runs ``perfbench/run.py`` once per side,
alternating which side goes first. Progress goes to stderr; the
last line of stdout is a JSON object in the shape of a ``BENCH_*.json``
``end_to_end`` entry (or, with ``--trace 1``, of its per-layer entries),
with the machine line of the first run. Without ``--trace`` it also
summarises ``pass_s``, the median whole pass that ``run.py`` prints beside
its metrics: ``pass_best_s`` sums the fastest stretches between writes,
so a change in how often a command writes moves it, and ``pass_s`` does
not. Each end-to-end metric also gets its ``BENCHMARK.json`` bound, a
no-regression verdict (see ``verdict``) and whether a gain claimed on it is
met (see ``gain``). Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def copy_parent(rev: str, dest: Path) -> None:
    """Extract the committed tree of ``rev`` into ``dest``."""
    proc = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait():
        raise SystemExit(f"git archive {rev} failed with exit code {proc.returncode}")


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files into ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():  # a deleted file stays listed until it is staged
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_bench(tree: Path, opts) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``tree``: (its result object, its machine line)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", opts.workload,
            "--seed", str(opts.seed), "--seconds", str(opts.seconds),
            "--trace", str(opts.trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line.partition(": ")[2]) for line in lines
                    if line.startswith("machine: ")), {})
    result = json.loads(lines[-1])
    for name, value, unit, *_ in (line.split() for line in lines if line.startswith("  pass_s ")):
        result["metrics"][name] = {"value": float(value), "unit": unit}
    return result, machine


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3]; a single run is all three."""
    return (statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1 else values * 3)


def rounded_quartiles(values: list[float]) -> dict:
    return dict(zip(("q1", "median", "q3"), (round(q, 4) for q in quartiles(values))))


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """No regression, read against a relative ``bound`` on a lower-better metric.

    "over bound" when the change's median exceeds the parent's by more than the
    bound; "unresolved" when the parent's own spread (q3 - q1) exceeds the bound
    times its median, unless every change run beats every parent run; else
    "within bound".
    """
    q1, mid, q3 = quartiles(parent)
    if statistics.median(change) > mid * (1 + bound):
        return "over bound"
    if q3 - q1 > bound * mid and not max(change) < min(parent):
        return "unresolved"
    return "within bound"


def gain(parent: list[float], change: list[float]) -> str:
    """Whether a gain claimed on a lower-better metric is met: "met" when the change
    reads lower in at least 9 of 10 pairs (ties count for neither) and its median
    sits below the parent's by more than the parent's spread (q3 - q1)."""
    q1, mid, q3 = quartiles(parent)
    wins = sum(c < p for p, c in zip(parent, change))
    met = 10 * wins >= 9 * len(parent) and mid - statistics.median(change) > q3 - q1
    return "met" if met else "not met"


def summarize(unit: str, runs: dict, trace: bool, bound: float | None = None) -> dict:
    """Quartiles and per-pair wins of one metric; every perfbench metric is lower-better.
    With an end-to-end ``bound``, also the bound, its verdict and whether a gain is met."""
    parent, change = runs["parent"], runs["change"]
    if trace:
        return {"unit": unit, "parent_median": round(statistics.median(parent), 4),
                "change_median": round(statistics.median(change), 4),
                "runs": {side: [round(v, 4) for v in runs[side]] for side in SIDES}}
    wins = sum(c < p for p, c in zip(parent, change))
    mid_parent = statistics.median(parent)
    entry = {
        "unit": unit,
        "parent": rounded_quartiles(parent),
        "change": rounded_quartiles(change),
        "change_over_parent": round(statistics.median(change) / mid_parent, 3)
        if mid_parent else None,
        "change_lower_in": f"{wins}/{len(parent)} pairs",
        "runs": {side: [round(v, 4) for v in runs[side]] for side in SIDES},
    }
    if bound is not None:
        entry.update(bound=bound, verdict=verdict(parent, change, bound),
                     gain=gain(parent, change))
    return entry


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_bytes())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", default="HEAD", help="revision the change is compared with")
    p.add_argument("--workload", required=True, metavar="NAME",
                   choices=[w["name"] for w in bench["workloads"]],
                   help="a BENCHMARK.json workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds, %(default)s",
                   default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--layer", action="append", metavar="NAME",
                   choices=[m["name"] for m in bench["per_layer"]],
                   help="with --trace 1, a BENCHMARK.json per-layer metric to report "
                        "(default: all)")
    p.add_argument("--work-dir", help="where the two copies are made (default: a temp dir)")
    opts = p.parse_args(argv)
    if opts.pairs < 1:
        p.error("--pairs must be >= 1")
    if opts.layer and not opts.trace:
        p.error("--layer needs --trace 1")
    if opts.work_dir is not None and not Path(opts.work_dir).is_dir():
        p.error(f"--work-dir {opts.work_dir}: no such directory")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=opts.work_dir) as tmp:
        snapshots = {side: Path(tmp) / "snapshot" / side for side in SIDES}
        trees = {side: Path(tmp) / side for side in SIDES}
        copy_parent(opts.parent, snapshots["parent"])
        copy_worktree(snapshots["change"])
        runs, units, correct, machine = {}, {}, True, None
        for i in range(opts.pairs):
            for side in SIDES:
                shutil.rmtree(trees[side], ignore_errors=True)
                shutil.copytree(snapshots[side], trees[side])
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result, seen = run_bench(trees[side], opts)
                machine = machine or seen
                correct &= result["correct"] and result["failed"] == 0
                for name, m in result["metrics"].items():
                    units[name] = m["unit"]
                    runs.setdefault(name, {s: [] for s in SIDES})[side].append(m["value"])
            shown = {name: [r[s][-1] for s in SIDES] for name, r in runs.items()
                     if not opts.layer or name in opts.layer}
            print(f"pair {i + 1}/{opts.pairs} ({order[0]} first): parent, change = "
                  + json.dumps(shown), file=sys.stderr)

    entry = {"workload": opts.workload, "seed": opts.seed, "pairs": opts.pairs,
             "all_correct": correct, "parent_rev": opts.parent, "seconds": opts.seconds,
             "trace": opts.trace, "machine": machine}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in opts.layer or runs:
        entry[name] = summarize(units[name], runs[name], bool(opts.trace), bounds.get(name))
    print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
