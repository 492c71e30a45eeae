"""One benchmark process: import esdscan, run timed passes, check the outputs.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Modes:

- ``setup``: time ``import esdscan`` plus the workload's first call, then exit.
- ``measure``: setup, finish the first pass untimed, then untraced passes,
  each operation timed on its own.
- ``trace``: setup and warm-up, then untraced and traced passes in turn.
- ``smoke``: like ``trace`` with reduced inputs and one pass of each kind.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
# Enough timed passes for pass_tail_s: the 11th slowest has ten beyond it.
MIN_PASSES = 11
MIN_TRACE_PASSES = 3
MAX_PROBLEMS = 5


class _Clocked(io.StringIO):
    """Captured output that notes the time of every write into ``marks``."""

    def __init__(self, marks: list[float]):
        super().__init__()
        self.marks = marks

    def write(self, text: str) -> int:
        self.marks.append(time.perf_counter())
        return super().write(text)


class Runner:
    """Runs the workload's operations through the documented entry points.

    Every name is looked up on its esdscan module at call time, so a
    traced pass sees the wrappers that ``spans.Tracer`` installed.
    """

    def __init__(self, workload, package, cli):
        self.workload = workload
        self.package = package
        self.cli = cli
        self.is_cli = workload.name != "point-eval"
        self.attempted = 0
        self.raised = 0
        self.problems: list[str] = []
        # per operation: [[result, times seen], ...], one entry per distinct result
        self.seen = [[] for _ in workload.ops]
        self.marks: list[float] = []  # times of the running operation's writes

    def run_op(self, k: int):
        op = self.workload.ops[k]
        try:
            if self.is_cli:
                out, err = _Clocked(self.marks), _Clocked(self.marks)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(list(op.argv))
                return code, out.getvalue(), err.getvalue()
            e = self.package
            channel, gamma, strength = op
            rho = e.apply_product_channel(e.mems(gamma), e.kraus_set(e.ChannelKind(channel), strength))
            return e.concurrence(rho), e.xstate_concurrence(rho)
        except Exception:
            self._problem(f"op {k} raised: {traceback.format_exc(limit=3)}")
            return None

    def run_pass(self, first: int = 0) -> tuple[float, list, list]:
        """Run operations ``first``.. once.

        Returns the pass time, each operation's segments and the results.
        An operation's segments are the times between its start, each of
        its writes to stdout or stderr, and its end.
        """
        clock = time.perf_counter
        segments, results = [], []
        start = clock()
        for k in range(first, len(self.workload.ops)):
            self.marks = [clock()]
            results.append(self.run_op(k))
            self.marks.append(clock())
            segments.append([b - a for a, b in zip(self.marks, self.marks[1:])])
        return clock() - start, segments, results

    def record(self, results: list, first: int = 0) -> int:
        """Keep each distinct result for checking; returns stdout bytes written."""
        written = 0
        for k, res in enumerate(results, start=first):
            self.attempted += 1
            if res is None:
                self.raised += 1
                continue
            if self.is_cli:
                written += len(res[1].encode("utf-8"))
            for entry in self.seen[k]:
                if entry[0] == res:
                    entry[1] += 1
                    break
            else:
                self.seen[k].append([res, 1])
        return written

    def check(self) -> int:
        """Failed operations: raised, or produced an output the oracle rejects."""
        import oracle

        ops = self.workload.ops
        entries = [(k, res, times) for k, seen in enumerate(self.seen) for res, times in seen]
        if self.is_cli:
            rejected = []
            for i, (k, res, _) in enumerate(entries):
                found = oracle.CLI_CHECKS[ops[k].kind](ops[k].params, *res)
                if found:
                    rejected.append(i)
                    self._problem(f"{' '.join(ops[k].argv)}: {'; '.join(found)}")
        else:
            rejected = oracle.check_points([ops[k] for k, _, _ in entries],
                                           [res for _, res, _ in entries])
            for i in rejected:
                self._problem(f"query {ops[entries[i][0]]} gave {entries[i][1]}")
        return self.raised + sum(entries[i][2] for i in rejected)

    def _problem(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)


class BestTimes:
    """The fastest time seen for each segment of each operation of a pass.

    Their sum is the best-case pass time. Other processes on the machine
    slow it in phases of a fraction of a second to tens of seconds, which
    move the median pass by up to half; each segment needs only one
    unhindered run to count. ``verify-spectra`` writes a line per channel,
    so its single call splits into one segment per channel.
    """

    def __init__(self, n: int):
        self.best: list[list[float] | None] = [None] * n

    def add(self, segments: list[list[float]]) -> None:
        for k, new in enumerate(segments):
            old = self.best[k]
            if old is None:
                self.best[k] = list(new)
            elif len(old) == len(new):
                self.best[k] = [min(a, b) for a, b in zip(old, new)]
            else:  # a failed call wrote less: keep the whole operation's best
                self.best[k] = [min(math.fsum(old), math.fsum(new))]

    def pass_s(self) -> float:
        return math.fsum(t for op in self.best for t in op)


def _timed_passes(runner: Runner, seconds: float, min_passes: int) -> dict:
    times, best = [], BestTimes(len(runner.workload.ops))
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < min_passes:
        elapsed, segments, results = runner.run_pass()
        times.append(elapsed)
        best.add(segments)
        runner.record(results)
    return {"pass_s": times, "pass_best_s": best.pass_s()}


def _alternate(runner: Runner, package, seconds: float, min_pairs: int) -> dict:
    """Untraced and traced passes in turn, so that both see the same machine state."""
    import spans

    modules = spans.package_modules(package)
    tracer = spans.Tracer(modules)
    n = len(runner.workload.ops)
    plain, traced, layers, leftovers = BestTimes(n), BestTimes(n), [], set()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(layers) < min_pairs:
        leftovers.update(spans.traced_attributes(modules))
        _, segments, results = runner.run_pass()
        plain.add(segments)
        runner.record(results)
        tracer.install()
        try:
            _, segments, results = runner.run_pass()
        finally:
            tracer.uninstall()
        traced.add(segments)
        layers.append({**tracer.take(), "cli.bytes_out": runner.record(results)})
    return {"pass_best_s": plain.pass_s(), "traced_pass_best_s": traced.pass_s(),
            "layers": layers, "meter_errors": tracer.meter_errors,
            "wrappers_seen_untraced": sorted(leftovers)}


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import platform

    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace", "smoke"))
    args = p.parse_args()
    workload = workloads.build(args.workload, args.seed, smoke=args.mode == "smoke")

    start = time.perf_counter()
    import esdscan
    import esdscan.cli

    if not Path(esdscan.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"esdscan imported from {esdscan.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    runner = Runner(workload, esdscan, esdscan.cli)
    first = runner.run_op(0)
    setup_s = time.perf_counter() - start
    runner.record([first])
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raised": runner.raised}))
        return 0

    report = {"setup_s": setup_s, "machine": machine()}
    runner.record(runner.run_pass(first=1)[2], first=1)  # finish the warm-up pass
    if args.mode == "measure":
        report.update(_timed_passes(runner, args.seconds, MIN_PASSES))
    else:
        min_pairs = 1 if args.mode == "smoke" else MIN_TRACE_PASSES
        report.update(_alternate(runner, esdscan, args.seconds, min_pairs))
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import spans

    report["untraced_wrappers"] = spans.traced_attributes(spans.package_modules(esdscan))
    report["failed"] = runner.check()
    report["attempted"] = runner.attempted
    report["problems"] = runner.problems
    report["items_per_pass"] = workload.items_per_pass
    report["items"] = workload.items
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
