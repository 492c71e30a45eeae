"""``scripts/bench_pairs.py`` summaries: quartiles, pair wins, no-regression verdicts and
gain claims."""

import json
import subprocess

import pytest

from conftest import load_script

bench_pairs = load_script("bench_pairs")


def test_summarize_one_pair():
    # a single pair once raised StatisticsError after every run had finished
    entry = bench_pairs.summarize("s", {"parent": [0.2], "change": [0.1]}, trace=False)
    assert entry["parent"] == {"q1": 0.2, "median": 0.2, "q3": 0.2}
    assert entry["change"] == {"q1": 0.1, "median": 0.1, "q3": 0.1}
    assert entry["change_over_parent"] == 0.5
    assert entry["change_lower_in"] == "1/1 pairs"
    traced = bench_pairs.summarize("s", {"parent": [0.2], "change": [0.1]}, trace=True)
    assert (traced["parent_median"], traced["change_median"]) == (0.2, 0.1)


def test_summarize_two_pairs():
    entry = bench_pairs.summarize("MiB", {"parent": [2.0, 4.0], "change": [3.0, 1.0]},
                                  trace=False)
    assert entry["parent"] == {"q1": 2.5, "median": 3.0, "q3": 3.5}
    assert entry["change"] == {"q1": 1.5, "median": 2.0, "q3": 2.5}
    assert entry["change_over_parent"] == 0.667
    assert entry["change_lower_in"] == "1/2 pairs"
    assert entry["runs"] == {"parent": [2.0, 4.0], "change": [3.0, 1.0]}


TIGHT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]  # q3 - q1 = 0.015
WIDE = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0, 0.9, 1.1]  # q3 - q1 = 0.35


@pytest.mark.parametrize("parent, change, expected", [
    (TIGHT, [1.2] * 10, "within bound"),  # +20 % against a 25 % bound
    (TIGHT, [1.3] * 10, "over bound"),  # +30 %
    (WIDE, [1.3] * 10, "over bound"),  # a wide spread does not hide it
    (WIDE, [0.9] * 10, "unresolved"),  # the parent's spread is wider than the bound
    (WIDE, [0.5] * 10, "within bound"),  # ... unless every change run beats every parent run
    ([1.0], [1.25], "within bound"),  # exactly at the bound
], ids=["tight-within", "tight-over", "wide-over", "wide-unresolved", "wide-all-better",
        "one-pair-at-bound"])
def test_verdict_reads_the_median_against_the_bound(parent, change, expected):
    entry = bench_pairs.summarize("s", {"parent": parent, "change": change}, trace=False,
                                  bound=0.25)
    assert (entry["bound"], entry["verdict"]) == (0.25, expected)


# PR 32's figures claim: the median moved 0.0743 -> 0.0710 s (-4.4 %), lower in every
# pair, but the parent's own runs spread wider than that (q3 - q1 = 0.0039 s)
NOISY = [0.07, 0.072, 0.073, 0.074, 0.0742, 0.0744, 0.076, 0.0775, 0.078, 0.079]


@pytest.mark.parametrize("parent, change, expected", [
    (TIGHT, [0.9] * 10, "met"),  # lower in every pair, far outside the parent's spread
    (TIGHT, [0.9] * 9 + [1.1], "met"),  # 9 of 10 pairs is enough
    (TIGHT, [0.9] * 8 + [1.1] * 2, "not met"),  # 8 of 10 is not
    (TIGHT, [0.9] * 8 + [1.0] * 2, "not met"),  # a tie counts for neither side
    (NOISY, [p - 0.0033 for p in NOISY], "not met"),  # a 4 % gap inside the parent's IQR
    (NOISY, [p - 0.005 for p in NOISY], "met"),  # the same wins, a gap beyond it
    (TIGHT, [1.2] * 10, "not met"),  # slower
], ids=["all-pairs", "nine-pairs", "eight-pairs", "ties", "inside-iqr", "beyond-iqr",
        "slower"])
def test_gain_needs_nine_pairs_in_ten_and_a_gap_beyond_the_parents_iqr(parent, change,
                                                                       expected):
    entry = bench_pairs.summarize("s", {"parent": parent, "change": change}, trace=False,
                                  bound=0.25)
    assert entry["gain"] == expected


def test_seconds_default_is_the_benchmark_run_seconds(tmp_path, monkeypatch, capsys):
    # the default follows BENCHMARK.json, not a restated number
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({**bench, "run_seconds": 7}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--help"])
    assert "BENCHMARK.json run_seconds, 7" in " ".join(capsys.readouterr().out.split())


def test_layer_without_trace_is_rejected_before_any_copy(monkeypatch, capsys, tmp_path):
    # --layer names per-layer metrics, which only --trace 1 reports; a name that
    # BENCHMARK.json does not declare, or a --work-dir that is not a directory,
    # is refused as early
    def copy_parent(rev, dest):
        raise AssertionError("copied the parent before checking the arguments")

    monkeypatch.setattr(bench_pairs, "copy_parent", copy_parent)
    missing = tmp_path / "missing"
    for args, message in (
            (["--workload", "figures", "--work-dir", str(missing)],
             f"--work-dir {missing}: no such directory"),
            (["--workload", "figures", "--trace", "0", "--layer", "cli.main.self_s"],
             "--layer needs --trace 1"),
            (["--workload", "figures", "--trace", "1", "--layer", "cli.main.self"],
             "argument --layer: invalid choice: 'cli.main.self'"),
            (["--workload", "figure"], "argument --workload: invalid choice: 'figure'")):
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(args)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


RUN_PY_STDOUT = """\
esdscan benchmark: workload=verify-grid seed=0 seconds=25 trace=0
machine: {"cpu": "test"}
code: {"src": "abc"}
  setup_s                                        0.71 s          median of 5 fresh processes
  pass_best_s                                   0.143 s          sum of fastest times between writes, over 40 passes
  peak_rss_mb                                   55.14 MiB        max resident set of the measuring process
  pass_s                                     0.482712 s          median of 40 passes
  pass_tail_s                                    0.61 s          p75 of 40 passes (ten slower beyond it)
  items_per_s                                  123456 items/s    60000 per second over all passes
  fail_frac                                         0 ratio      0 of 45 operations failed
{"correct": true, "attempted": 45, "failed": 0, "metrics": {"setup_s": {"value": 0.71, \
"unit": "s"}, "pass_best_s": {"value": 0.143, "unit": "s"}, "peak_rss_mb": {"value": 55.14, \
"unit": "MiB"}}}
"""


def test_whole_pass_is_summarised_beside_the_metrics(monkeypatch, tmp_path, capsys):
    # pass_s, the median whole pass that run.py prints but leaves out of its JSON line,
    # is read from its output and summarised per side like the end-to-end metrics
    def fake_run(argv, cwd, capture_output, text):
        assert argv[1:3] == ["perfbench/run.py", "--workload"]
        return subprocess.CompletedProcess(argv, 0, RUN_PY_STDOUT, "")

    monkeypatch.setattr(bench_pairs, "copy_parent", lambda rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main(["--workload", "verify-grid", "--pairs", "2",
                             "--work-dir", str(tmp_path)]) == 0
    entry = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (entry["machine"], entry["all_correct"]) == ({"cpu": "test"}, True)
    assert list(entry)[-4:] == ["setup_s", "pass_best_s", "peak_rss_mb", "pass_s"]
    assert entry["pass_s"]["unit"] == "s"
    assert entry["pass_s"]["runs"] == {"parent": [0.4827] * 2, "change": [0.4827] * 2}
    assert entry["pass_best_s"]["parent"]["median"] == 0.143
    # the end-to-end metrics carry their BENCHMARK.json bound, a verdict and whether a
    # gain is met (not, for identical runs); pass_s has none of them
    assert [(entry[name]["bound"], entry[name]["verdict"], entry[name]["gain"]) for name in
            ("setup_s", "pass_best_s", "peak_rss_mb")] == [
        (0.25, "within bound", "not met"), (0.25, "within bound", "not met"),
        (0.15, "within bound", "not met")]
    assert "verdict" not in entry["pass_s"] and "gain" not in entry["pass_s"]
